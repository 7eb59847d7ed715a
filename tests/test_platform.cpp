#include <gtest/gtest.h>

#include <vector>

#include "dsslice/gen/platform_generator.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {
namespace {

TEST(Platform, IdenticalFactory) {
  const Platform p = Platform::identical(4);
  EXPECT_EQ(p.processor_count(), 4u);
  EXPECT_EQ(p.class_count(), 1u);
  for (ProcessorId q = 0; q < 4; ++q) {
    EXPECT_EQ(p.class_of(q), 0u);
  }
  EXPECT_EQ(p.processors_in_class(0), 4u);
  EXPECT_EQ(p.network().name(), "shared-bus");
}

TEST(Platform, SharedBusFactoryAssignsClasses) {
  const Platform p = Platform::shared_bus(
      {ProcessorClass{"fast", 0.8}, ProcessorClass{"slow", 1.2}},
      {0, 1, 1}, 2.0);
  EXPECT_EQ(p.processor_count(), 3u);
  EXPECT_EQ(p.class_count(), 2u);
  EXPECT_EQ(p.class_of(0), 0u);
  EXPECT_EQ(p.class_of(1), 1u);
  EXPECT_EQ(p.processors_in_class(0), 1u);
  EXPECT_EQ(p.processors_in_class(1), 2u);
  EXPECT_EQ(p.processor_class(1).name, "slow");
  EXPECT_DOUBLE_EQ(p.comm_delay(0, 1, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(p.comm_delay(2, 2, 3.0), 0.0);
}

TEST(Platform, RejectsInvalidConstruction) {
  EXPECT_THROW(Platform::identical(0), ConfigError);
  EXPECT_THROW(Platform::shared_bus({}, {0}), ConfigError);
  EXPECT_THROW(Platform::shared_bus({ProcessorClass{"e0", 1.0}}, {}),
               ConfigError);
  // Class index out of range.
  EXPECT_THROW(Platform::shared_bus({ProcessorClass{"e0", 1.0}}, {0, 1}),
               ConfigError);
}

TEST(Platform, AccessorBoundsChecked) {
  const Platform p = Platform::identical(2);
  EXPECT_THROW(p.processor(2), ConfigError);
  EXPECT_THROW(p.processor_class(1), ConfigError);
  EXPECT_THROW(p.comm_delay(0, 2, 1.0), ConfigError);
  EXPECT_THROW(p.processors_in_class(3), ConfigError);
}

TEST(Platform, GenerateIntoMatchesGenerateAndReusesAnEqualBus) {
  PlatformConfig config;
  config.processor_count = 5;
  config.max_class_count = 4;
  PlatformDraw draw;
  Xoshiro256 seed_rng(7);
  Platform recycled = generate_platform(config, seed_rng);
  const Interconnect* bus = &recycled.network();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 a(seed);
    Xoshiro256 b(seed);
    const Platform fresh = generate_platform(config, a);
    generate_platform_into(recycled, config, b, draw);
    EXPECT_EQ(a(), b()) << "draw order diverged, seed " << seed;
    ASSERT_EQ(recycled.class_count(), fresh.class_count());
    for (ProcessorClassId e = 0; e < fresh.class_count(); ++e) {
      EXPECT_EQ(recycled.processor_class(e).name,
                fresh.processor_class(e).name);
      EXPECT_EQ(recycled.processor_class(e).speed_factor,
                fresh.processor_class(e).speed_factor);
    }
    ASSERT_EQ(recycled.processor_count(), fresh.processor_count());
    for (ProcessorId q = 0; q < fresh.processor_count(); ++q) {
      EXPECT_EQ(recycled.processor(q).name, fresh.processor(q).name);
      EXPECT_EQ(recycled.class_of(q), fresh.class_of(q));
    }
    EXPECT_EQ(&recycled.network(), bus);  // same delay: bus kept
  }
}

TEST(Platform, CopyKeepsClassesAndNetworkAcrossRegeneration) {
  PlatformConfig config;
  config.min_class_count = 3;
  config.max_class_count = 3;
  Xoshiro256 rng(3);
  Platform p = generate_platform(config, rng);
  const Platform copy = p;
  const std::vector<ProcessorClass> classes = copy.classes();
  const std::size_t processors = copy.processor_count();
  const Interconnect* bus = &copy.network();

  PlatformConfig other;
  other.processor_count = 6;
  other.min_class_count = 1;
  other.max_class_count = 1;
  other.bus_delay_per_item = 2.0;
  PlatformDraw draw;
  generate_platform_into(p, other, rng, draw);
  EXPECT_EQ(p.class_count(), 1u);
  EXPECT_EQ(p.processor_count(), 6u);
  EXPECT_EQ(p.comm_delay(0, 1, 1.0), 2.0);

  ASSERT_EQ(copy.class_count(), classes.size());
  for (ProcessorClassId e = 0; e < classes.size(); ++e) {
    EXPECT_EQ(copy.processor_class(e).name, classes[e].name);
    EXPECT_EQ(copy.processor_class(e).speed_factor, classes[e].speed_factor);
  }
  EXPECT_EQ(copy.processor_count(), processors);
  EXPECT_EQ(&copy.network(), bus);
  EXPECT_EQ(copy.comm_delay(0, 1, 1.0), 1.0);
}

TEST(Platform, AssignSharedBusValidatesBeforeChangingAnything) {
  Platform p = Platform::identical(2);
  const std::vector<ProcessorClass> classes{ProcessorClass{"e0", 1.0}};
  const std::vector<ProcessorClassId> bad{0, 1};
  EXPECT_THROW(p.assign_shared_bus(classes, bad, 1.0), ConfigError);
  EXPECT_EQ(p.processor_count(), 2u);
  EXPECT_EQ(p.class_count(), 1u);
}

TEST(MachineKind, Names) {
  EXPECT_EQ(to_string(MachineKind::kIdentical), "identical");
  EXPECT_EQ(to_string(MachineKind::kUniform), "uniform");
  EXPECT_EQ(to_string(MachineKind::kUnrelated), "unrelated");
}

}  // namespace
}  // namespace dsslice
