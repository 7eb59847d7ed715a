#include "dsslice/gen/platform_generator.hpp"

#include <string>

#include "dsslice/obs/trace.hpp"

namespace dsslice {

namespace {

void draw_platform(const PlatformConfig& config, Xoshiro256& rng,
                   PlatformDraw& draw) {
  const auto class_count = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config.min_class_count),
      static_cast<std::int64_t>(config.max_class_count)));

  draw.classes.resize(class_count);
  for (std::size_t e = 0; e < class_count; ++e) {
    const double h = config.class_deviation;
    const double factor =
        class_count == 1 ? 1.0 : rng.uniform(1.0 - h, 1.0 + h);
    draw.classes[e] = ProcessorClass{"e" + std::to_string(e), factor};
  }

  draw.class_of.resize(config.processor_count);
  for (auto& e : draw.class_of) {
    e = static_cast<ProcessorClassId>(
        rng.uniform_int(0, static_cast<std::int64_t>(class_count) - 1));
  }
  // Guarantee class 0 is populated so at least one class is usable even
  // under adversarial eligibility draws (the workload generator only makes
  // tasks eligible on populated classes).
  draw.class_of[0] = 0;
}

}  // namespace

Platform generate_platform(const PlatformConfig& config, Xoshiro256& rng) {
  DSSLICE_SPAN("gen.platform");
  PlatformDraw draw;
  draw_platform(config, rng, draw);
  return Platform::shared_bus(std::move(draw.classes),
                              std::move(draw.class_of),
                              config.bus_delay_per_item);
}

void generate_platform_into(Platform& out, const PlatformConfig& config,
                            Xoshiro256& rng, PlatformDraw& draw) {
  DSSLICE_SPAN("gen.platform");
  draw_platform(config, rng, draw);
  out.assign_shared_bus(draw.classes, draw.class_of,
                        config.bus_delay_per_item);
}

}  // namespace dsslice
