// Batched scenario generation: scenario i must be bit-identical whether it
// is generated alone, in any batch size, on any shard, or through recycled
// storage — and regeneration through a warm batch must not grow any
// scratch-managed buffer.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "dsslice/gen/scenario_batch.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/sim/serialization.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

GeneratorConfig paper_config() {
  GeneratorConfig cfg;
  cfg.base_seed = 0xABCD1234;
  return cfg;
}

std::string bits(const Scenario& sc) { return serialize_scenario(sc); }

TEST(ScenarioBatch, MatchesSingleGenerationBitForBit) {
  const GeneratorConfig cfg = paper_config();
  ScenarioBatch batch;
  batch.generate(cfg, 0, 16);
  ASSERT_EQ(batch.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    const Scenario single =
        generate_scenario(cfg, derive_seed(cfg.base_seed, i));
    EXPECT_EQ(bits(single), bits(batch[i])) << "scenario " << i;
  }
}

// Generator pin: the serialized bits of scenarios 0..31 at paper defaults,
// seed 20250707. The digest was recorded while the pre-batching generator
// still existed and agreed with ScenarioBatch scenario for scenario, so a
// change that moves any generated bit fails here.
TEST(ScenarioBatch, MatchesPinnedGeneratorDigest) {
  GeneratorConfig cfg;
  cfg.base_seed = 20250707;
  ScenarioBatch batch;
  batch.generate(cfg, 0, 32);
  ASSERT_EQ(batch.size(), 32u);
  std::string text;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    text += bits(batch[i]);
  }
  EXPECT_EQ(testing::fnv1a(text), 0x567f6803731e13c4ULL);
}

// Serialized bits of scenarios [0, count) plus every node's successor and
// predecessor order and the analysis' topological order: serialization
// alone lists arcs in insertion order, so it would miss an adjacency
// reordering that the slicing and scheduling walks depend on.
std::uint64_t structure_digest(const GeneratorConfig& cfg, std::size_t count) {
  ScenarioBatch batch;
  batch.generate(cfg, 0, count);
  std::string text;
  const auto append = [&text](char tag, std::span<const NodeId> ids) {
    text += tag;
    for (const NodeId id : ids) {
      text += ' ';
      text += std::to_string(id);
    }
    text += '\n';
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Application& app = batch[i].application;
    text += bits(batch[i]);
    for (NodeId v = 0; v < app.task_count(); ++v) {
      append('s', app.graph().successors(v));
      append('p', app.graph().predecessors(v));
    }
    append('t', app.analysis().topological_order());
  }
  return testing::fnv1a(text);
}

// Generator pins for the branches the paper-default pin above does not
// reach. Each digest was recorded on the per-node adjacency generator that
// preceded the flat arc-list one; a change that moves any generated bit or
// neighbour order fails here.
TEST(ScenarioBatch, GeneratorBranchesMatchPinnedDigests) {
  struct Pin {
    const char* name;
    void (*configure)(GeneratorConfig&);
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"any-earlier-level",
       [](GeneratorConfig& c) {
         c.workload.edge_locality = EdgeLocality::kAnyEarlierLevel;
       },
       0xe10da831c2fdfdbaULL},
      {"unrelated-classes",
       [](GeneratorConfig& c) {
         c.platform.class_model = ClassModel::kUnrelated;
       },
       0xc20be2f7b6d4b929ULL},
      {"saturated-degree-3",
       [](GeneratorConfig& c) {
         c.workload.min_degree = 3;
         c.workload.max_degree = 3;
       },
       0xb910e55659ac087dULL},
      // Every pool is trimmed to nothing: over these 16 scenarios the
      // anchor pool falls back to the whole previous level 152 times and
      // the successor pool to the whole current level 144 times.
      {"saturated-degree-1",
       [](GeneratorConfig& c) {
         c.workload.min_degree = 1;
         c.workload.max_degree = 1;
       },
       0xaf6fae4acdf8b085ULL},
      {"real-valued-messages",
       [](GeneratorConfig& c) { c.workload.integral_messages = false; },
       0x91d2ac1ac7223903ULL},
      {"ccr-zero", [](GeneratorConfig& c) { c.workload.ccr = 0.0; },
       0xcb818269f73a0ca8ULL},
      {"olr-spread",
       [](GeneratorConfig& c) { c.workload.olr_spread = 0.3; },
       0x0e83824d50df6a27ULL},
      {"optional-fractions",
       [](GeneratorConfig& c) {
         c.workload.min_optional_fraction = 0.1;
         c.workload.max_optional_fraction = 0.5;
       },
       0x710dc22d9b4becffULL},
      {"wide-100-150",
       [](GeneratorConfig& c) {
         c.workload.min_tasks = 100;
         c.workload.max_tasks = 150;
         c.workload.olr = 0.6;
         c.platform.processor_count = 4;
       },
       0xd78d10f49dc0744dULL},
      // Three classes on two processors leave at least one class
      // unpopulated, and 60% ineligibility often leaves a task no populated
      // class: the fallback draw runs, and each task's average WCET is over
      // a varying number of eligible classes.
      {"heavy-ineligibility",
       [](GeneratorConfig& c) {
         c.workload.ineligible_probability = 0.6;
         c.platform.min_class_count = 3;
         c.platform.max_class_count = 3;
         c.platform.processor_count = 2;
         c.platform.class_model = ClassModel::kUnrelated;
       },
       0x5f8b7165df6c53e9ULL},
  };
  for (const Pin& pin : pins) {
    GeneratorConfig cfg;
    cfg.base_seed = 20251017;
    pin.configure(cfg);
    cfg.validate();
    EXPECT_EQ(structure_digest(cfg, 16), pin.digest)
        << pin.name << ": 0x" << std::hex << structure_digest(cfg, 16);
  }
}

TEST(ScenarioBatch, BatchSizeDoesNotAffectScenarioBits) {
  const GeneratorConfig cfg = paper_config();
  // Reference: one batch covering [0, 24).
  ScenarioBatch whole;
  whole.generate(cfg, 0, 24);
  std::vector<std::string> reference;
  for (std::size_t i = 0; i < 24; ++i) {
    reference.push_back(bits(whole[i]));
  }
  // The same range split into batches of 1, 5 and 8 — as different shard
  // layouts would — must reproduce every scenario exactly.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{5},
                                  std::size_t{8}}) {
    ScenarioBatch batch;
    for (std::size_t first = 0; first < 24; first += chunk) {
      const std::size_t n = std::min(chunk, 24 - first);
      batch.generate(cfg, first, n);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(bits(batch[k]), reference[first + k])
            << "chunk " << chunk << " scenario " << first + k;
      }
    }
  }
}

TEST(ScenarioBatch, ShardOrderDoesNotAffectScenarioBits) {
  const GeneratorConfig cfg = paper_config();
  ScenarioBatch batch;
  // Generate shard [32, 40) before shard [0, 8): out-of-order shard
  // execution must not leak state between ranges.
  batch.generate(cfg, 32, 8);
  const std::string later = bits(batch[0]);
  batch.generate(cfg, 0, 8);
  const std::string earlier = bits(batch[0]);
  batch.generate(cfg, 32, 8);
  EXPECT_EQ(bits(batch[0]), later);
  EXPECT_EQ(earlier, bits(generate_scenario(cfg, derive_seed(cfg.base_seed, 0))));
}

TEST(ScenarioBatch, WarmRegenerationGrowsNoScratchBuffers) {
  const GeneratorConfig cfg = paper_config();
  ScenarioBatch batch;
  // rebuild_swap rotates storage between the scratch and the scenario
  // slots, so each pass over the same windows pairs every storage piece
  // with a *shifted* scenario shape. Steady state is reached once a full
  // rotation cycle of passes completes without growth — from then on every
  // piece has proven capacity for every shape it can ever be paired with,
  // and the counter must never move again.
  constexpr int kRotationCycle = 34;  // 32 slots + scratch, with margin
  int flat = 0;
  for (int pass = 0; pass < 400 && flat < kRotationCycle; ++pass) {
    const std::uint64_t before = batch.grow_events();
    for (std::uint64_t first = 0; first < 96; first += 32) {
      batch.generate(cfg, first, 32);
    }
    flat = batch.grow_events() == before ? flat + 1 : 0;
  }
  ASSERT_EQ(flat, kRotationCycle) << "batch never reached steady state";
  const std::uint64_t warm = batch.grow_events();
  for (std::uint64_t first = 0; first < 96; first += 32) {
    batch.generate(cfg, first, 32);
  }
  EXPECT_EQ(batch.grow_events(), warm);
}

TEST(ScenarioBatch, InPlaceRebuildMatchesFreshApplication) {
  const GeneratorConfig cfg = paper_config();
  GeneratorScratch scratch;
  Scenario slot = generate_scenario_with(cfg, derive_seed(cfg.base_seed, 0),
                                         &scratch);
  // Regenerate a different scenario into the same slot, then the original
  // again: recycled graph/task storage must leave no trace in the bits.
  generate_scenario_into(cfg, derive_seed(cfg.base_seed, 1), slot, &scratch);
  EXPECT_EQ(bits(slot),
            bits(generate_scenario(cfg, derive_seed(cfg.base_seed, 1))));
  generate_scenario_into(cfg, derive_seed(cfg.base_seed, 0), slot, &scratch);
  EXPECT_EQ(bits(slot),
            bits(generate_scenario(cfg, derive_seed(cfg.base_seed, 0))));
  // The rebuilt application still memoizes a fresh analysis for its graph.
  EXPECT_EQ(slot.application.analysis().node_count(),
            slot.application.task_count());
}

TEST(ScenarioBatch, OptionalFractionKnobSurvivesSlotReuse) {
  GeneratorConfig with_optional = paper_config();
  with_optional.workload.min_optional_fraction = 0.2;
  with_optional.workload.max_optional_fraction = 0.6;
  const GeneratorConfig precise = paper_config();

  GeneratorScratch scratch;
  Scenario slot = generate_scenario_with(
      with_optional, derive_seed(with_optional.base_seed, 0), &scratch);
  ASSERT_TRUE(slot.application.has_optional_work());
  // Reusing a slot whose tasks carried optional fractions for a precise
  // scenario must reset them (recycled Task slots hold stale fields).
  generate_scenario_into(precise, derive_seed(precise.base_seed, 0), slot,
                         &scratch);
  EXPECT_FALSE(slot.application.has_optional_work());
  EXPECT_EQ(bits(slot),
            bits(generate_scenario(precise, derive_seed(precise.base_seed, 0))));
}

}  // namespace
}  // namespace dsslice
