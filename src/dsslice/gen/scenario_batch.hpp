// Batched scenario generation — the producer side of the million-scenario
// sweep engine (sweep/sweep_engine.hpp).
//
// A ScenarioBatch owns a reusable window of generated scenarios plus the
// GeneratorScratch their DAG layout recycles. Refilling a batch amortizes
// everything that is per-batch rather than per-scenario — the config
// validation, the scratch buffer sizing, the scenario storage shell — while
// per-scenario seed derivation stays exactly derive_seed(base_seed, index):
// scenario `index` is bit-identical whether generated alone, in any batch
// window, or on any shard (pinned by tests/test_scenario_batch.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "dsslice/gen/taskgraph_generator.hpp"

namespace dsslice {

class ScenarioBatch {
 public:
  /// Regenerates the batch in place to hold scenarios
  /// [first_index, first_index + count) of the stream described by
  /// `config` (graph_count is ignored; the window bounds come from the
  /// arguments). Validates the config once, then reuses the existing
  /// scenario slots and scratch buffers.
  void generate(const GeneratorConfig& config, std::uint64_t first_index,
                std::size_t count);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Scenario& operator[](std::size_t k) const { return scenarios_[k]; }
  std::span<const Scenario> scenarios() const {
    return {scenarios_.data(), size_};
  }

  /// Capacity growths of the batch storage plus the generator scratch since
  /// construction, both counted by the scratch: a warm batch refilled at
  /// the same or a smaller window size must not move this counter.
  std::uint64_t grow_events() const { return scratch_.grow_events(); }

  GeneratorScratch& scratch() { return scratch_; }

 private:
  std::vector<Scenario> scenarios_;
  std::size_t size_ = 0;
  GeneratorScratch scratch_;
};

}  // namespace dsslice
