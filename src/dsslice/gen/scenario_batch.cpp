#include "dsslice/gen/scenario_batch.hpp"

#include "dsslice/gen/rng.hpp"
#include "dsslice/obs/trace.hpp"

namespace dsslice {

void ScenarioBatch::generate(const GeneratorConfig& config,
                             std::uint64_t first_index, std::size_t count) {
  DSSLICE_SPAN("gen.batch");
  config.validate();
  scratch_.reserve(scenarios_, count, count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t seed =
        derive_seed(config.base_seed, first_index + static_cast<std::uint64_t>(k));
    if (k < scenarios_.size()) {
      generate_scenario_into(config, seed, scenarios_[k], &scratch_);
    } else {
      scenarios_.push_back(generate_scenario_with(config, seed, &scratch_));
    }
  }
  size_ = count;
}

}  // namespace dsslice
