#include "dsslice/sim/runner.hpp"

#include "dsslice/sweep/sweep_engine.hpp"

namespace dsslice {

SweepAggregate run_experiment(const ExperimentConfig& config) {
  config.generator.validate();
  return run_sweep_shard(config, 0, config.generator.graph_count);
}

SweepAggregate run_experiment(const ExperimentConfig& config,
                              ThreadPool& /*unused*/) {
  return run_experiment(config);
}

}  // namespace dsslice
