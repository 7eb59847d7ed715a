#include <gtest/gtest.h>

#include "dsslice/sim/runner.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

ExperimentConfig small_config(std::uint64_t seed, std::size_t graphs = 32) {
  ExperimentConfig c;
  c.generator = testing::small_generator(seed);
  c.generator.graph_count = graphs;
  c.technique = DistributionTechnique::kSlicingAdaptL;
  return c;
}

TEST(Runner, TrialCountMatchesGraphCount) {
  const ExperimentConfig c = small_config(1, 17);
  const SweepAggregate r = run_experiment(c);
  EXPECT_EQ(r.success.trials(), 17u);
  EXPECT_EQ(r.task_count.count(), 17u);
}

TEST(Runner, RepeatedRunsAreIdentical) {
  const ExperimentConfig c = small_config(9, 24);
  const SweepAggregate r1 = run_experiment(c);
  const SweepAggregate r2 = run_experiment(c);
  EXPECT_EQ(serialize_sweep_aggregate(r1), serialize_sweep_aggregate(r2));
}

TEST(Runner, IsAOneShardSweepOnAnyPool) {
  // run_experiment is run_sweep over one shard of graph_count scenarios:
  // graph k's outcome depends only on derive_seed(base_seed, k), and the
  // single shard folds in index order on one thread, so neither the sweep's
  // pool size nor the (unused) pool argument can move a bit.
  const ExperimentConfig c = small_config(77, 48);
  SweepOptions options;
  options.scenario_count = c.generator.graph_count;
  options.shard_size = c.generator.graph_count;
  ThreadPool one(1);
  ThreadPool many(7);
  const std::string sweep =
      serialize_sweep_aggregate(run_sweep(c, options, one).aggregate);
  EXPECT_EQ(serialize_sweep_aggregate(run_sweep(c, options, many).aggregate),
            sweep);
  EXPECT_EQ(serialize_sweep_aggregate(run_experiment(c)), sweep);
  EXPECT_EQ(serialize_sweep_aggregate(run_experiment(c, many)), sweep);
}

TEST(Runner, InvalidConfigThrows) {
  ExperimentConfig c = small_config(1);
  c.generator.workload.olr = -1.0;
  EXPECT_THROW(run_experiment(c), ConfigError);
  c = small_config(1);
  c.generator.graph_count = 0;
  EXPECT_THROW(run_experiment(c), ConfigError);
}

}  // namespace
}  // namespace dsslice
