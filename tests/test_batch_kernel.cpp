// Bit-identity and allocation contracts of the batch slicing kernel.
//
// The kernel's promise (batch/slice_kernel.hpp) is that for every scenario,
// every metric and ANY batch decomposition, its windows, pass indices, stats
// and min-laxities match the scalar pipeline bit-for-bit. All comparisons
// below go through std::bit_cast — an equality tolerance would hide exactly
// the class of bug the kernel must not have.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/core/quality.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/scenario_batch.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"

namespace dsslice {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The scalar pipeline exactly as evaluate_generated runs it before the
/// scheduler: estimate → mandatory scaling (imprecise workloads only) →
/// run_slicing with default options → min-laxity over the ORIGINAL
/// estimates.
struct ScalarResult {
  DeadlineAssignment assignment;
  SlicingStats stats;
  double outcome_min_laxity = 0.0;
};

ScalarResult scalar_slice(const Scenario& scenario,
                          const BatchSliceConfig& config) {
  const Application& app = scenario.application;
  std::vector<double> est;
  estimate_wcets_into(app, config.wcet_strategy, est);
  std::span<const double> slice_est = est;
  std::vector<double> mandatory;
  if (app.has_optional_work()) {
    mandatory_estimates_into(app, est, mandatory);
    slice_est = mandatory;
  }
  const DeadlineMetric metric(config.metric, config.params);
  ScalarResult r;
  r.assignment =
      run_slicing(app, slice_est, metric, scenario.platform.processor_count(),
                  &r.stats);
  r.outcome_min_laxity = min_laxity(r.assignment, est);
  return r;
}

void expect_identical(const ScalarResult& want, const BatchSliceKernel& kernel,
                      std::size_t k, const std::string& label) {
  SCOPED_TRACE(label);
  const DeadlineAssignment& got = kernel.assignment(k);
  ASSERT_EQ(got.windows.size(), want.assignment.windows.size());
  for (std::size_t v = 0; v < got.windows.size(); ++v) {
    EXPECT_EQ(bits(got.windows[v].arrival),
              bits(want.assignment.windows[v].arrival))
        << "arrival of task " << v;
    EXPECT_EQ(bits(got.windows[v].deadline),
              bits(want.assignment.windows[v].deadline))
        << "deadline of task " << v;
    EXPECT_EQ(got.pass_of[v], want.assignment.pass_of[v])
        << "pass of task " << v;
  }
  EXPECT_EQ(kernel.stats(k).passes, want.stats.passes);
  EXPECT_EQ(bits(kernel.stats(k).first_path_metric),
            bits(want.stats.first_path_metric));
  EXPECT_EQ(kernel.stats(k).first_path_length, want.stats.first_path_length);
  EXPECT_EQ(bits(kernel.stats(k).min_laxity), bits(want.stats.min_laxity));
  EXPECT_EQ(kernel.stats(k).windows_feasible, want.stats.windows_feasible);
  EXPECT_EQ(bits(kernel.outcome_min_laxity(k)),
            bits(want.outcome_min_laxity));
}

GeneratorConfig small_config(std::uint64_t seed) {
  GeneratorConfig config;
  config.base_seed = seed;
  return config;
}

GeneratorConfig large_config(std::uint64_t seed) {
  GeneratorConfig config;
  config.base_seed = seed;
  config.workload.min_tasks = 120;
  config.workload.max_tasks = 140;
  config.workload.edge_locality = EdgeLocality::kAnyEarlierLevel;
  return config;
}

GeneratorConfig imprecise_config(std::uint64_t seed) {
  GeneratorConfig config;
  config.base_seed = seed;
  config.workload.min_optional_fraction = 0.1;
  config.workload.max_optional_fraction = 0.4;
  return config;
}

TEST(BatchKernelTest, MatchesScalarPipelineForEveryMetric) {
  ScenarioBatch batch;
  batch.generate(small_config(0xBA7C), 0, 12);
  BatchSliceKernel kernel;
  for (const MetricKind metric : all_metric_kinds()) {
    BatchSliceConfig config;
    config.metric = metric;
    kernel.run(batch.scenarios(), config);
    ASSERT_EQ(kernel.size(), batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_identical(scalar_slice(batch[k], config), kernel, k,
                       to_string(metric) + "/scenario " + std::to_string(k));
    }
  }
}

TEST(BatchKernelTest, MatchesScalarOnLargeSkipLevelGraphs) {
  ScenarioBatch batch;
  batch.generate(large_config(0x1A26E), 0, 6);
  BatchSliceKernel kernel;
  for (const MetricKind metric :
       {MetricKind::kAdaptL, MetricKind::kNorm}) {
    BatchSliceConfig config;
    config.metric = metric;
    kernel.run(batch.scenarios(), config);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_identical(scalar_slice(batch[k], config), kernel, k,
                       to_string(metric) + "/large scenario " +
                           std::to_string(k));
    }
  }
}

TEST(BatchKernelTest, MatchesScalarOnImpreciseWorkloads) {
  ScenarioBatch batch;
  batch.generate(imprecise_config(0x0771), 0, 8);
  BatchSliceKernel kernel;
  BatchSliceConfig config;
  config.metric = MetricKind::kAdaptL;
  kernel.run(batch.scenarios(), config);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    expect_identical(scalar_slice(batch[k], config), kernel, k,
                     "imprecise scenario " + std::to_string(k));
  }
}

/// Precise scenarios peel straight from the estimate buffer, imprecise ones
/// from the mandatory-demand buffer: one span alternating the two must match
/// the scalar pipeline on every scenario, whichever buffer its neighbour
/// used.
TEST(BatchKernelTest, MixedPreciseAndImpreciseSpanMatchesScalar) {
  ScenarioBatch precise;
  precise.generate(small_config(0x313D), 0, 4);
  ScenarioBatch imprecise;
  imprecise.generate(imprecise_config(0x313E), 0, 4);
  std::vector<Scenario> mixed;
  for (std::size_t k = 0; k < precise.size(); ++k) {
    mixed.push_back(precise[k]);
    mixed.push_back(imprecise[k]);
  }
  ASSERT_FALSE(mixed[0].application.has_optional_work());
  ASSERT_TRUE(mixed[1].application.has_optional_work());
  BatchSliceKernel kernel;
  for (const MetricKind metric : all_metric_kinds()) {
    BatchSliceConfig config;
    config.metric = metric;
    kernel.run(mixed, config);
    ASSERT_EQ(kernel.size(), mixed.size());
    for (std::size_t k = 0; k < mixed.size(); ++k) {
      expect_identical(scalar_slice(mixed[k], config), kernel, k,
                       to_string(metric) + "/mixed scenario " +
                           std::to_string(k));
    }
  }
}

TEST(BatchKernelTest, MatchesScalarWithTemporalParallelSets) {
  ScenarioBatch batch;
  batch.generate(small_config(0x7E49), 0, 6);
  BatchSliceKernel kernel;
  BatchSliceConfig config;
  config.metric = MetricKind::kAdaptL;
  config.params.temporal_parallel_sets = true;
  kernel.run(batch.scenarios(), config);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    expect_identical(scalar_slice(batch[k], config), kernel, k,
                     "temporal scenario " + std::to_string(k));
  }
}

TEST(BatchKernelTest, MatchesScalarForWcetStrategies) {
  ScenarioBatch batch;
  batch.generate(small_config(0x3C47), 0, 6);
  BatchSliceKernel kernel;
  for (const WcetEstimation strategy :
       {WcetEstimation::kAverage, WcetEstimation::kMax, WcetEstimation::kMin}) {
    BatchSliceConfig config;
    config.wcet_strategy = strategy;
    kernel.run(batch.scenarios(), config);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_identical(scalar_slice(batch[k], config), kernel, k,
                       to_string(strategy) + "/scenario " +
                           std::to_string(k));
    }
  }
}

/// A scenario's result may not depend on its batch neighbours: alone, first,
/// mid-batch, last, odd batch sizes, one batch spanning everything.
TEST(BatchKernelTest, BatchBoundariesNeverPerturbResults) {
  ScenarioBatch batch;
  batch.generate(small_config(0xB0DD), 0, 7);
  BatchSliceConfig config;
  config.metric = MetricKind::kAdaptL;

  // Golden: every scenario through a B=1 batch.
  std::vector<ScalarResult> golden;
  BatchSliceKernel solo;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    golden.push_back(scalar_slice(batch[k], config));
    solo.run(batch.scenarios().subspan(k, 1), config);
    expect_identical(golden[k], solo, 0, "solo scenario " + std::to_string(k));
  }

  // One batch over everything (B > any shard the sweep would form).
  BatchSliceKernel all;
  all.run(batch.scenarios(), config);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    expect_identical(golden[k], all, k, "full batch scenario " +
                                            std::to_string(k));
  }

  // Odd split: batches of 3 / 3 / 1 — every position (first, middle, last,
  // singleton) is exercised.
  BatchSliceKernel odd;
  std::size_t base = 0;
  for (const std::size_t size : {3u, 3u, 1u}) {
    odd.run(batch.scenarios().subspan(base, size), config);
    for (std::size_t k = 0; k < size; ++k) {
      expect_identical(golden[base + k], odd, k,
                       "odd split scenario " + std::to_string(base + k));
    }
    base += size;
  }
}

TEST(BatchKernelTest, WarmRerunsAllocateNothing) {
  ScenarioBatch batch;
  batch.generate(small_config(0x9A03), 0, 10);
  BatchSliceKernel kernel;
  BatchSliceConfig config;
  config.metric = MetricKind::kAdaptL;

  kernel.run(batch.scenarios(), config);  // cold: growth expected
  const std::uint64_t warm = kernel.grow_events();
  for (int rep = 0; rep < 3; ++rep) {
    kernel.run(batch.scenarios(), config);
    EXPECT_EQ(kernel.grow_events(), warm) << "rep " << rep;
  }
  // Smaller batches of already-seen scenarios must not grow either.
  kernel.run(batch.scenarios().subspan(2, 5), config);
  EXPECT_EQ(kernel.grow_events(), warm);
  // Metric changes swap code paths, not shapes.
  for (const MetricKind metric : all_metric_kinds()) {
    BatchSliceConfig other = config;
    other.metric = metric;
    kernel.run(batch.scenarios(), other);
  }
  EXPECT_EQ(kernel.grow_events(), warm);
}

TEST(BatchKernelTest, EmptyBatchIsANoOp) {
  BatchSliceKernel kernel;
  kernel.run({}, BatchSliceConfig{});
  EXPECT_EQ(kernel.size(), 0u);
  EXPECT_EQ(kernel.grow_events(), 0u);
}

}  // namespace
}  // namespace dsslice
