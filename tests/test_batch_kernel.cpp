// Bit-identity and allocation contracts of the batch slicing kernel.
//
// The kernel's promise (batch/slice_kernel.hpp) is that for every scenario,
// every metric and ANY batch decomposition, its windows, pass indices, stats
// and min-laxities match the scalar pipeline bit-for-bit. All comparisons
// below go through std::bit_cast — an equality tolerance would hide exactly
// the class of bug the kernel must not have.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
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
  for (const MetricKind metric : all_metric_kinds()) {
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

/// A hand-built scenario on two processor classes (three processors), so
/// the estimates and the adaptive weights differ per task.
Scenario hand_built(ApplicationBuilder& b) {
  return Scenario{Platform::shared_bus({ProcessorClass{"e0", 1.0},
                                        ProcessorClass{"e1", 1.5}},
                                       {0, 1, 1}),
                  b.build(2)};
}

void expect_kernel_matches_scalar(const Scenario& scenario,
                                  const std::string& label) {
  BatchSliceKernel kernel;
  for (const MetricKind metric : all_metric_kinds()) {
    BatchSliceConfig config;
    config.metric = metric;
    kernel.run(std::span<const Scenario>(&scenario, 1), config);
    expect_identical(scalar_slice(scenario, config), kernel, 0,
                     label + "/" + to_string(metric));
  }
}

/// The kernel's live neighbour lists start as the graph's CSR, which keeps
/// arc insertion order. Arcs added in descending (from, to) order make every
/// list run against node-id order.
TEST(BatchKernelTest, MatchesScalarWhenCsrOrderRunsAgainstIdOrder) {
  ApplicationBuilder b;
  const std::vector<std::vector<double>> wcets = {
      {3, 5}, {4, 4}, {6, 2}, {5, 7}, {2, 3},
      {8, 6}, {4, 5}, {3, 9}, {6, 4}, {2, 2}};
  for (std::size_t i = 0; i < wcets.size(); ++i) {
    b.add_task("t" + std::to_string(i), wcets[i]);
  }
  std::vector<std::pair<NodeId, NodeId>> arcs = {
      {0, 3}, {0, 4}, {0, 7}, {1, 3}, {1, 4}, {1, 5}, {2, 4}, {2, 5},
      {3, 6}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 8}, {6, 9}, {7, 8},
      {7, 9}};
  std::sort(arcs.rbegin(), arcs.rend());
  for (const auto& [from, to] : arcs) {
    b.add_precedence(from, to);
  }
  b.set_input_arrival(0, 0.0);
  b.set_input_arrival(1, 2.0);
  b.set_input_arrival(2, 1.0);
  b.set_ete_deadline(8, 60.0);
  b.set_ete_deadline(9, 55.0);
  const Scenario scenario = hand_built(b);
  const TaskGraph& g = scenario.application.graph();
  ASSERT_EQ(g.predecessors(6)[0], 5u);  // CSR order, not id order
  ASSERT_EQ(g.successors(4)[0], 7u);
  expect_kernel_matches_scalar(scenario, "descending arcs");
}

/// Two identical sources feed one node: their candidates tie on score and
/// Σw, so the smaller predecessor id must win although the CSR lists the
/// larger one first. The loser becomes a Π-sink of a later pass.
TEST(BatchKernelTest, MatchesScalarWhenPrevDecidesForwardTies) {
  ApplicationBuilder b;
  const NodeId s0 = b.add_task("s0", {4, 6});
  const NodeId s1 = b.add_task("s1", {4, 6});
  const NodeId mid = b.add_task("mid", {5, 3});
  const NodeId out = b.add_task("out", {2, 4});
  b.add_precedence(s1, mid);
  b.add_precedence(s0, mid);
  b.add_precedence(mid, out);
  b.set_input_arrival(s0, 0.0);
  b.set_input_arrival(s1, 0.0);
  b.set_ete_deadline(out, 30.0);
  const Scenario scenario = hand_built(b);
  ASSERT_EQ(scenario.application.graph().predecessors(mid)[0], s1);
  for (const MetricKind metric : all_metric_kinds()) {
    BatchSliceConfig config;
    config.metric = metric;
    const ScalarResult want = scalar_slice(scenario, config);
    EXPECT_EQ(want.assignment.pass_of[s0], 0) << to_string(metric);
    EXPECT_EQ(want.assignment.pass_of[s1], 1) << to_string(metric);
  }
  expect_kernel_matches_scalar(scenario, "prev tie");
}

/// Skip arcs whose both ends land on the same spine: the propagation after
/// that pass must treat the spine neighbours as assigned, not anchor them.
TEST(BatchKernelTest, MatchesScalarWithSkipArcsInsideOneSpine) {
  ApplicationBuilder b;
  std::vector<NodeId> chain;
  for (int i = 0; i < 5; ++i) {
    chain.push_back(b.add_task("c" + std::to_string(i), {10, 12}));
  }
  const NodeId side = b.add_task("side", {1, 2});
  b.add_chain(chain);
  b.add_precedence(chain[0], chain[2]);
  b.add_precedence(chain[1], chain[3]);
  b.add_precedence(chain[0], chain[4]);
  b.add_precedence(chain[2], chain[4]);
  b.add_precedence(chain[1], side);
  b.add_precedence(side, chain[4]);
  b.set_input_arrival(chain[0], 0.0);
  b.set_ete_deadline(chain[4], 70.0);
  const Scenario scenario = hand_built(b);
  for (const MetricKind metric : all_metric_kinds()) {
    BatchSliceConfig config;
    config.metric = metric;
    const ScalarResult want = scalar_slice(scenario, config);
    for (const NodeId v : chain) {
      EXPECT_EQ(want.assignment.pass_of[v], 0) << to_string(metric);
    }
  }
  expect_kernel_matches_scalar(scenario, "skip arcs");
}

/// Nodes whose every successor sits on an earlier spine turn into Π-sinks
/// mid-run, with the deadline anchor that spine gave them.
TEST(BatchKernelTest, MatchesScalarWhenNodesBecomeSinksMidRun) {
  ApplicationBuilder b;
  std::vector<NodeId> chain;
  for (int i = 0; i < 4; ++i) {
    chain.push_back(b.add_task("c" + std::to_string(i), {9, 11}));
  }
  const NodeId feeder = b.add_task("feeder", {2, 1});
  const NodeId fork = b.add_task("fork", {1, 3});
  b.add_chain(chain);
  b.add_precedence(feeder, chain[2]);
  b.add_precedence(fork, chain[1]);
  b.add_precedence(fork, chain[3]);
  b.set_input_arrival(chain[0], 0.0);
  b.set_input_arrival(feeder, 3.0);
  b.set_input_arrival(fork, 5.0);
  b.set_ete_deadline(chain[3], 60.0);
  const Scenario scenario = hand_built(b);
  for (const MetricKind metric : all_metric_kinds()) {
    BatchSliceConfig config;
    config.metric = metric;
    const ScalarResult want = scalar_slice(scenario, config);
    for (const NodeId v : chain) {
      EXPECT_EQ(want.assignment.pass_of[v], 0) << to_string(metric);
    }
    EXPECT_GT(want.assignment.pass_of[feeder], 0) << to_string(metric);
    EXPECT_GT(want.assignment.pass_of[fork], 0) << to_string(metric);
  }
  expect_kernel_matches_scalar(scenario, "mid-run sinks");
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
