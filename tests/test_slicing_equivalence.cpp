// Golden-equivalence suite for the shared graph-analysis cache.
//
// The cached hot path (Application::analysis + DeadlineMetric::weights_into +
// the workspace-backed slicing loop) must be *bit-identical* to the original
// per-call implementation: same weights, same critical paths, same windows.
// The reference computations below deliberately re-derive everything from
// scratch with algorithms::topological_order and breadth-first parallel
// sets (testing::bfs_parallel_set), as the pre-cache code did, so they share
// no code with GraphAnalysis. They are the repo's only copy of the pre-cache
// algorithms: the perf harnesses time the cached path against in-library
// references, so this suite is what still proves the cache bit-identical.
// It stays until a committed golden-digest corpus covers the same cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/core/metrics.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "dsslice/model/resources.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

/// The legacy weights algorithm: builds a fresh topological order per call
/// and materializes every parallel set by breadth-first search.
std::vector<double> legacy_weights(const DeadlineMetric& metric,
                                   const Application& app,
                                   std::span<const double> est_wcet,
                                   std::size_t processor_count,
                                   const ResourceModel* resources) {
  const MetricParams& params = metric.params();
  std::vector<double> w(est_wcet.begin(), est_wcet.end());
  if (!metric.is_adaptive()) {
    return w;
  }
  const double threshold = metric.effective_threshold(est_wcet);
  const double m = static_cast<double>(processor_count);
  const TaskGraph& g = app.graph();

  if (metric.kind() == MetricKind::kAdaptG) {
    const double xi = average_parallelism(g, est_wcet);
    const double surplus = 1.0 + params.k_global * xi / m;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (est_wcet[i] >= threshold) {
        w[i] = est_wcet[i] * surplus;
      }
    }
    return w;
  }

  if (resources != nullptr) {
    for (NodeId i = 0; i < w.size(); ++i) {
      if (est_wcet[i] < threshold) {
        continue;
      }
      const std::vector<NodeId> parallel = testing::bfs_parallel_set(g, i);
      std::size_t resource_rivals = 0;
      for (const NodeId j : parallel) {
        if (resources->conflicts(i, j)) {
          ++resource_rivals;
        }
      }
      w[i] = est_wcet[i] *
             (1.0 + params.k_local * static_cast<double>(parallel.size()) / m +
              params.k_resource * static_cast<double>(resource_rivals));
    }
    return w;
  }

  std::vector<Time> est_start;
  std::vector<Time> lft_finish;
  if (params.temporal_parallel_sets) {
    const auto topo = topological_order(g);
    est_start.assign(w.size(), kTimeZero);
    lft_finish.assign(w.size(), kTimeInfinity);
    for (const NodeId v : *topo) {
      Time start = g.is_input(v) ? app.input_arrival(v) : kTimeZero;
      for (const NodeId u : g.predecessors(v)) {
        start = std::max(start, est_start[u] + est_wcet[u]);
      }
      est_start[v] = start;
    }
    for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
      const NodeId v = *it;
      Time finish = g.is_output(v) && app.has_ete_deadline(v)
                        ? app.ete_deadline(v)
                        : kTimeInfinity;
      for (const NodeId s : g.successors(v)) {
        finish = std::min(finish, lft_finish[s] - est_wcet[s]);
      }
      lft_finish[v] = finish;
    }
  }

  for (NodeId i = 0; i < w.size(); ++i) {
    if (est_wcet[i] < threshold) {
      continue;
    }
    const std::vector<NodeId> parallel = testing::bfs_parallel_set(g, i);
    double psi;
    if (params.temporal_parallel_sets) {
      std::size_t count = 0;
      for (const NodeId j : parallel) {
        if (est_start[j] < lft_finish[i] && est_start[i] < lft_finish[j]) {
          ++count;
        }
      }
      psi = static_cast<double>(count);
    } else {
      psi = static_cast<double>(parallel.size());
    }
    w[i] = est_wcet[i] * (1.0 + params.k_local * psi / m);
  }
  return w;
}

std::vector<std::uint64_t> kSeeds() { return {11, 22, 33, 44, 55}; }

TEST(SlicingEquivalence, WeightsBitIdenticalForAllMetrics) {
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const Application& app = sc.application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    for (const MetricKind kind : all_metric_kinds()) {
      const DeadlineMetric metric(kind);
      const std::vector<double> expected =
          legacy_weights(metric, app, est, m, nullptr);
      const std::vector<double> actual =
          testing::weights(metric, app, est, m);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << to_string(kind) << " seed " << seed << " task " << i;
      }
    }
  }
}

TEST(SlicingEquivalence, TemporalParallelSetsBitIdentical) {
  MetricParams params;
  params.temporal_parallel_sets = true;
  const DeadlineMetric metric(MetricKind::kAdaptL, params);
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    const std::vector<double> expected =
        legacy_weights(metric, sc.application, est, m, nullptr);
    const std::vector<double> actual =
        testing::weights(metric, sc.application, est, m);
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

TEST(SlicingEquivalence, ResourceAwareAdaptLBitIdentical) {
  const DeadlineMetric metric(MetricKind::kAdaptL);
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const Application& app = sc.application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    // A deterministic resource pattern: every third task shares r0, every
    // fifth shares r1 — enough overlap to exercise the conflict counting.
    ResourceModel resources(app.task_count(), 2);
    for (NodeId v = 0; v < app.task_count(); ++v) {
      if (v % 3 == 0) {
        resources.require(v, 0);
      }
      if (v % 5 == 0) {
        resources.require(v, 1);
      }
    }
    const std::vector<double> expected =
        legacy_weights(metric, app, est, m, &resources);
    const std::vector<double> actual =
        testing::weights(metric, app, est, m, &resources);
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

TEST(SlicingEquivalence, WorkspaceSlicingBitIdenticalToFreshSlicing) {
  SlicingWorkspace workspace;
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const Application& app = sc.application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    for (const MetricKind kind : all_metric_kinds()) {
      const DeadlineMetric metric(kind);
      SlicingStats fresh_stats;
      const DeadlineAssignment fresh =
          run_slicing(app, est, metric, m, &fresh_stats);

      SlicingOptions options;
      options.workspace = &workspace;  // reused across seeds AND metrics
      SlicingStats reused_stats;
      const DeadlineAssignment reused =
          run_slicing(app, est, metric, m, &reused_stats, options);

      ASSERT_EQ(reused.windows.size(), fresh.windows.size());
      for (NodeId v = 0; v < app.task_count(); ++v) {
        EXPECT_EQ(reused.windows[v].arrival, fresh.windows[v].arrival)
            << to_string(kind) << " seed " << seed << " task " << v;
        EXPECT_EQ(reused.windows[v].deadline, fresh.windows[v].deadline)
            << to_string(kind) << " seed " << seed << " task " << v;
      }
      EXPECT_EQ(reused.pass_of, fresh.pass_of);
      EXPECT_EQ(reused_stats.passes, fresh_stats.passes);
      EXPECT_EQ(reused_stats.min_laxity, fresh_stats.min_laxity);
    }
  }
}

TEST(SlicingEquivalence, CachedPathBuildsNoAnalysisAfterWarmup) {
  const Scenario sc = generate_scenario_at(testing::small_generator(77), 0);
  const Application& app = sc.application;
  const auto est = estimate_wcets(app, WcetEstimation::kAverage);
  const std::size_t m = sc.platform.processor_count();
  app.analysis();  // warm the cache

  const std::uint64_t before = GraphAnalysis::construction_count();
  for (const MetricKind kind : all_metric_kinds()) {
    const DeadlineMetric metric(kind);
    (void)testing::weights(metric, app, est, m);
    (void)run_slicing(app, est, metric, m);
  }
  EXPECT_EQ(GraphAnalysis::construction_count(), before)
      << "hot path rebuilt the analysis";
}

}  // namespace
}  // namespace dsslice
