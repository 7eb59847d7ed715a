// Slicing edge cases: anchor clamping across cross arcs, wide
// fan-in/fan-out structures, and multi-source/multi-sink anchoring.
#include <gtest/gtest.h>

#include "dsslice/core/slicing.hpp"
#include "dsslice/sched/validation.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

// A "ladder" with a cross arc between two parallel chains:
//   a0 → a1 → a2 (spine candidate)
//   b0 → b1 → a2 and a0 → b1 (cross arc!)
Application ladder() {
  ApplicationBuilder b;
  const NodeId a0 = b.add_uniform_task("a0", 10.0);
  const NodeId a1 = b.add_uniform_task("a1", 30.0);
  const NodeId a2 = b.add_uniform_task("a2", 10.0);
  const NodeId b0 = b.add_uniform_task("b0", 10.0);
  const NodeId b1 = b.add_uniform_task("b1", 10.0);
  b.add_chain({a0, a1, a2});
  b.add_precedence(b0, b1);
  b.add_precedence(b1, a2);
  b.add_precedence(a0, b1);  // cross arc
  b.set_input_arrival(a0, 0.0);
  b.set_input_arrival(b0, 0.0);
  b.set_ete_deadline(a2, 120.0);
  return b.build();
}

TEST(SlicingEdgeCases, CrossArcAnchorsAreClampedIntoWindows) {
  const Application app = ladder();
  const auto est = estimate_wcets(app, WcetEstimation::kAverage);
  for (const MetricKind kind : all_metric_kinds()) {
    const auto a = run_slicing(app, est, DeadlineMetric(kind), 2);
    const auto problems = validate_assignment(app, a);
    EXPECT_TRUE(problems.empty())
        << to_string(kind) << ": "
        << (problems.empty() ? "" : problems.front());
  }
}

TEST(SlicingEdgeCases, WideFanOutSlicesEveryBranch) {
  // 1 source → 12 parallel tasks → 1 sink on 3 processors.
  ApplicationBuilder b;
  const NodeId src = b.add_uniform_task("src", 10.0);
  std::vector<NodeId> mids;
  for (int i = 0; i < 12; ++i) {
    mids.push_back(b.add_uniform_task("m" + std::to_string(i),
                                      10.0 + i));  // distinct weights
    b.add_precedence(src, mids.back());
  }
  const NodeId sink = b.add_uniform_task("sink", 10.0);
  for (const NodeId mid : mids) {
    b.add_precedence(mid, sink);
  }
  b.set_input_arrival(src, 0.0);
  b.set_ete_deadline(sink, 300.0);
  const Application app = b.build();
  const auto est = estimate_wcets(app, WcetEstimation::kAverage);
  SlicingStats stats;
  const auto a = run_slicing(app, est, DeadlineMetric(MetricKind::kAdaptL),
                             3, &stats);
  EXPECT_TRUE(validate_assignment(app, a).empty());
  // All mids share the [src deadline, sink arrival] corridor.
  for (const NodeId mid : mids) {
    EXPECT_GE(a.windows[mid].arrival, a.windows[src].deadline - 1e-9);
    EXPECT_LE(a.windows[mid].deadline, a.windows[sink].arrival + 1e-9);
  }
  // Parallel branches are peeled one per pass after the spine.
  EXPECT_EQ(stats.passes, 12u);
}

TEST(SlicingEdgeCases, StaggeredInputArrivalsRespected) {
  ApplicationBuilder b;
  const NodeId early = b.add_uniform_task("early", 10.0);
  const NodeId late = b.add_uniform_task("late", 10.0);
  const NodeId join = b.add_uniform_task("join", 10.0);
  b.add_precedence(early, join);
  b.add_precedence(late, join);
  b.set_input_arrival(early, 0.0);
  b.set_input_arrival(late, 40.0);
  b.set_ete_deadline(join, 100.0);
  const Application app = b.build();
  const auto est = estimate_wcets(app, WcetEstimation::kAverage);
  const auto a = run_slicing(app, est, DeadlineMetric(MetricKind::kPure), 2);
  EXPECT_GE(a.windows[late].arrival, 40.0 - 1e-9);
  EXPECT_TRUE(validate_assignment(app, a).empty());
  // The join cannot arrive before the later branch finishes its window.
  EXPECT_GE(a.windows[join].arrival, a.windows[late].deadline - 1e-9);
}

TEST(SlicingEdgeCases, DisconnectedComponentsSliceIndependently) {
  ApplicationBuilder b;
  const NodeId x0 = b.add_uniform_task("x0", 10.0);
  const NodeId x1 = b.add_uniform_task("x1", 10.0);
  const NodeId y0 = b.add_uniform_task("y0", 20.0);
  b.add_precedence(x0, x1);
  b.set_input_arrival(x0, 0.0);
  b.set_input_arrival(y0, 0.0);
  b.set_ete_deadline(x1, 60.0);
  b.set_ete_deadline(y0, 35.0);
  const Application app = b.build();
  const auto est = estimate_wcets(app, WcetEstimation::kAverage);
  const auto a = run_slicing(app, est, DeadlineMetric(MetricKind::kNorm), 2);
  // Component budgets are independent: x-chain splits 60 proportionally,
  // y gets its whole window.
  EXPECT_DOUBLE_EQ(a.windows[x0].deadline, 30.0);
  EXPECT_DOUBLE_EQ(a.windows[x1].deadline, 60.0);
  EXPECT_DOUBLE_EQ(a.windows[y0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(a.windows[y0].deadline, 35.0);
}

TEST(SlicingEdgeCases, PassIndicesPartitionTheTaskSet) {
  const Scenario sc = generate_scenario_at(testing::paper_generator(31), 0);
  const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
  SlicingStats stats;
  SlicingTrace trace;
  SlicingOptions options;
  options.trace = &trace;
  const auto a = run_slicing(sc.application, est,
                             DeadlineMetric(MetricKind::kAdaptL),
                             sc.platform.processor_count(), &stats, options);
  // Each task appears on exactly one traced path, matching pass_of.
  std::vector<int> seen(sc.application.task_count(), -1);
  for (std::size_t k = 0; k < trace.passes.size(); ++k) {
    for (const NodeId v : trace.passes[k].path) {
      EXPECT_EQ(seen[v], -1) << "task " << v << " on two paths";
      seen[v] = static_cast<int>(k);
    }
  }
  for (NodeId v = 0; v < sc.application.task_count(); ++v) {
    EXPECT_EQ(seen[v], a.pass_of[v]);
  }
}

}  // namespace
}  // namespace dsslice
