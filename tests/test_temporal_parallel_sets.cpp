// The temporally-filtered parallel sets (MetricParams::temporal_parallel_sets)
// — the ADAPT-LT refinement motivated by the planning-cycle ablation A13.
#include <gtest/gtest.h>

#include "dsslice/core/metrics.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/sched/planning_cycle.hpp"
#include "dsslice/sched/validation.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

// ADAPT-L weights under `params`.
std::vector<double> adapt_l_weights(const MetricParams& params,
                                    const Application& app,
                                    std::span<const double> est,
                                    std::size_t processor_count) {
  return testing::weights(DeadlineMetric(MetricKind::kAdaptL, params), app,
                          est, processor_count);
}

TEST(TemporalParallelSets, NoEffectWhenFramesOverlap) {
  // Single-shot diamond: both mids share one time frame, so the filter
  // changes nothing.
  const Application app = testing::make_diamond(10.0, 30.0, 30.0, 10.0,
                                                200.0);
  const std::vector<double> est{10.0, 30.0, 30.0, 10.0};
  MetricParams plain;
  MetricParams temporal;
  temporal.temporal_parallel_sets = true;
  const auto w_plain = adapt_l_weights(plain, app, est, 2);
  const auto w_temporal = adapt_l_weights(temporal, app, est, 2);
  EXPECT_EQ(w_plain, w_temporal);
}

TEST(TemporalParallelSets, PrunesTemporallyDisjointComponents) {
  // Two disconnected chains whose frames cannot overlap: chain X must
  // finish by 50, chain Y arrives at 100. Structurally they are parallel;
  // temporally they never contend.
  ApplicationBuilder b;
  const NodeId x0 = b.add_uniform_task("x0", 20.0);
  const NodeId x1 = b.add_uniform_task("x1", 20.0);
  const NodeId y0 = b.add_uniform_task("y0", 20.0);
  const NodeId y1 = b.add_uniform_task("y1", 20.0);
  b.add_precedence(x0, x1);
  b.add_precedence(y0, y1);
  b.set_input_arrival(x0, 0.0);
  b.set_input_arrival(y0, 100.0);
  b.set_ete_deadline(x1, 50.0);
  b.set_ete_deadline(y1, 180.0);
  const Application app = b.build();
  const std::vector<double> est{20.0, 20.0, 20.0, 20.0};

  MetricParams plain;
  const auto w_plain = adapt_l_weights(plain, app, est, 2);
  // Structurally each task has |Ψ| = 2 (the other chain).
  EXPECT_DOUBLE_EQ(w_plain[x0], 20.0 * (1.0 + 0.2 * 2.0 / 2.0));

  MetricParams temporal;
  temporal.temporal_parallel_sets = true;
  const auto w_temporal = adapt_l_weights(temporal, app, est, 2);
  // Temporally no rivals remain: frames [0,50] and [100,180] are disjoint.
  EXPECT_DOUBLE_EQ(w_temporal[x0], 20.0);
  EXPECT_DOUBLE_EQ(w_temporal[y0], 20.0);
  EXPECT_DOUBLE_EQ(w_temporal[x1], 20.0);
  EXPECT_DOUBLE_EQ(w_temporal[y1], 20.0);
}

TEST(TemporalParallelSets, PartialOverlapKeepsTheRival) {
  ApplicationBuilder b;
  const NodeId x = b.add_uniform_task("x", 20.0);
  const NodeId y = b.add_uniform_task("y", 20.0);
  b.set_input_arrival(x, 0.0);
  b.set_input_arrival(y, 30.0);
  b.set_ete_deadline(x, 50.0);   // frame [0, 50]
  b.set_ete_deadline(y, 100.0);  // frame [30, 100] — overlaps [30, 50)
  const Application app = b.build();
  const std::vector<double> est{20.0, 20.0};
  MetricParams temporal;
  temporal.temporal_parallel_sets = true;
  const auto w = adapt_l_weights(temporal, app, est, 1);
  EXPECT_DOUBLE_EQ(w[x], 20.0 * (1.0 + 0.2 * 1.0 / 1.0));
  EXPECT_DOUBLE_EQ(w[y], w[x]);
}

TEST(TemporalParallelSets, ImprovesUnrolledPlanningCycles) {
  // The A13 mechanism at unit-test scale: two invocations of one chain in
  // one planning cycle. Plain ADAPT-L counts the other invocation as a
  // rival; the temporal filter does not (their frames are the two periods).
  ApplicationBuilder b;
  const NodeId t0 = b.add_uniform_task("t0", 10.0, 0.0, 50.0);
  const NodeId t1 = b.add_uniform_task("t1", 25.0, 0.0, 50.0);
  b.add_precedence(t0, t1);
  b.set_input_arrival(t0, 0.0);
  b.set_ete_deadline(t1, 45.0);
  // Independent second component at double the period forces 2 invocations
  // of the first within the hyperperiod.
  const NodeId s0 = b.add_uniform_task("s0", 10.0, 0.0, 100.0);
  b.set_input_arrival(s0, 0.0);
  b.set_ete_deadline(s0, 90.0);
  const Application app = b.build();
  const ExpandedApplication expanded = expand_planning_cycle(app);
  ASSERT_EQ(expanded.app.task_count(), 5u);  // 2×(t0,t1) + 1×s0

  const auto est = estimate_wcets(expanded.app, WcetEstimation::kAverage);
  MetricParams plain;
  MetricParams temporal;
  temporal.temporal_parallel_sets = true;
  const auto w_plain = adapt_l_weights(plain, expanded.app, est, 1);
  const auto w_temporal = adapt_l_weights(temporal, expanded.app, est, 1);
  // t1 of invocation 1 (frame ⊆ [0,45]) vs t1 of invocation 2 (frame ⊆
  // [50,95]): plain counts 3 rivals (other invocation's two tasks + s0),
  // temporal only s0 (whose frame [0,90] spans both periods).
  const NodeId t1_inv1 = 2;  // expansion order: t0#1, t0#2, t1#1, t1#2, s0
  EXPECT_GT(w_plain[t1_inv1], w_temporal[t1_inv1]);
  EXPECT_DOUBLE_EQ(w_temporal[t1_inv1], 25.0 * (1.0 + 0.2 * 1.0 / 1.0));
}

TEST(TemporalParallelSets, SlicedWindowsStillValid) {
  const Scenario sc = generate_scenario_at(testing::paper_generator(37), 0);
  const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
  MetricParams temporal;
  temporal.temporal_parallel_sets = true;
  const auto a = run_slicing(sc.application, est,
                             DeadlineMetric(MetricKind::kAdaptL, temporal),
                             sc.platform.processor_count());
  EXPECT_TRUE(validate_assignment(sc.application, a).empty());
}

}  // namespace
}  // namespace dsslice
