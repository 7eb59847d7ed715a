#include <gtest/gtest.h>

#include <optional>

#include "dsslice/core/critical_path.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

std::optional<CriticalPath> find(const Application& app,
                                 const AnchorState& anchors,
                                 const std::vector<double>& weights,
                                 const DeadlineMetric& metric) {
  CriticalPath path;
  if (!CriticalPathSearch().find(app.graph(), app.analysis(), anchors,
                                 weights, metric, path)) {
    return std::nullopt;
  }
  return path;
}

TEST(CriticalPath, ChainIsItsOwnCriticalPath) {
  const Application app = testing::make_chain(4, 10.0, 100.0);
  const AnchorState anchors(app);
  const std::vector<double> w{10.0, 10.0, 10.0, 10.0};
  const auto path = find(app, anchors, w, DeadlineMetric(MetricKind::kPure));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(path->window_start, 0.0);
  EXPECT_DOUBLE_EQ(path->window_end, 100.0);
  EXPECT_DOUBLE_EQ(path->window_length(), 100.0);
  // R = (100 - 40)/4 = 15.
  EXPECT_DOUBLE_EQ(path->metric_value, 15.0);
}

TEST(CriticalPath, DiamondPicksHeavierBranch) {
  // mid_b is heavier, so the path through it has lower laxity ratio.
  const Application app = testing::make_diamond(10.0, 5.0, 25.0, 10.0, 100.0);
  const AnchorState anchors(app);
  const std::vector<double> w{10.0, 5.0, 25.0, 10.0};
  const auto path = find(app, anchors, w, DeadlineMetric(MetricKind::kPure));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(CriticalPath, NegativeLaxityPathIsMostCritical) {
  // Branch b cannot fit its window: it must be selected first.
  const Application app = testing::make_diamond(10.0, 5.0, 200.0, 10.0, 100.0);
  const AnchorState anchors(app);
  const std::vector<double> w{10.0, 5.0, 200.0, 10.0};
  const auto path = find(app, anchors, w, DeadlineMetric(MetricKind::kNorm));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_LT(path->metric_value, 0.0);
}

TEST(CriticalPath, SecondIterationUsesAnchors) {
  const Application app = testing::make_diamond(10.0, 5.0, 25.0, 10.0, 100.0);
  AnchorState anchors(app);
  const std::vector<double> w{10.0, 5.0, 25.0, 10.0};
  const DeadlineMetric metric(MetricKind::kPure);
  // Assign the spine 0 → 2 → 3 manually with boundaries 20 / 65.
  anchors.mark_assigned(0, Window{0.0, 20.0});
  anchors.mark_assigned(2, Window{20.0, 65.0});
  anchors.mark_assigned(3, Window{65.0, 100.0});
  anchors.tighten_arrival(1, 20.0);   // successor of task 0's window
  anchors.tighten_deadline(1, 65.0);  // predecessor of task 3's window
  const auto path = find(app, anchors, w, metric);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{1}));
  EXPECT_DOUBLE_EQ(path->window_start, 20.0);
  EXPECT_DOUBLE_EQ(path->window_end, 65.0);
}

TEST(CriticalPath, ReturnsNulloptWhenAllAssigned) {
  const Application app = testing::make_chain(2, 10.0, 100.0);
  AnchorState anchors(app);
  anchors.mark_assigned(0, Window{0.0, 50.0});
  anchors.mark_assigned(1, Window{50.0, 100.0});
  const std::vector<double> w{10.0, 10.0};
  EXPECT_FALSE(
      find(app, anchors, w, DeadlineMetric(MetricKind::kPure)).has_value());
}

TEST(CriticalPath, MultipleSourcesAndSinks) {
  // Two independent chains with different tightness: the tighter one wins.
  ApplicationBuilder b;
  const NodeId a0 = b.add_uniform_task("a0", 10.0);
  const NodeId a1 = b.add_uniform_task("a1", 10.0);
  const NodeId b0 = b.add_uniform_task("b0", 10.0);
  const NodeId b1 = b.add_uniform_task("b1", 10.0);
  b.add_precedence(a0, a1);
  b.add_precedence(b0, b1);
  b.set_input_arrival(a0, 0.0);
  b.set_input_arrival(b0, 0.0);
  b.set_ete_deadline(a1, 200.0);  // loose
  b.set_ete_deadline(b1, 25.0);   // tight
  const Application app = b.build();
  const AnchorState anchors(app);
  const std::vector<double> w{10.0, 10.0, 10.0, 10.0};
  const auto path = find(app, anchors, w, DeadlineMetric(MetricKind::kPure));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{b0, b1}));
  EXPECT_DOUBLE_EQ(path->window_end, 25.0);
}

TEST(CriticalPath, DeterministicTieBreak) {
  // Perfectly symmetric diamond: the tie must break to the lower node id.
  const Application app = testing::make_diamond(10.0, 15.0, 15.0, 10.0, 90.0);
  const AnchorState anchors(app);
  const std::vector<double> w{10.0, 15.0, 15.0, 10.0};
  const auto p1 = find(app, anchors, w, DeadlineMetric(MetricKind::kPure));
  const auto p2 = find(app, anchors, w, DeadlineMetric(MetricKind::kPure));
  ASSERT_TRUE(p1.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p1->nodes, p2->nodes);
  EXPECT_EQ(p1->nodes, (std::vector<NodeId>{0, 1, 3}));
}

}  // namespace
}  // namespace dsslice
