#include <gtest/gtest.h>

#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/util/check.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

TEST(ApplicationBuilder, BuildsChain) {
  const Application app = testing::make_chain(3, 10.0, 100.0);
  EXPECT_EQ(app.task_count(), 3u);
  EXPECT_EQ(app.graph().arc_count(), 2u);
  EXPECT_DOUBLE_EQ(app.input_arrival(0), 0.0);
  EXPECT_TRUE(app.has_ete_deadline(2));
  EXPECT_DOUBLE_EQ(app.ete_deadline(2), 100.0);
  EXPECT_FALSE(app.has_ete_deadline(2 - 1));
}

TEST(ApplicationBuilder, UniformTasksExpandToClassCount) {
  ApplicationBuilder b;
  const NodeId a = b.add_uniform_task("a", 5.0);
  const NodeId z = b.add_task("z", {4.0, 6.0});
  b.add_precedence(a, z);
  b.set_ete_deadline(z, 50.0);
  const Application app = b.build(2);
  EXPECT_EQ(app.task(a).wcet_by_class.size(), 2u);
  EXPECT_DOUBLE_EQ(app.task(a).wcet(0), 5.0);
  EXPECT_DOUBLE_EQ(app.task(a).wcet(1), 5.0);
  EXPECT_DOUBLE_EQ(app.task(z).wcet(1), 6.0);
}

TEST(ApplicationBuilder, ClassCountMismatchThrows) {
  ApplicationBuilder b;
  b.add_task("t", {1.0, 2.0});
  EXPECT_THROW(b.build(3), ConfigError);
}

TEST(ApplicationBuilder, BuildRejectsMalformedPrecedences) {
  // Arcs reach the graph in one bulk hand-over at build().
  const auto build_with = [](NodeId from, NodeId to, double items) {
    ApplicationBuilder b;
    const NodeId x = b.add_uniform_task("x", 1.0);
    const NodeId y = b.add_uniform_task("y", 1.0);
    b.add_precedence(x, y);
    b.add_precedence(from, to, items);
    return b.build();
  };
  EXPECT_THROW(build_with(0, 1, 0.0), ConfigError);   // parallel arc
  EXPECT_THROW(build_with(1, 1, 0.0), ConfigError);   // self loop
  EXPECT_THROW(build_with(1, 2, 0.0), ConfigError);   // out of range
  EXPECT_THROW(build_with(1, 0, -1.0), ConfigError);  // negative message
  EXPECT_EQ(build_with(1, 0, 2.0).graph().arc_count(), 2u);  // a cycle builds
}

TEST(Application, SettersEnforceRoles) {
  Application app = testing::make_diamond(5.0, 5.0, 5.0, 5.0, 100.0);
  // Node 1 (mid_a) is neither input nor output.
  EXPECT_THROW(app.set_input_arrival(1, 0.0), ConfigError);
  EXPECT_THROW(app.set_ete_deadline(1, 10.0), ConfigError);
  EXPECT_THROW(app.set_ete_deadline(3, -5.0), ConfigError);
  EXPECT_THROW(app.set_input_arrival(0, -1.0), ConfigError);
}

TEST(Application, TotalWorkload) {
  const Application app = testing::make_chain(4, 10.0, 100.0);
  const std::vector<double> est{10.0, 10.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(app.total_workload(est), 40.0);
  EXPECT_THROW(app.total_workload(std::vector<double>{1.0}), ConfigError);
}

TEST(ApplicationValidate, AcceptsWellFormed) {
  const Application app = testing::make_chain(3, 10.0, 100.0);
  EXPECT_TRUE(app.validate(Platform::identical(2)).empty());
  EXPECT_NO_THROW(app.validate_or_throw(Platform::identical(2)));
}

TEST(ApplicationValidate, ReportsMissingDeadline) {
  ApplicationBuilder b;
  const NodeId a = b.add_uniform_task("a", 5.0);
  const NodeId z = b.add_uniform_task("z", 5.0);
  b.add_precedence(a, z);
  const Application app = b.build();  // no E-T-E deadline on z
  const auto problems = app.validate(Platform::identical(1));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("E-T-E deadline"), std::string::npos);
  EXPECT_THROW(app.validate_or_throw(Platform::identical(1)), ConfigError);
}

TEST(ApplicationValidate, ReportsClassMismatchAndIneligibility) {
  ApplicationBuilder b;
  const NodeId a = b.add_task("a", {5.0, 6.0});
  b.set_ete_deadline(a, 50.0);
  const Application app = b.build(2);
  // Platform with one class: WCET vector width mismatch.
  const auto p1 = app.validate(Platform::identical(1));
  EXPECT_FALSE(p1.empty());

  ApplicationBuilder b2;
  const NodeId x = b2.add_task("x", {kIneligibleWcet, kIneligibleWcet});
  b2.set_ete_deadline(x, 50.0);
  const Application app2 = b2.build(2);
  const Platform plat = Platform::shared_bus(
      {ProcessorClass{"e0", 1.0}, ProcessorClass{"e1", 1.0}}, {0, 1});
  const auto p2 = app2.validate(plat);
  EXPECT_FALSE(p2.empty());
}

TEST(ApplicationValidate, ReportsUnpopulatedEligibleClass) {
  // Task eligible only on class 1, but no processor of class 1 exists.
  ApplicationBuilder b;
  const NodeId x = b.add_task("x", {kIneligibleWcet, 7.0});
  b.set_ete_deadline(x, 50.0);
  const Application app = b.build(2);
  const Platform plat = Platform::shared_bus(
      {ProcessorClass{"e0", 1.0}, ProcessorClass{"e1", 1.0}}, {0, 0});
  const auto problems = app.validate(plat);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("no processor"), std::string::npos);
}

TEST(Application, CopyKeepsItsAnalysisAcrossRebuildSwap) {
  Application app = testing::make_diamond(1.0, 2.0, 3.0, 1.0, 20.0);
  const GraphAnalysis* first = &app.analysis();
  const Application copy = app;
  const Application chain = testing::make_chain(6, 2.0, 30.0);
  TaskGraph graph = chain.graph();
  std::vector<Task> tasks = chain.tasks();
  app.rebuild_swap(graph, tasks);

  // The copy still shares the old analysis, so rebuild_swap must not
  // recycle it: the copy keeps the same object with the diamond's facts.
  EXPECT_NE(&app.analysis(), first);
  EXPECT_EQ(app.analysis().node_count(), 6u);
  const GraphAnalysis& kept = copy.analysis();
  EXPECT_EQ(&kept, first);
  ASSERT_EQ(kept.node_count(), 4u);
  EXPECT_EQ(copy.graph().arc_count(), 4u);
  EXPECT_TRUE(kept.reaches(0, 3));
  EXPECT_FALSE(kept.ordered(1, 2));
  EXPECT_EQ(testing::walked_parallel_set(kept, 1), std::vector<NodeId>{2});
  EXPECT_EQ(copy.graph().node_count(), 4u);
}

}  // namespace
}  // namespace dsslice
