#include <gtest/gtest.h>

#include <utility>

#include "dsslice/graph/task_graph.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {
namespace {

TEST(TaskGraph, ConstructionAndGrowth) {
  TaskGraph g(2);
  EXPECT_EQ(g.node_count(), 2u);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.arc_count(), 0u);
}

TEST(TaskGraph, ArcsAndNeighbourhoods) {
  TaskGraph g(4);
  g.add_arc(0, 1, 2.0);
  g.add_arc(0, 2);
  g.add_arc(1, 3, 5.0);
  g.add_arc(2, 3);
  EXPECT_EQ(g.arc_count(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_TRUE(g.has_arc(0, 1));
  EXPECT_FALSE(g.has_arc(1, 0));
  EXPECT_DOUBLE_EQ(g.message_items(0, 1).value(), 2.0);
  EXPECT_DOUBLE_EQ(g.message_items(0, 2).value(), 0.0);
  EXPECT_FALSE(g.message_items(3, 0).has_value());
}

TEST(TaskGraph, InputsAndOutputs) {
  TaskGraph g(4);
  g.add_arc(0, 2);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  EXPECT_EQ(g.input_nodes(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(g.output_nodes(), (std::vector<NodeId>{3}));
  EXPECT_TRUE(g.is_input(0));
  EXPECT_FALSE(g.is_input(2));
  EXPECT_TRUE(g.is_output(3));
}

TEST(TaskGraph, IsolatedNodeIsInputAndOutput) {
  TaskGraph g(1);
  EXPECT_TRUE(g.is_input(0));
  EXPECT_TRUE(g.is_output(0));
}

TEST(TaskGraph, RejectsMalformedArcs) {
  TaskGraph g(3);
  EXPECT_THROW(g.add_arc(0, 0), ConfigError);       // self loop
  EXPECT_THROW(g.add_arc(0, 5), ConfigError);       // out of range
  EXPECT_THROW(g.add_arc(0, 1, -1.0), ConfigError); // negative message
  g.add_arc(0, 1);
  EXPECT_THROW(g.add_arc(0, 1), ConfigError);       // parallel arc
}

TEST(TaskGraph, ArcListPreservesInsertionOrder) {
  TaskGraph g(3);
  g.add_arc(2, 0, 1.0);
  g.add_arc(0, 1, 2.0);
  ASSERT_EQ(g.arcs().size(), 2u);
  EXPECT_EQ(g.arcs()[0], (Arc{2, 0, 1.0}));
  EXPECT_EQ(g.arcs()[1], (Arc{0, 1, 2.0}));
}

TEST(TaskGraph, ResetReusesSlotsAndStartsThemEmpty) {
  TaskGraph g(60);
  for (NodeId v = 1; v < 60; ++v) {
    g.add_arc(v - 1, v, 1.0);
  }
  g.reset(40);
  EXPECT_EQ(g.node_count(), 40u);
  EXPECT_EQ(g.arc_count(), 0u);
  EXPECT_THROW(g.successors(40), ConfigError);
  g.add_arc(0, 39, 2.0);
  g.reset(60);
  ASSERT_EQ(g.node_count(), 60u);
  EXPECT_EQ(g.arc_count(), 0u);
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_TRUE(g.successors(v).empty()) << v;
    EXPECT_TRUE(g.predecessors(v).empty()) << v;
    EXPECT_TRUE(g.successor_items(v).empty()) << v;
  }
  // add_node past a shrunken graph also reopens a parked slot empty.
  g.reset(40);
  EXPECT_EQ(g.add_node(), 40u);
  EXPECT_TRUE(g.successors(40).empty());
  EXPECT_TRUE(g.predecessors(40).empty());
  EXPECT_EQ(g.output_nodes().size(), 41u);
}

TEST(TaskGraph, MovedFromGraphIsEmpty) {
  TaskGraph g(3);
  g.add_arc(0, 1);
  TaskGraph h = std::move(g);
  EXPECT_EQ(h.node_count(), 3u);
  EXPECT_EQ(g.node_count(), 0u);  // NOLINT(bugprone-use-after-move)
  g = std::move(h);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(h.node_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(g.has_arc(0, 1));
}

}  // namespace
}  // namespace dsslice
