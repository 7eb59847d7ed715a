#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/graph/task_graph.hpp"
#include "dsslice/util/check.hpp"
#include "test_util.hpp"

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

// Both neighbour lists of every node, listed in arc insertion order.
void expect_adjacency_follows_arc_order(const TaskGraph& g) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    std::vector<NodeId> succ;
    std::vector<double> succ_items;
    std::vector<NodeId> pred;
    std::vector<double> pred_items;
    std::vector<std::uint32_t> pred_arcs;
    for (std::uint32_t k = 0; k < g.arc_count(); ++k) {
      const Arc& arc = g.arcs()[k];
      if (arc.from == v) {
        succ.push_back(arc.to);
        succ_items.push_back(arc.message_items);
      }
      if (arc.to == v) {
        pred.push_back(arc.from);
        pred_items.push_back(arc.message_items);
        pred_arcs.push_back(k);
      }
    }
    const auto same = [](auto span, const auto& vec) {
      return std::equal(span.begin(), span.end(), vec.begin(), vec.end());
    };
    EXPECT_TRUE(same(g.successors(v), succ)) << v;
    EXPECT_TRUE(same(g.successor_items(v), succ_items)) << v;
    EXPECT_TRUE(same(g.predecessors(v), pred)) << v;
    EXPECT_TRUE(same(g.predecessor_items(v), pred_items)) << v;
    EXPECT_TRUE(same(g.predecessor_arc_indices(v), pred_arcs)) << v;
  }
}

TEST(TaskGraph, InterleavedArcsAndQueriesKeepInsertionOrder) {
  // Arcs into and out of node 2 arrive out of id order, with queries in
  // between: each answer must already reflect every earlier arc.
  TaskGraph g(5);
  g.add_arc(4, 2, 1.0);
  EXPECT_EQ(g.in_degree(2), 1u);
  g.add_arc(2, 3, 2.0);
  g.add_arc(0, 2, 3.0);
  EXPECT_EQ(g.predecessors(2)[1], 0u);
  EXPECT_TRUE(g.has_arc(2, 3));
  g.add_arc(2, 1, 4.0);
  g.add_arc(1, 3, 5.0);
  EXPECT_EQ(g.successors(2).size(), 2u);
  g.add_arc(3, 0, 6.0);
  g.add_arc(2, 0, 7.0);
  const NodeId extra = g.add_node();
  g.add_arc(extra, 2, 8.0);
  EXPECT_EQ(g.predecessors(2).back(), extra);
  EXPECT_EQ(g.successors(2)[0], 3u);
  EXPECT_EQ(g.successors(2)[1], 1u);
  EXPECT_EQ(g.successors(2)[2], 0u);
  EXPECT_DOUBLE_EQ(g.message_items(2, 0).value(), 7.0);
  expect_adjacency_follows_arc_order(g);
}

TEST(TaskGraph, AssignMatchesArcByArcConstruction) {
  const std::vector<Arc> arcs = {{3, 1, 1.0}, {0, 1, 2.0}, {0, 3, 0.0},
                                 {1, 2, 4.0}, {3, 2, 5.0}, {0, 2, 6.0}};
  TaskGraph one_by_one(4);
  for (const Arc& arc : arcs) {
    one_by_one.add_arc(arc.from, arc.to, arc.message_items);
  }
  const TaskGraph bulk(4, arcs);
  EXPECT_EQ(bulk.arcs(), arcs);
  for (NodeId v = 0; v < 4; ++v) {
    const auto equal = [](auto x, auto y) {
      return std::equal(x.begin(), x.end(), y.begin(), y.end());
    };
    EXPECT_TRUE(equal(bulk.successors(v), one_by_one.successors(v))) << v;
    EXPECT_TRUE(equal(bulk.predecessors(v), one_by_one.predecessors(v)))
        << v;
    EXPECT_TRUE(equal(bulk.predecessor_arc_indices(v),
                      one_by_one.predecessor_arc_indices(v)))
        << v;
  }
  expect_adjacency_follows_arc_order(bulk);
}

TEST(TaskGraph, GeneratedCsrFollowsArcOrder) {
  for (std::uint64_t seed : {5u, 6u}) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    expect_adjacency_follows_arc_order(sc.application.graph());
  }
}

TEST(TaskGraph, AssignSwapsArcStorageAndReplacesTheGraph) {
  TaskGraph g(60);
  for (NodeId v = 1; v < 60; ++v) {
    g.add_arc(v - 1, v, 1.0);
  }
  std::vector<Arc> arcs = {{0, 39, 2.0}};
  arcs.reserve(8);
  const Arc* drawn = arcs.data();
  g.assign(40, arcs);
  // The graph now owns the drawn storage; the caller holds the graph's
  // previous arc storage, emptied.
  EXPECT_EQ(g.arcs().data(), drawn);
  EXPECT_TRUE(arcs.empty());
  EXPECT_GE(arcs.capacity(), 59u);
  EXPECT_EQ(g.node_count(), 40u);
  EXPECT_EQ(g.arc_count(), 1u);
  EXPECT_THROW(g.successors(40), ConfigError);
  EXPECT_EQ(g.output_nodes().size(), 39u);
  g.assign(60, arcs);
  ASSERT_EQ(g.node_count(), 60u);
  EXPECT_EQ(g.arc_count(), 0u);
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_TRUE(g.successors(v).empty()) << v;
    EXPECT_TRUE(g.predecessors(v).empty()) << v;
  }
}

TEST(TaskGraph, AssignRejectsMalformedArcsAndLeavesTheGraphEmpty) {
  const std::vector<std::vector<Arc>> malformed = {
      {{0, 0, 0.0}},                // self loop
      {{0, 5, 0.0}},                // out of range
      {{0, 1, -1.0}},               // negative message
      {{0, 1, 0.0}, {1, 2, 0.0}, {0, 1, 3.0}},  // parallel arc
  };
  for (const std::vector<Arc>& bad : malformed) {
    TaskGraph g(3);
    g.add_arc(1, 2);
    std::vector<Arc> arcs = bad;
    EXPECT_THROW(g.assign(3, arcs), ConfigError);
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_EQ(g.arc_count(), 0u);
    EXPECT_EQ(g.add_node(), 0u);  // usable again, from empty
    EXPECT_TRUE(g.successors(0).empty());
    EXPECT_THROW(TaskGraph(3, bad), ConfigError);
  }
}

// A repeated predecessor is caught wherever it sits in its target's
// predecessor bucket, not only next to its twin: the two 70 -> 90 arcs are
// four arcs apart, and 90's bucket reads {70, 10, 3, 70}. Ids above 63 keep
// the check honest beyond one 64-bit word.
TEST(TaskGraph, AssignRejectsNonAdjacentParallelArcsInOneBucket) {
  constexpr std::size_t kNodes = 100;
  const std::vector<Arc> bad = {{70, 90, 1.0}, {10, 90, 0.0}, {5, 20, 0.0},
                                {3, 90, 0.0},  {70, 90, 2.0}, {20, 95, 0.0}};
  TaskGraph g(3);
  g.add_arc(1, 2);
  std::vector<Arc> arcs = bad;
  try {
    g.assign(kNodes, arcs);
    ADD_FAILURE() << "parallel arcs accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("parallel arcs are not allowed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.arc_count(), 0u);
  // A range error anywhere in the list is reported before the parallel arc.
  arcs = bad;
  arcs.push_back({0, kNodes, 0.0});
  try {
    g.assign(kNodes, arcs);
    ADD_FAILURE() << "out-of-range arc accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("node id out of range"),
              std::string::npos)
        << e.what();
  }
  // Without the repeat the same arcs form a valid graph, and a predecessor
  // shared by two buckets (70 -> 90, 70 -> 91) is not a parallel arc.
  arcs = bad;
  arcs[4] = {70, 91, 2.0};
  g.assign(kNodes, arcs);
  EXPECT_EQ(g.arc_count(), bad.size());
  EXPECT_EQ(g.in_degree(90), 3u);
}

// A star whose hub has in-degree 199 and no parallel arc is accepted, on a
// fresh graph and again on the graph that held it (a stale duplicate check
// from the previous assign must not fire).
TEST(TaskGraph, AssignAcceptsHighInDegreeStar) {
  constexpr NodeId kHub = 199;
  std::vector<Arc> star;
  for (NodeId u = 0; u < kHub; ++u) {
    star.push_back({(u * 37) % kHub, kHub, 1.0});
  }
  TaskGraph g;
  for (int round = 0; round < 2; ++round) {
    std::vector<Arc> arcs = star;
    g.assign(kHub + 1, arcs);
    ASSERT_EQ(g.in_degree(kHub), std::size_t{kHub}) << round;
    const auto preds = g.predecessors(kHub);
    for (NodeId k = 0; k < kHub; ++k) {
      EXPECT_EQ(preds[k], star[k].from) << round;
    }
    EXPECT_EQ(g.input_nodes().size(), std::size_t{kHub});
  }
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
