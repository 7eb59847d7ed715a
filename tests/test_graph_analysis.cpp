#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "dsslice/graph/closure.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

TaskGraph diamond() {
  TaskGraph g(4);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  g.add_arc(1, 3);
  g.add_arc(2, 3);
  return g;
}

TEST(GraphAnalysis, TopologicalOrderMatchesAlgorithms) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const TaskGraph& g = sc.application.graph();
    const GraphAnalysis a(g);
    const auto reference = topological_order(g);
    ASSERT_TRUE(reference.has_value());
    const auto topo = a.topological_order();
    ASSERT_EQ(topo.size(), reference->size());
    for (std::size_t k = 0; k < topo.size(); ++k) {
      EXPECT_EQ(topo[k], (*reference)[k]) << "seed " << seed << " pos " << k;
    }
  }
}

TEST(GraphAnalysis, CsrAdjacencyMatchesTaskGraph) {
  for (std::uint64_t seed : {5u, 6u}) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const TaskGraph& g = sc.application.graph();
    const GraphAnalysis a(g);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto succ = a.successors(v);
      const auto g_succ = g.successors(v);
      ASSERT_EQ(succ.size(), g_succ.size());
      EXPECT_TRUE(std::equal(succ.begin(), succ.end(), g_succ.begin()));
      const auto pred = a.predecessors(v);
      const auto g_pred = g.predecessors(v);
      ASSERT_EQ(pred.size(), g_pred.size());
      EXPECT_TRUE(std::equal(pred.begin(), pred.end(), g_pred.begin()));
    }
  }
}

TEST(GraphAnalysis, ReachabilityMatchesBfsAndCountsAreConsistent) {
  for (std::uint64_t seed : {7u, 8u}) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const TaskGraph& g = sc.application.graph();
    const GraphAnalysis a(g);
    const std::size_t n = g.node_count();
    for (NodeId u = 0; u < n; ++u) {
      std::size_t desc = 0;
      std::size_t anc = 0;
      for (NodeId v = 0; v < n; ++v) {
        const bool expected = (u != v) && reachable(g, u, v);
        EXPECT_EQ(a.reaches(u, v), expected) << u << "->" << v;
        desc += a.reaches(u, v) ? 1 : 0;
        anc += a.reaches(v, u) ? 1 : 0;
      }
      EXPECT_EQ(a.descendant_count(u), desc);
      EXPECT_EQ(a.ancestor_count(u), anc);
      EXPECT_EQ(a.parallel_set_size(u), n - 1 - desc - anc);
    }
  }
}

TEST(GraphAnalysis, CoreachRowIsTransposeOfReach) {
  const Scenario sc = generate_scenario_at(testing::small_generator(9), 0);
  const TaskGraph& g = sc.application.graph();
  const GraphAnalysis a(g);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const bool from_coreach =
          (a.coreach_row(v)[u / 64] >> (u % 64)) & 1;
      EXPECT_EQ(from_coreach, a.reaches(u, v)) << u << "->" << v;
    }
  }
}

TEST(GraphAnalysis, ForEachParallelMatchesMaterializedSet) {
  for (std::uint64_t seed : {10u, 11u}) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const GraphAnalysis a(sc.application.graph());
    const TransitiveClosure c(sc.application.graph());
    for (NodeId i = 0; i < a.node_count(); ++i) {
      std::vector<NodeId> walked;
      a.for_each_parallel(i, [&](NodeId j) { walked.push_back(j); });
      EXPECT_EQ(walked, a.parallel_set(i));
      EXPECT_EQ(walked, c.parallel_set(i));
      EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
      EXPECT_EQ(walked.size(), a.parallel_set_size(i));
    }
  }
}

TEST(GraphAnalysis, ParallelWalkHandlesMultiWordRows) {
  // 130 nodes: three 64-bit words per row, with a partially used tail word.
  constexpr std::size_t kNodes = 130;
  TaskGraph g(kNodes);
  for (NodeId v = 0; v + 1 < 64; ++v) {
    g.add_arc(v, v + 1);  // a chain occupying the first word
  }
  const GraphAnalysis a(g);
  EXPECT_EQ(a.word_count(), 3u);
  // Node 129 (isolated, in the tail word) is parallel to everything else.
  std::vector<NodeId> walked;
  a.for_each_parallel(kNodes - 1, [&](NodeId j) { walked.push_back(j); });
  EXPECT_EQ(walked.size(), kNodes - 1);
  // A chain node sees only the isolated nodes (64..129) as parallel.
  walked.clear();
  a.for_each_parallel(10, [&](NodeId j) { walked.push_back(j); });
  EXPECT_EQ(walked.size(), kNodes - 64);
  EXPECT_EQ(walked.front(), 64u);
  EXPECT_EQ(walked.back(), kNodes - 1);
}

TEST(GraphAnalysis, DiamondFacts) {
  const GraphAnalysis a(diamond());
  EXPECT_EQ(a.parallel_set(1), (std::vector<NodeId>{2}));
  EXPECT_EQ(a.parallel_set(2), (std::vector<NodeId>{1}));
  EXPECT_EQ(a.descendant_count(0), 3u);
  EXPECT_EQ(a.ancestor_count(3), 3u);
  EXPECT_TRUE(a.ordered(0, 3));
  EXPECT_FALSE(a.ordered(1, 2));
}

// Every accessor of `a` equals the same accessor of `b`.
void expect_same_analysis(const GraphAnalysis& a, const GraphAnalysis& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.word_count(), b.word_count());
  ASSERT_EQ(a.arc_count(), b.arc_count());
  const auto equal = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(equal(a.topological_order(), b.topological_order()));
  EXPECT_TRUE(equal(a.parallel_set_sizes(), b.parallel_set_sizes()));
  for (NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_TRUE(equal(a.successors(v), b.successors(v))) << v;
    EXPECT_TRUE(equal(a.predecessors(v), b.predecessors(v))) << v;
    EXPECT_TRUE(equal(a.successor_items(v), b.successor_items(v))) << v;
    EXPECT_TRUE(equal(a.predecessor_items(v), b.predecessor_items(v))) << v;
    EXPECT_TRUE(
        equal(a.predecessor_arc_indices(v), b.predecessor_arc_indices(v)))
        << v;
    EXPECT_EQ(a.predecessor_offset(v), b.predecessor_offset(v)) << v;
    EXPECT_TRUE(equal(a.reach_row(v), b.reach_row(v))) << v;
    EXPECT_TRUE(equal(a.coreach_row(v), b.coreach_row(v))) << v;
    EXPECT_EQ(a.descendant_count(v), b.descendant_count(v)) << v;
    EXPECT_EQ(a.ancestor_count(v), b.ancestor_count(v)) << v;
    EXPECT_EQ(a.parallel_set(v), b.parallel_set(v)) << v;
  }
}

TEST(GraphAnalysis, RebuildEqualsFreshAnalysisAcrossWordCounts) {
  // 130 nodes use three bitset words per row and 50 use one, so rebuilding
  // 130 -> 50 -> 130 would expose stale reach bits or a stale tail mask.
  const auto graph_of = [](std::size_t n, std::uint64_t index) {
    GeneratorConfig cfg = testing::small_generator(11);
    cfg.workload.min_tasks = n;
    cfg.workload.max_tasks = n;
    cfg.workload.min_depth = 8;
    cfg.workload.max_depth = 12;
    return generate_scenario_at(cfg, index).application.graph();
  };
  const TaskGraph first = graph_of(130, 0);
  GraphAnalysis recycled(first);
  const std::uint64_t before = GraphAnalysis::construction_count();
  std::uint64_t index = 1;
  for (const std::size_t n : {50u, 130u, 50u}) {
    const TaskGraph g = graph_of(n, index++);
    ASSERT_EQ(g.node_count(), n);
    recycled.rebuild(g);
    expect_same_analysis(recycled, GraphAnalysis(g));
  }
  // Each rebuild and each fresh construction counts once.
  EXPECT_EQ(GraphAnalysis::construction_count(), before + 6);
}

TEST(GraphAnalysis, RebuildRejectsCyclicGraph) {
  TaskGraph cyclic(3);
  cyclic.add_arc(0, 1);
  cyclic.add_arc(1, 2);
  cyclic.add_arc(2, 0);
  GraphAnalysis a(diamond());
  EXPECT_THROW(a.rebuild(cyclic), ConfigError);
  a.rebuild(diamond());
  expect_same_analysis(a, GraphAnalysis(diamond()));
}

TEST(ApplicationAnalysisCache, BuiltOnceAndSharedByCopies) {
  const Application app = testing::make_diamond(1.0, 2.0, 3.0, 1.0, 20.0);
  const std::uint64_t before = GraphAnalysis::construction_count();
  const GraphAnalysis& first = app.analysis();
  const std::uint64_t after_first = GraphAnalysis::construction_count();
  EXPECT_EQ(after_first, before + 1);

  // Repeated access and copies hit the cache: no further constructions, and
  // the copy returns the very same analysis object.
  const GraphAnalysis& again = app.analysis();
  EXPECT_EQ(&again, &first);
  const Application copy = app;
  EXPECT_EQ(&copy.analysis(), &first);
  EXPECT_EQ(GraphAnalysis::construction_count(), after_first);
}

TEST(ApplicationAnalysisCache, RebuildSwapRecyclesAnUnsharedAnalysis) {
  Application app = testing::make_diamond(1.0, 2.0, 3.0, 1.0, 20.0);
  const GraphAnalysis* first = &app.analysis();
  const Application chain = testing::make_chain(6, 2.0, 30.0);
  TaskGraph graph = chain.graph();
  std::vector<Task> tasks = chain.tasks();
  app.rebuild_swap(graph, tasks);

  // The next call rebuilds the parked analysis in place: same object, one
  // more build, contents of the new graph.
  const std::uint64_t before = GraphAnalysis::construction_count();
  const GraphAnalysis& rebuilt = app.analysis();
  EXPECT_EQ(&rebuilt, first);
  EXPECT_EQ(GraphAnalysis::construction_count(), before + 1);
  expect_same_analysis(rebuilt, GraphAnalysis(chain.graph()));
}

TEST(ApplicationAnalysisCache, AnalysisMatchesGraph) {
  const Application app = testing::make_chain(6, 2.0, 30.0);
  const GraphAnalysis& a = app.analysis();
  EXPECT_EQ(a.node_count(), app.task_count());
  for (NodeId v = 0; v < app.task_count(); ++v) {
    EXPECT_EQ(a.parallel_set_size(v), 0u);  // chains have no parallelism
  }
}

}  // namespace
}  // namespace dsslice
