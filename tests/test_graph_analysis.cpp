#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "dsslice/util/thread_pool.hpp"
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

// A chain 0 ≺ 1 ≺ ... ≺ n-1.
TaskGraph chain(std::size_t n) {
  TaskGraph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    g.add_arc(v, v + 1);
  }
  return g;
}

// Two generated graphs, five nodes with no arcs (|Ψ| = 4 each), a 6-chain
// (ancestor count v, descendant count 5 - v) and a 70-chain, whose rows
// span a second bitset word.
TEST(GraphAnalysis, ReachabilityMatchesBfsAndCountsAreConsistent) {
  std::vector<TaskGraph> graphs;
  for (std::uint64_t seed : {7u, 8u}) {
    graphs.push_back(
        generate_scenario_at(testing::small_generator(seed), 0)
            .application.graph());
  }
  graphs.emplace_back(5);
  graphs.push_back(chain(6));
  graphs.push_back(chain(70));
  for (const TaskGraph& g : graphs) {
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
    const TaskGraph& g = sc.application.graph();
    const GraphAnalysis a(g);
    for (NodeId i = 0; i < a.node_count(); ++i) {
      const std::vector<NodeId> walked = testing::walked_parallel_set(a, i);
      EXPECT_EQ(walked, testing::bfs_parallel_set(g, i));
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
  EXPECT_EQ(testing::walked_parallel_set(a, 1), (std::vector<NodeId>{2}));
  EXPECT_EQ(testing::walked_parallel_set(a, 2), (std::vector<NodeId>{1}));
  EXPECT_EQ(a.descendant_count(0), 3u);
  EXPECT_EQ(a.ancestor_count(3), 3u);
  EXPECT_TRUE(a.ordered(0, 3));
  EXPECT_FALSE(a.ordered(1, 2));
}

TEST(GraphAnalysis, DiamondReachability) {
  const GraphAnalysis a(diamond());
  EXPECT_TRUE(a.reaches(0, 3));
  EXPECT_TRUE(a.reaches(0, 1));
  EXPECT_FALSE(a.reaches(1, 2));
  EXPECT_FALSE(a.reaches(3, 0));
  EXPECT_FALSE(a.reaches(0, 0));  // irreflexive
  EXPECT_TRUE(a.ordered(0, 3));
  EXPECT_TRUE(a.ordered(3, 0));   // either direction
  EXPECT_FALSE(a.ordered(1, 2));
}

TEST(GraphAnalysis, ParallelSetsOfDiamond) {
  const GraphAnalysis a(diamond());
  EXPECT_EQ(a.parallel_set_size(0), 0u);
  EXPECT_EQ(a.parallel_set_size(1), 1u);
  EXPECT_EQ(a.parallel_set_size(2), 1u);
  EXPECT_EQ(a.parallel_set_size(3), 0u);
  const auto sizes = a.parallel_set_sizes();
  EXPECT_EQ(std::vector<std::size_t>(sizes.begin(), sizes.end()),
            (std::vector<std::size_t>{0, 1, 1, 0}));
}

TEST(GraphAnalysis, IndependentTasksAreAllParallel) {
  const GraphAnalysis a(TaskGraph(5));  // no arcs
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(a.parallel_set_size(v), 4u) << v;
    std::vector<NodeId> others;
    for (NodeId j = 0; j < 5; ++j) {
      if (j != v) {
        others.push_back(j);
      }
    }
    EXPECT_EQ(testing::walked_parallel_set(a, v), others) << v;
  }
}

TEST(GraphAnalysis, ChainHasEmptyParallelSets) {
  const GraphAnalysis a(chain(6));
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(a.parallel_set_size(v), 0u) << v;
    EXPECT_EQ(a.descendant_count(v), 5u - v) << v;
    EXPECT_EQ(a.ancestor_count(v), static_cast<std::size_t>(v)) << v;
  }
}

TEST(GraphAnalysis, WorksBeyondOneBitsetWord) {
  // 70 nodes force a second 64-bit word per row.
  const GraphAnalysis a(chain(70));
  EXPECT_EQ(a.word_count(), 2u);
  EXPECT_TRUE(a.reaches(0, 69));
  EXPECT_FALSE(a.reaches(69, 0));
  EXPECT_EQ(a.descendant_count(0), 69u);
  EXPECT_EQ(a.ancestor_count(69), 69u);
  EXPECT_EQ(a.parallel_set_size(35), 0u);
}

// On generated graphs, ordered() is symmetric, equals reachability in
// either direction, and Ψ_i is exactly the other nodes not ordered with i.
TEST(GraphAnalysis, OrderedIsSymmetricAndComplementsParallelSet) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const TaskGraph& g = sc.application.graph();
    const GraphAnalysis a(g);
    const std::size_t n = g.node_count();
    for (NodeId u = 0; u < n; ++u) {
      std::vector<NodeId> unordered;
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(a.ordered(u, v), a.ordered(v, u))
            << "seed " << seed << " " << u << "," << v;
        EXPECT_EQ(a.ordered(u, v),
                  u != v && (reachable(g, u, v) || reachable(g, v, u)))
            << "seed " << seed << " " << u << "," << v;
        if (v != u && !a.ordered(u, v)) {
          unordered.push_back(v);
        }
      }
      EXPECT_EQ(testing::walked_parallel_set(a, u), unordered)
          << "seed " << seed << " node " << u;
    }
  }
}

// Every accessor of `a` equals the same accessor of `b`.
void expect_same_analysis(const GraphAnalysis& a, const GraphAnalysis& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.word_count(), b.word_count());
  const auto equal = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(equal(a.topological_order(), b.topological_order()));
  EXPECT_TRUE(equal(a.parallel_set_sizes(), b.parallel_set_sizes()));
  for (NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_TRUE(equal(a.reach_row(v), b.reach_row(v))) << v;
    EXPECT_TRUE(equal(a.coreach_row(v), b.coreach_row(v))) << v;
    EXPECT_EQ(a.descendant_count(v), b.descendant_count(v)) << v;
    EXPECT_EQ(a.ancestor_count(v), b.ancestor_count(v)) << v;
    EXPECT_EQ(testing::walked_parallel_set(a, v),
              testing::walked_parallel_set(b, v))
        << v;
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

// A generated DAG with its ids shuffled, so that arcs point both up and
// down in id order and Kahn's order is far from the identity.
TaskGraph relabelled_dag(std::size_t n, std::uint64_t seed) {
  GeneratorConfig cfg = testing::small_generator(seed);
  cfg.workload.min_tasks = n;
  cfg.workload.max_tasks = n;
  cfg.workload.min_depth = 8;
  cfg.workload.max_depth = 12;
  const TaskGraph g = generate_scenario_at(cfg, 0).application.graph();
  std::vector<NodeId> label(n);
  for (NodeId v = 0; v < n; ++v) {
    label[v] = v;
  }
  Xoshiro256 rng(seed);
  std::shuffle(label.begin(), label.end(), rng);
  std::vector<Arc> arcs;
  for (const Arc& arc : g.arcs()) {
    arcs.push_back({label[arc.from], label[arc.to], arc.message_items});
  }
  return TaskGraph(n, std::move(arcs));
}

// Nodes reachable from `from` by one or more arcs, by breadth-first search.
std::vector<bool> bfs_descendants(const TaskGraph& g, NodeId from) {
  std::vector<bool> seen(g.node_count(), false);
  std::vector<NodeId> queue(g.successors(from).begin(),
                            g.successors(from).end());
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    if (seen[v]) {
      continue;
    }
    seen[v] = true;
    for (const NodeId w : g.successors(v)) {
      queue.push_back(w);
    }
  }
  return seen;
}

// Around one 64-bit word (63, 64, 65 nodes) and across three (130), on
// relabelled ids: the order equals algorithms::topological_order, and every
// reach and co-reach bit and every count equals BFS reachability.
TEST(GraphAnalysis, RelabelledDagMatchesBfsAcrossWordBoundaries) {
  for (const std::size_t n : {63u, 64u, 65u, 130u}) {
    const TaskGraph g = relabelled_dag(n, 40 + n);
    const GraphAnalysis a(g);
    const auto reference = topological_order(g);
    ASSERT_TRUE(reference.has_value());
    const auto topo = a.topological_order();
    ASSERT_TRUE(std::equal(topo.begin(), topo.end(), reference->begin(),
                           reference->end()))
        << n;
    EXPECT_FALSE(std::is_sorted(topo.begin(), topo.end())) << n;
    std::vector<std::size_t> anc(n, 0);
    for (NodeId u = 0; u < n; ++u) {
      const std::vector<bool> desc = bfs_descendants(g, u);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(a.reaches(u, v), desc[v]) << n << ": " << u << "->" << v;
        EXPECT_EQ(bool((a.coreach_row(v)[u / 64] >> (u % 64)) & 1), desc[v])
            << n << ": " << u << "->" << v;
        anc[v] += desc[v];
      }
      const auto d = static_cast<std::size_t>(
          std::count(desc.begin(), desc.end(), true));
      EXPECT_EQ(a.descendant_count(u), d) << n << ": " << u;
    }
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(a.ancestor_count(v), anc[v]) << n << ": " << v;
      EXPECT_EQ(a.parallel_set_size(v),
                n - 1 - a.descendant_count(v) - anc[v])
          << n << ": " << v;
      // No bit beyond the last node is ever set.
      const std::uint64_t tail_bits = n % 64 == 0
                                          ? 0
                                          : ~((std::uint64_t{1} << (n % 64)) - 1);
      EXPECT_EQ(a.reach_row(v).back() & tail_bits, 0u) << n << ": " << v;
      EXPECT_EQ(a.coreach_row(v).back() & tail_bits, 0u) << n << ": " << v;
    }
  }
}

// Kahn's pass expands the acyclic prefix {0, 4, 5} and then stops short of
// the cycle 1 -> 2 -> 3 -> 1: the rebuild throws, and the object can be
// rebuilt for a valid graph afterwards.
TEST(GraphAnalysis, RebuildRejectsCycleBehindAnAcyclicPrefix) {
  TaskGraph cyclic(6);
  cyclic.add_arc(0, 1);
  cyclic.add_arc(1, 2);
  cyclic.add_arc(2, 3);
  cyclic.add_arc(3, 1);
  cyclic.add_arc(0, 4);
  cyclic.add_arc(4, 5);
  EXPECT_THROW(GraphAnalysis{cyclic}, ConfigError);
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

// Digest of everything a consumer reads from an application's graph and
// analysis: each node's adjacency (with message sizes and arc indices), the
// topological order, the reach and co-reach rows and |Ψ_i|.
std::uint64_t structure_digest(const Application& app) {
  const TaskGraph& g = app.graph();
  const GraphAnalysis& a = app.analysis();
  std::string text;
  const auto append = [&text](auto values) {
    for (const auto x : values) {
      text += std::to_string(x);
      text += ' ';
    }
    text += '\n';
  };
  for (NodeId v = 0; v < g.node_count(); ++v) {
    append(g.successors(v));
    append(g.successor_items(v));
    append(g.predecessors(v));
    append(g.predecessor_items(v));
    append(g.predecessor_arc_indices(v));
    append(a.reach_row(v));
    append(a.coreach_row(v));
  }
  append(a.topological_order());
  append(a.parallel_set_sizes());
  return testing::fnv1a(text);
}

TEST(ApplicationAnalysisCache, CopyOutlivingItsSourceReadsTheSameStructure) {
  const GeneratorConfig cfg = testing::small_generator(12);
  const std::uint64_t expected =
      structure_digest(generate_scenario_at(cfg, 0).application);
  std::optional<Application> copy;
  {
    Application source = generate_scenario_at(cfg, 0).application;
    (void)source.analysis();  // built while the source is alive
    copy.emplace(source);
  }
  // The source and its graph are gone; the copy shares the analysis it
  // built and reads its own graph (ASan flags any read of the old one).
  EXPECT_EQ(structure_digest(*copy), expected);
  const Application moved = std::move(*copy);
  copy.reset();
  EXPECT_EQ(structure_digest(moved), expected);
}

TEST(ApplicationAnalysisCache, SharedApplicationReadFromFourPoolWorkers) {
  const GeneratorConfig cfg = testing::paper_generator(13);
  const std::uint64_t expected =
      structure_digest(generate_scenario_at(cfg, 0).application);
  // The analysis is not built yet, so the workers' first analysis() calls
  // race to build and publish it while the others read the graph.
  const Application shared = generate_scenario_at(cfg, 0).application;
  std::array<std::uint64_t, 4> seen{};
  ThreadPool pool(4);
  for (std::size_t w = 0; w < seen.size(); ++w) {
    pool.submit([&shared, &seen, w] { seen[w] = structure_digest(shared); });
  }
  pool.wait_idle();
  for (const std::uint64_t digest : seen) {
    EXPECT_EQ(digest, expected);
  }
}

}  // namespace
}  // namespace dsslice
