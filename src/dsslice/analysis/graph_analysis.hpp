// Shared graph-analysis cache for the slicing pipeline.
//
// Every consumer of an application's task graph — the four deadline metrics,
// the slicing main loop, jitter analysis, the baselines, and the recovery
// engine's re-slice path — needs the same handful of structural facts:
// a topological order, fast adjacency scans, reachability (who precedes
// whom under ≺*), and the parallel sets Ψ_i (§4.5). Historically each
// caller recomputed these from the TaskGraph on every invocation; a
// Monte-Carlo sweep therefore paid O(n²) closure construction per metric
// evaluation per scenario. GraphAnalysis computes everything once per graph
// and is memoized on Application (see Application::analysis()), so repeated
// metric/slicing/recovery calls on the same application are pure lookups.
//
// Contents:
//  * topological order (identical to algorithms::topological_order);
//  * CSR (compressed sparse row) adjacency in both directions — spans with
//    no per-call bounds checks, flat memory for cache-friendly scans;
//  * reachability rows: bit v of reach_row(u) ⇔ u ≺ v (strict);
//  * co-reachability rows: bit u of coreach_row(v) ⇔ u ≺ v (strict) —
//    the transpose of reach, built in one forward sweep;
//  * descendant / ancestor counts (popcounts of the two rows) and the
//    parallel-set sizes |Ψ_i| = n − 1 − |desc| − |anc|;
//  * allocation-free parallel-set iteration: Ψ_i is exactly the bitset
//    ~(reach_row(i) | coreach_row(i) | {i}), walked word by word.
//
// The analysis depends only on the graph *structure* (nodes and arcs), not
// on task parameters, arrivals, deadlines or WCETs — so it never needs
// invalidation for an Application whose graph is fixed at construction.
// rebuild() recomputes an existing object for another graph in place,
// reusing every buffer's capacity: a sweep that regenerates scenarios
// rebuilds one analysis per scenario without touching the heap.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsslice/graph/task_graph.hpp"

namespace dsslice {

class GraphAnalysis {
 public:
  /// Builds the full analysis of an acyclic graph: O(n·|A|/64 + n²/64).
  explicit GraphAnalysis(const TaskGraph& g);

  /// Recomputes the analysis for `g` in place; the result equals
  /// GraphAnalysis(g) on every accessor. Allocation-free once the buffers
  /// have held a graph at least as large. Counts as one construction. If it
  /// throws (cyclic graph), the object must be rebuilt before further use.
  void rebuild(const TaskGraph& g);

  std::size_t node_count() const { return n_; }
  /// Number of 64-bit words per reachability row.
  std::size_t word_count() const { return words_; }

  /// Kahn topological order (bit-identical to algorithms::topological_order).
  std::span<const NodeId> topological_order() const { return topo_; }

  /// CSR adjacency: same contents/order as TaskGraph::successors /
  /// predecessors, but flat and without per-call node checks.
  std::span<const NodeId> successors(NodeId v) const {
    return {succ_data_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
  }
  std::span<const NodeId> predecessors(NodeId v) const {
    return {pred_data_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }

  /// Message sizes aligned with the CSR adjacency: successor_items(v)[k] is
  /// the payload of the arc v → successors(v)[k] (and symmetrically for
  /// predecessors). Replaces TaskGraph::message_items' per-call linear
  /// search on the scheduler hot paths.
  std::span<const double> successor_items(NodeId v) const {
    return {succ_items_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
  }
  std::span<const double> predecessor_items(NodeId v) const {
    return {pred_items_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }

  /// For each in-arc predecessors(v)[k], the index of that arc in
  /// TaskGraph::arcs() — lets per-arc side tables (e.g. injected message
  /// delay factors) be flattened onto the predecessor CSR once per run.
  std::span<const std::uint32_t> predecessor_arc_indices(NodeId v) const {
    return {pred_arc_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }

  /// Global base index of v's predecessor edges inside the flat CSR arrays
  /// (predecessors(v)[k] lives at flat index predecessor_offset(v) + k).
  std::size_t predecessor_offset(NodeId v) const { return pred_off_[v]; }
  /// Total number of arcs (== TaskGraph::arc_count()).
  std::size_t arc_count() const { return pred_data_.size(); }

  /// True iff v is reachable from u via one or more arcs (irreflexive).
  bool reaches(NodeId u, NodeId v) const {
    return (reach_[u * words_ + v / 64] >> (v % 64)) & 1;
  }
  /// True iff u and v are ordered by the precedence relation (either way).
  bool ordered(NodeId u, NodeId v) const {
    return reaches(u, v) || reaches(v, u);
  }

  /// Row u of the reachability matrix: bit v set ⇔ u ≺ v.
  std::span<const std::uint64_t> reach_row(NodeId u) const {
    return {reach_.data() + u * words_, words_};
  }
  /// Row v of the co-reachability matrix: bit u set ⇔ u ≺ v.
  std::span<const std::uint64_t> coreach_row(NodeId v) const {
    return {coreach_.data() + v * words_, words_};
  }

  /// Number of strict descendants (successors under ≺*).
  std::size_t descendant_count(NodeId i) const { return descendants_[i]; }
  /// Number of strict ancestors (predecessors under ≺*).
  std::size_t ancestor_count(NodeId i) const { return ancestors_[i]; }

  /// |Ψ_i|: tasks neither preceding nor succeeding i (excluding i).
  std::size_t parallel_set_size(NodeId i) const { return parallel_size_[i]; }
  /// |Ψ_i| for every node, as a borrowed span (no copy).
  std::span<const std::size_t> parallel_set_sizes() const {
    return parallel_size_;
  }

  /// Calls f(j) for every j ∈ Ψ_i in ascending order, without materializing
  /// the set: walks the words of ~(reach | coreach), masking out i itself
  /// and the tail bits beyond n.
  template <typename F>
  void for_each_parallel(NodeId i, F&& f) const {
    const std::uint64_t* r = reach_.data() + i * words_;
    const std::uint64_t* c = coreach_.data() + i * words_;
    const std::size_t self_word = i / 64;
    const std::uint64_t self_bit = std::uint64_t{1} << (i % 64);
    for (std::size_t k = 0; k < words_; ++k) {
      std::uint64_t m = ~(r[k] | c[k]);
      if (k == self_word) {
        m &= ~self_bit;
      }
      if (k + 1 == words_) {
        m &= tail_mask_;
      }
      while (m != 0) {
        const auto j = static_cast<NodeId>(
            k * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        f(j);
        m &= m - 1;
      }
    }
  }

  /// Ψ_i materialized as a node list (ascending) — convenience for tests and
  /// cold paths; hot paths should use for_each_parallel.
  std::vector<NodeId> parallel_set(NodeId i) const;

  /// Process-wide count of GraphAnalysis builds (constructions and
  /// rebuilds). Instrumentation for tests and the perf harness: lets callers
  /// assert that a hot loop runs zero closure/analysis builds (i.e. the
  /// cache actually hits).
  static std::uint64_t construction_count();

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::uint64_t tail_mask_ = 0;  // valid bits of the last row word
  std::vector<NodeId> topo_;
  std::vector<std::size_t> succ_off_;
  std::vector<NodeId> succ_data_;
  std::vector<std::size_t> pred_off_;
  std::vector<NodeId> pred_data_;
  std::vector<double> succ_items_;
  std::vector<double> pred_items_;
  std::vector<std::uint32_t> pred_arc_;
  std::vector<std::uint64_t> reach_;
  std::vector<std::uint64_t> coreach_;
  std::vector<std::size_t> descendants_;
  std::vector<std::size_t> ancestors_;
  std::vector<std::size_t> parallel_size_;
  // Per-node counter shared by the build passes: the predecessor fill
  // cursor, then Kahn's remaining in-degree.
  std::vector<std::size_t> work_;
};

}  // namespace dsslice
