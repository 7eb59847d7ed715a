// Transitive closure G* and parallel sets Ψ_i (§4.5).
//
// The ADAPT-L metric needs, for every task, the set of tasks that can
// potentially execute in parallel with it: those that are neither its
// predecessors nor its successors under the transitive precedence relation.
// Since the analysis-cache refactor this class is a thin façade over
// analysis::GraphAnalysis, which materializes the closure as packed 64-bit
// row bitsets in both directions (reach + co-reach); ancestor counts come
// from co-reachability popcounts instead of the former O(n²) pairwise
// reaches() loop. Hot paths should prefer Application::analysis() directly —
// it is memoized per application — and keep this class for standalone
// one-shot queries on a bare TaskGraph.
#pragma once

#include <cstddef>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/graph/task_graph.hpp"

namespace dsslice {

class TransitiveClosure {
 public:
  /// Builds the closure of an acyclic graph.
  explicit TransitiveClosure(const TaskGraph& g);

  std::size_t node_count() const { return analysis_.node_count(); }

  /// True iff v is reachable from u via one or more arcs (irreflexive:
  /// reaches(v, v) is false).
  bool reaches(NodeId u, NodeId v) const;

  /// True iff u and v are ordered by the precedence relation (either way).
  bool ordered(NodeId u, NodeId v) const;

  /// |Ψ_i|: number of tasks neither preceding nor succeeding i (excluding i).
  std::size_t parallel_set_size(NodeId i) const;

  /// Ψ_i as an explicit node list (ascending order).
  std::vector<NodeId> parallel_set(NodeId i) const;

  /// Number of strict descendants (successors under ≺).
  std::size_t descendant_count(NodeId i) const;
  /// Number of strict ancestors (predecessors under ≺).
  std::size_t ancestor_count(NodeId i) const;

  /// Convenience: |Ψ_i| for every node.
  std::vector<std::size_t> all_parallel_set_sizes() const;

  /// The underlying shared analysis (topological order, reach/co-reach
  /// bitsets).
  const GraphAnalysis& analysis() const { return analysis_; }

 private:
  GraphAnalysis analysis_;
};

}  // namespace dsslice
