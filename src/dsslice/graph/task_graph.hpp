// Directed acyclic task graph G = (N, A) (§3.2).
//
// Nodes represent tasks (payload lives in model::Application); arcs represent
// precedence constraints annotated with a message size (data items
// transferred from producer to consumer — zero for pure control precedence).
//
// Storage is adjacency lists in both directions for O(out-degree) /
// O(in-degree) neighbourhood scans, which the slicing algorithm's
// breadth-first passes rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace dsslice {

using NodeId = std::uint32_t;

/// An arc (from → to) with its message size in data items.
struct Arc {
  NodeId from = 0;
  NodeId to = 0;
  double message_items = 0.0;

  bool operator==(const Arc&) const = default;
};

class TaskGraph {
 public:
  TaskGraph() = default;
  /// Creates a graph with `n` isolated nodes.
  explicit TaskGraph(std::size_t n);

  // A moved-from graph is empty (node count 0), like a moved-from vector.
  TaskGraph(const TaskGraph&) = default;
  TaskGraph& operator=(const TaskGraph&) = default;
  TaskGraph(TaskGraph&& other) noexcept;
  TaskGraph& operator=(TaskGraph&& other) noexcept;

  /// Appends a node; returns its id.
  NodeId add_node();

  /// Adds the arc from → to. Parallel arcs and self-loops are rejected;
  /// cycles are detected lazily by algorithms::topological_order.
  void add_arc(NodeId from, NodeId to, double message_items = 0.0);

  /// Resets to `n` isolated nodes. Equivalent to *this = TaskGraph(n) except
  /// that previously allocated adjacency storage is kept — including the
  /// per-node slots of a larger earlier graph, parked beyond the live node
  /// count — so once a graph of the largest shape has been built, rebuilding
  /// performs no heap allocation (batch-generation hot path).
  void reset(std::size_t n);

  /// Rewrites the message size of every arc, `items` parallel to arcs()
  /// (insertion order). Lets the generator draw the layered structure and
  /// annotate message sizes in two passes over a single graph instead of
  /// rebuilding the adjacency. Allocation-free.
  void assign_message_items(std::span<const double> items);

  std::size_t node_count() const { return n_; }
  std::size_t arc_count() const { return arcs_.size(); }

  std::span<const NodeId> successors(NodeId v) const;
  std::span<const NodeId> predecessors(NodeId v) const;

  std::size_t out_degree(NodeId v) const { return successors(v).size(); }
  std::size_t in_degree(NodeId v) const { return predecessors(v).size(); }

  bool has_arc(NodeId from, NodeId to) const;

  /// Message size on an existing arc; nullopt when the arc does not exist.
  std::optional<double> message_items(NodeId from, NodeId to) const;

  /// Message sizes of v's out-arcs, parallel to successors(v) — O(1) access
  /// for consumers that walk the adjacency (no per-arc linear search).
  std::span<const double> successor_items(NodeId v) const;

  /// All arcs in insertion order.
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Input tasks (no predecessors) in ascending node order.
  std::vector<NodeId> input_nodes() const;
  /// Output tasks (no successors) in ascending node order.
  std::vector<NodeId> output_nodes() const;

  bool is_input(NodeId v) const { return in_degree(v) == 0; }
  bool is_output(NodeId v) const { return out_degree(v) == 0; }

 private:
  void require_node(NodeId v) const;
  /// Appends one live node with empty adjacency, reusing a parked slot when
  /// one exists.
  void open_slot();

  // Per-node slots; only [0, n_) are live. Slots beyond n_ keep their
  // capacity for a later, larger graph and are emptied when reopened.
  std::size_t n_ = 0;
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
  // Message size per out-arc, parallel to succ_ entries.
  std::vector<std::vector<double>> succ_items_;
  std::vector<Arc> arcs_;
};

}  // namespace dsslice
