// Directed acyclic task graph G = (N, A) (§3.2).
//
// Nodes represent tasks (payload lives in model::Application); arcs represent
// precedence constraints annotated with a message size (data items
// transferred from producer to consumer — zero for pure control precedence).
//
// Storage is the arc list in insertion order plus compressed sparse row
// (CSR) adjacency in both directions, built from it in one counting pass:
// per-node offsets into flat neighbour-id and message-size arrays, and for
// each in-arc its index in arcs(). Each node's neighbours keep arc insertion
// order. This is the library's only copy of the adjacency: GraphAnalysis
// derives its order and reachability from it, and the slicing algorithm's
// breadth-first passes and the schedulers scan it in place.
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
  /// Creates a graph with `n` nodes and `arcs` in insertion order; checked
  /// like assign().
  TaskGraph(std::size_t n, std::vector<Arc> arcs);

  // A moved-from graph is empty (node count 0), like a moved-from vector.
  TaskGraph(const TaskGraph&) = default;
  TaskGraph& operator=(const TaskGraph&) = default;
  TaskGraph(TaskGraph&& other) noexcept;
  TaskGraph& operator=(TaskGraph&& other) noexcept;

  /// Appends a node; returns its id.
  NodeId add_node();

  /// Adds the arc from → to. Parallel arcs and self-loops are rejected;
  /// cycles are detected lazily by algorithms::topological_order. Rebuilds
  /// the CSR, O(n + |A|): for ad-hoc graphs — builders hand their arcs over
  /// at once through assign() or the (n, arcs) constructor.
  void add_arc(NodeId from, NodeId to, double message_items = 0.0);

  /// Replaces the graph by `n` nodes and the arcs in `arcs` (insertion
  /// order), each checked as add_arc checks it, and builds the CSR in one
  /// counting pass. `arcs` receives the graph's previous arc storage,
  /// cleared, so a caller that draws every graph into the same vector
  /// recycles both buffers: once they have held the largest shape, assign
  /// performs no heap allocation (batch-generation hot path). On a rejected
  /// arc it throws ConfigError and leaves the graph empty.
  void assign(std::size_t n, std::vector<Arc>& arcs);

  std::size_t node_count() const { return n_; }
  std::size_t arc_count() const { return arcs_.size(); }

  /// v's direct successors / predecessors in arc insertion order.
  std::span<const NodeId> successors(NodeId v) const {
    require_node(v);
    return {succ_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
  }
  std::span<const NodeId> predecessors(NodeId v) const {
    require_node(v);
    return {pred_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }

  /// Message sizes parallel to the adjacency: successor_items(v)[k] is the
  /// payload of the arc v → successors(v)[k], and symmetrically for
  /// predecessors — O(1) access for consumers that walk the adjacency.
  std::span<const double> successor_items(NodeId v) const {
    require_node(v);
    return {succ_items_.data() + succ_off_[v],
            succ_off_[v + 1] - succ_off_[v]};
  }
  std::span<const double> predecessor_items(NodeId v) const {
    require_node(v);
    return {pred_items_.data() + pred_off_[v],
            pred_off_[v + 1] - pred_off_[v]};
  }

  /// For each in-arc predecessors(v)[k], the index of that arc in arcs() —
  /// lets per-arc side tables (e.g. injected message delay factors) be
  /// flattened onto the predecessor CSR once per run.
  std::span<const std::uint32_t> predecessor_arc_indices(NodeId v) const {
    require_node(v);
    return {pred_arc_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }

  /// The flat CSR arrays behind successors() / predecessors(): v's
  /// successors are successor_ids()[successor_offsets()[v] ..
  /// successor_offsets()[v + 1]), and likewise for predecessors. The
  /// offsets hold node_count() + 1 entries (none in an empty graph). For
  /// kernels that copy the whole adjacency at once.
  std::span<const std::uint32_t> successor_offsets() const { return succ_off_; }
  std::span<const NodeId> successor_ids() const { return succ_; }
  std::span<const std::uint32_t> predecessor_offsets() const {
    return pred_off_;
  }
  std::span<const NodeId> predecessor_ids() const { return pred_; }

  std::size_t out_degree(NodeId v) const { return successors(v).size(); }
  std::size_t in_degree(NodeId v) const { return predecessors(v).size(); }

  bool has_arc(NodeId from, NodeId to) const;

  /// Message size on an existing arc; nullopt when the arc does not exist.
  std::optional<double> message_items(NodeId from, NodeId to) const;

  /// All arcs in insertion order.
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Input tasks (no predecessors) in ascending node order.
  std::vector<NodeId> input_nodes() const;
  /// Output tasks (no successors) in ascending node order.
  std::vector<NodeId> output_nodes() const;

  bool is_input(NodeId v) const { return in_degree(v) == 0; }
  bool is_output(NodeId v) const { return out_degree(v) == 0; }

 private:
  void require_node(NodeId v) const {
    if (v >= n_) [[unlikely]] {
      node_out_of_range();
    }
  }
  [[noreturn]] static void node_out_of_range();
  /// Why `arc` cannot be an arc of a graph with `n` nodes (range,
  /// self-loop, message size), or nullptr when it can.
  static const char* arc_error(std::size_t n, const Arc& arc);
  /// Rebuilds both CSR directions from arcs_ (one counting pass).
  void build_csr();

  std::size_t n_ = 0;
  std::vector<Arc> arcs_;
  // CSR: v's out-arcs are [succ_off_[v], succ_off_[v + 1]) of succ_ and
  // succ_items_, its in-arcs the same range of pred_off_ over pred_,
  // pred_items_ and pred_arc_. The offsets hold n + 1 entries, or none in
  // a default-constructed or moved-from graph.
  std::vector<std::uint32_t> succ_off_;
  std::vector<NodeId> succ_;
  std::vector<double> succ_items_;
  std::vector<std::uint32_t> pred_off_;
  std::vector<NodeId> pred_;
  std::vector<double> pred_items_;
  std::vector<std::uint32_t> pred_arc_;
  // assign()'s parallel-arc check: per node, the last predecessor bucket
  // (target + 1) it was seen in. Kept only to recycle its capacity.
  std::vector<NodeId> stamp_;
};

}  // namespace dsslice
