#include "dsslice/graph/task_graph.hpp"

#include <algorithm>
#include <utility>

#include "dsslice/util/check.hpp"

namespace dsslice {

TaskGraph::TaskGraph(std::size_t n)
    : n_(n), succ_(n), pred_(n), succ_items_(n) {}

TaskGraph::TaskGraph(TaskGraph&& other) noexcept
    : n_(std::exchange(other.n_, 0)),
      succ_(std::move(other.succ_)),
      pred_(std::move(other.pred_)),
      succ_items_(std::move(other.succ_items_)),
      arcs_(std::move(other.arcs_)) {}

TaskGraph& TaskGraph::operator=(TaskGraph&& other) noexcept {
  n_ = std::exchange(other.n_, 0);
  succ_ = std::move(other.succ_);
  pred_ = std::move(other.pred_);
  succ_items_ = std::move(other.succ_items_);
  arcs_ = std::move(other.arcs_);
  return *this;
}

void TaskGraph::open_slot() {
  if (n_ < succ_.size()) {
    succ_[n_].clear();
    pred_[n_].clear();
    succ_items_[n_].clear();
  } else {
    succ_.emplace_back();
    pred_.emplace_back();
    succ_items_.emplace_back();
  }
  ++n_;
}

NodeId TaskGraph::add_node() {
  open_slot();
  return static_cast<NodeId>(n_ - 1);
}

void TaskGraph::require_node(NodeId v) const {
  DSSLICE_REQUIRE(v < n_, "node id out of range");
}

void TaskGraph::add_arc(NodeId from, NodeId to, double message_items) {
  require_node(from);
  require_node(to);
  DSSLICE_REQUIRE(from != to, "self-loop arcs are not allowed");
  DSSLICE_REQUIRE(message_items >= 0.0, "negative message size");
  DSSLICE_REQUIRE(!has_arc(from, to), "parallel arcs are not allowed");
  succ_[from].push_back(to);
  succ_items_[from].push_back(message_items);
  pred_[to].push_back(from);
  arcs_.push_back(Arc{from, to, message_items});
}

void TaskGraph::reset(std::size_t n) {
  n_ = 0;
  while (n_ < n) {
    open_slot();
  }
  arcs_.clear();
}

void TaskGraph::assign_message_items(std::span<const double> items) {
  DSSLICE_REQUIRE(items.size() == arcs_.size(),
                  "one message size per arc required");
  // succ_[from] lists arcs in insertion order, so re-pushing in global
  // insertion order reproduces the parallel layout exactly. The entries were
  // pushed by add_arc, so every inner vector already has the capacity.
  for (std::size_t v = 0; v < n_; ++v) {
    succ_items_[v].clear();
  }
  for (std::size_t k = 0; k < arcs_.size(); ++k) {
    DSSLICE_REQUIRE(items[k] >= 0.0, "negative message size");
    arcs_[k].message_items = items[k];
    succ_items_[arcs_[k].from].push_back(items[k]);
  }
}

std::span<const NodeId> TaskGraph::successors(NodeId v) const {
  require_node(v);
  return succ_[v];
}

std::span<const NodeId> TaskGraph::predecessors(NodeId v) const {
  require_node(v);
  return pred_[v];
}

std::span<const double> TaskGraph::successor_items(NodeId v) const {
  require_node(v);
  return succ_items_[v];
}

bool TaskGraph::has_arc(NodeId from, NodeId to) const {
  require_node(from);
  require_node(to);
  const auto& out = succ_[from];
  return std::find(out.begin(), out.end(), to) != out.end();
}

std::optional<double> TaskGraph::message_items(NodeId from, NodeId to) const {
  require_node(from);
  require_node(to);
  const auto& out = succ_[from];
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] == to) {
      return succ_items_[from][i];
    }
  }
  return std::nullopt;
}

std::vector<NodeId> TaskGraph::input_nodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (pred_[v].empty()) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<NodeId> TaskGraph::output_nodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (succ_[v].empty()) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace dsslice
