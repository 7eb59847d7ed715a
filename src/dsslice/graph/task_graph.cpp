#include "dsslice/graph/task_graph.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "dsslice/util/check.hpp"

namespace dsslice {

TaskGraph::TaskGraph(std::size_t n)
    : n_(n), succ_off_(n + 1, 0), pred_off_(n + 1, 0) {}

TaskGraph::TaskGraph(std::size_t n, std::vector<Arc> arcs) {
  assign(n, arcs);
}

TaskGraph::TaskGraph(TaskGraph&& other) noexcept {
  *this = std::move(other);
}

TaskGraph& TaskGraph::operator=(TaskGraph&& other) noexcept {
  n_ = std::exchange(other.n_, 0);
  arcs_ = std::move(other.arcs_);
  succ_off_ = std::move(other.succ_off_);
  succ_ = std::move(other.succ_);
  succ_items_ = std::move(other.succ_items_);
  pred_off_ = std::move(other.pred_off_);
  pred_ = std::move(other.pred_);
  pred_items_ = std::move(other.pred_items_);
  pred_arc_ = std::move(other.pred_arc_);
  stamp_ = std::move(other.stamp_);
  return *this;
}

void TaskGraph::node_out_of_range() {
  detail::check_failed("precondition", "v < node_count()", __FILE__, __LINE__,
                       "node id out of range");
}

const char* TaskGraph::arc_error(std::size_t n, const Arc& arc) {
  if (arc.from >= n || arc.to >= n) {
    return "node id out of range";
  }
  if (arc.from == arc.to) {
    return "self-loop arcs are not allowed";
  }
  if (!(arc.message_items >= 0.0)) {
    return "negative message size";
  }
  return nullptr;
}

NodeId TaskGraph::add_node() {
  if (succ_off_.empty()) {
    succ_off_.push_back(0);
    pred_off_.push_back(0);
  }
  succ_off_.push_back(succ_off_.back());
  pred_off_.push_back(pred_off_.back());
  return static_cast<NodeId>(n_++);
}

void TaskGraph::add_arc(NodeId from, NodeId to, double message_items) {
  const Arc arc{from, to, message_items};
  const char* error = arc_error(n_, arc);
  DSSLICE_REQUIRE(error == nullptr, error);
  DSSLICE_REQUIRE(!has_arc(from, to), "parallel arcs are not allowed");
  arcs_.push_back(arc);
  build_csr();
}

void TaskGraph::assign(std::size_t n, std::vector<Arc>& arcs) {
  DSSLICE_REQUIRE(arcs.size() < std::numeric_limits<std::uint32_t>::max(),
                  "too many arcs");
  n_ = n;
  arcs_.swap(arcs);
  arcs.clear();
  const char* error = nullptr;
  for (const Arc& arc : arcs_) {
    if ((error = arc_error(n_, arc)) != nullptr) {
      break;
    }
  }
  if (error == nullptr) {
    build_csr();
    // Parallel arcs put one predecessor twice into the same predecessor
    // bucket. The buckets are contiguous and ordered by target, so one flat
    // pass finds every repeat: each slot stamps its predecessor with the
    // bucket's target, and a predecessor met again inside that bucket
    // finds its own stamp. Stamps are target + 1, so a cleared stamp never
    // matches.
    stamp_.assign(n_, 0);
    bool parallel = false;
    for (std::size_t p = 0; p < pred_.size(); ++p) {
      const NodeId bucket = arcs_[pred_arc_[p]].to + 1;
      parallel |= stamp_[pred_[p]] == bucket;
      stamp_[pred_[p]] = bucket;
    }
    if (parallel) {
      error = "parallel arcs are not allowed";
    }
  }
  if (error != nullptr) {
    *this = TaskGraph();
    DSSLICE_REQUIRE(error == nullptr, error);
  }
}

void TaskGraph::build_csr() {
  const auto m = static_cast<std::uint32_t>(arcs_.size());
  succ_off_.assign(n_ + 1, 0);
  pred_off_.assign(n_ + 1, 0);
  for (const Arc& arc : arcs_) {
    ++succ_off_[arc.from];
    ++pred_off_[arc.to];
  }
  // Inclusive prefix sums: off[v] becomes one past the end of v's bucket.
  std::uint32_t succ_end = 0;
  std::uint32_t pred_end = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    succ_end = succ_off_[v] += succ_end;
    pred_end = pred_off_[v] += pred_end;
  }
  succ_off_[n_] = m;
  pred_off_[n_] = m;
  succ_.resize(m);
  succ_items_.resize(m);
  pred_.resize(m);
  pred_items_.resize(m);
  pred_arc_.resize(m);
  // Filling each bucket from its end in reverse arc order keeps insertion
  // order within the bucket and leaves off[v] at the bucket's start.
  for (std::uint32_t k = m; k-- > 0;) {
    const Arc& arc = arcs_[k];
    const std::uint32_t s = --succ_off_[arc.from];
    succ_[s] = arc.to;
    succ_items_[s] = arc.message_items;
    const std::uint32_t p = --pred_off_[arc.to];
    pred_[p] = arc.from;
    pred_items_[p] = arc.message_items;
    pred_arc_[p] = k;
  }
}

bool TaskGraph::has_arc(NodeId from, NodeId to) const {
  require_node(to);
  const auto out = successors(from);
  return std::find(out.begin(), out.end(), to) != out.end();
}

std::optional<double> TaskGraph::message_items(NodeId from, NodeId to) const {
  require_node(to);
  const auto out = successors(from);
  const auto it = std::find(out.begin(), out.end(), to);
  if (it == out.end()) {
    return std::nullopt;
  }
  return successor_items(from)[static_cast<std::size_t>(it - out.begin())];
}

std::vector<NodeId> TaskGraph::input_nodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (is_input(v)) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<NodeId> TaskGraph::output_nodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (is_output(v)) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace dsslice
