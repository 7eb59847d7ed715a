#include "dsslice/analysis/graph_analysis.hpp"

#include <algorithm>
#include <atomic>

#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

std::atomic<std::uint64_t> g_construction_count{0};

}  // namespace

GraphAnalysis::GraphAnalysis(const TaskGraph& g) { rebuild(g); }

void GraphAnalysis::rebuild(const TaskGraph& g) {
  DSSLICE_SPAN("analysis.build");
  g_construction_count.fetch_add(1, std::memory_order_relaxed);
  DSSLICE_COUNT("analysis.builds", 1);

  n_ = g.node_count();
  words_ = (n_ + 63) / 64;
  tail_mask_ = n_ % 64 == 0 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << (n_ % 64)) - 1;
  const auto& arcs = g.arcs();
  const std::size_t arc_count = arcs.size();

  // Successor CSR, preserving TaskGraph's per-node order, with the arc
  // payloads (message sizes) flattened alongside so hot paths never fall
  // back to per-arc linear searches.
  succ_off_.resize(n_ + 1);
  succ_data_.resize(arc_count);
  succ_items_.resize(arc_count);
  std::size_t next = 0;
  for (NodeId v = 0; v < n_; ++v) {
    succ_off_[v] = next;
    const auto succ = g.successors(v);
    const auto items = g.successor_items(v);
    DSSLICE_CHECK(next + succ.size() <= arc_count, "successor without an arc");
    std::copy(succ.begin(), succ.end(), succ_data_.data() + next);
    std::copy(items.begin(), items.end(), succ_items_.data() + next);
    next += succ.size();
  }
  succ_off_[n_] = next;

  // Predecessor CSR from one counting pass over arcs(). TaskGraph appends
  // each arc to its target's predecessor list in insertion order, so
  // bucketing the arcs by target in that order reproduces predecessors(v)
  // exactly — and records each entry's arc index without a lookup.
  pred_off_.assign(n_ + 1, 0);
  for (const Arc& arc : arcs) {
    ++pred_off_[arc.to + 1];
  }
  for (NodeId v = 0; v < n_; ++v) {
    pred_off_[v + 1] += pred_off_[v];
  }
  work_.assign(pred_off_.begin(), pred_off_.end() - 1);  // fill cursors
  pred_data_.resize(arc_count);
  pred_items_.resize(arc_count);
  pred_arc_.resize(arc_count);
  for (std::size_t k = 0; k < arc_count; ++k) {
    const std::size_t at = work_[arcs[k].to]++;
    pred_data_[at] = arcs[k].from;
    pred_items_[at] = arcs[k].message_items;
    pred_arc_[at] = static_cast<std::uint32_t>(k);
  }
  for (NodeId v = 0; v < n_; ++v) {
    const auto expected = g.predecessors(v);
    const auto built = predecessors(v);
    DSSLICE_CHECK(std::equal(expected.begin(), expected.end(), built.begin(),
                             built.end()),
                  "predecessor without an arc");
  }

  // Kahn topological order — same FIFO discipline (ascending seed scan,
  // first in first out) as algorithms::topological_order, so the orders are
  // identical. topo_ is its own queue: [head, tail) is ready, not expanded.
  topo_.resize(n_);
  std::size_t tail = 0;
  for (NodeId v = 0; v < n_; ++v) {
    work_[v] = pred_off_[v + 1] - pred_off_[v];
    if (work_[v] == 0) {
      topo_[tail++] = v;
    }
  }
  for (std::size_t head = 0; head < tail; ++head) {
    for (const NodeId w : successors(topo_[head])) {
      if (--work_[w] == 0) {
        topo_[tail++] = w;
      }
    }
  }
  DSSLICE_REQUIRE(tail == n_, "graph analysis requires an acyclic graph");

  reach_.assign(n_ * words_, 0);
  coreach_.assign(n_ * words_, 0);
  descendants_.resize(n_);
  ancestors_.resize(n_);
  parallel_size_.resize(n_);

  // Reverse sweep: reach_row(u) = ∪ over successors s of (reach_row(s) ∪ {s}).
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const NodeId u = *it;
    std::uint64_t* ru = reach_.data() + u * words_;
    for (const NodeId s : successors(u)) {
      const std::uint64_t* rs = reach_.data() + s * words_;
      for (std::size_t k = 0; k < words_; ++k) {
        ru[k] |= rs[k];
      }
      ru[s / 64] |= std::uint64_t{1} << (s % 64);
    }
  }
  // Forward sweep: coreach_row(v) = ∪ over predecessors u of
  // (coreach_row(u) ∪ {u}).
  for (const NodeId v : topo_) {
    std::uint64_t* cv = coreach_.data() + v * words_;
    for (const NodeId u : predecessors(v)) {
      const std::uint64_t* cu = coreach_.data() + u * words_;
      for (std::size_t k = 0; k < words_; ++k) {
        cv[k] |= cu[k];
      }
      cv[u / 64] |= std::uint64_t{1} << (u % 64);
    }
  }

  for (NodeId v = 0; v < n_; ++v) {
    std::size_t desc = 0;
    std::size_t anc = 0;
    const std::uint64_t* rv = reach_.data() + v * words_;
    const std::uint64_t* cv = coreach_.data() + v * words_;
    for (std::size_t k = 0; k < words_; ++k) {
      desc += static_cast<std::size_t>(std::popcount(rv[k]));
      anc += static_cast<std::size_t>(std::popcount(cv[k]));
    }
    descendants_[v] = desc;
    ancestors_[v] = anc;
    parallel_size_[v] = n_ - 1 - desc - anc;
  }
}

std::vector<NodeId> GraphAnalysis::parallel_set(NodeId i) const {
  DSSLICE_REQUIRE(i < n_, "node id out of range");
  std::vector<NodeId> out;
  out.reserve(parallel_size_[i]);
  for_each_parallel(i, [&](NodeId j) { out.push_back(j); });
  return out;
}

std::uint64_t GraphAnalysis::construction_count() {
  return g_construction_count.load(std::memory_order_relaxed);
}

}  // namespace dsslice
