#include "dsslice/analysis/graph_analysis.hpp"

#include <atomic>

#include "dsslice/obs/trace.hpp"
#include "dsslice/util/branch_free.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

std::atomic<std::uint64_t> g_construction_count{0};

std::size_t row_popcount(const std::uint64_t* row, std::size_t words) {
  std::size_t count = 0;
  for (std::size_t k = 0; k < words; ++k) {
    count += static_cast<std::size_t>(popcount64(row[k]));
  }
  return count;
}

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

  // Kahn topological order — same FIFO discipline (ascending seed scan,
  // first in first out) as algorithms::topological_order, so the orders are
  // identical. topo_ is its own queue: [head, tail) is ready, not expanded.
  // Appends are branch-free: every candidate is stored at topo_[tail], and
  // tail advances past it only if it is ready. Every store is in bounds,
  // cyclic input included. A seed store has tail <= v < n. An expansion
  // store follows a decrement of in_left_[w] from at least 1 (each arc
  // into w is walked at most once, as each node is expanded at most once),
  // so w is not queued yet and tail counts at most n - 1 queued nodes.
  //
  // The pass also records every arc it expands, in expansion order: arcs_
  // groups the arcs by source, with the sources in topological order, so
  // every arc out of s comes after every arc into s. The sweeps below are
  // flat loops over that record, with no trip count per node.
  topo_.resize(n_);
  in_left_.resize(n_);
  arcs_.resize(g.arc_count());
  std::size_t tail = 0;
  for (NodeId v = 0; v < n_; ++v) {
    in_left_[v] = g.in_degree(v);
    topo_[tail] = v;
    tail += in_left_[v] == 0;
  }
  std::size_t recorded = 0;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId s = topo_[head];
    for (const NodeId w : g.successors(s)) {
      arcs_[recorded++] = {s, w};
      topo_[tail] = w;
      tail += --in_left_[w] == 0;
    }
  }
  // A cyclic graph stops early and leaves the record short; no sweep reads
  // it then.
  DSSLICE_REQUIRE(tail == n_, "graph analysis requires an acyclic graph");

  reach_.assign(n_ * words_, 0);
  coreach_.assign(n_ * words_, 0);
  descendants_.resize(n_);
  ancestors_.resize(n_);
  parallel_size_.resize(n_);

  // Reverse sweep: reach_row(u) = ∪ over successors s of (reach_row(s) ∪ {s}).
  // Walking the record backwards merges row s into its predecessors only
  // after every arc out of s has been merged into row s.
  for (std::size_t k = arcs_.size(); k-- > 0;) {
    const auto [u, s] = arcs_[k];
    std::uint64_t* ru = reach_.data() + u * words_;
    const std::uint64_t* rs = reach_.data() + s * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      ru[w] |= rs[w];
    }
    ru[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  // Forward sweep: coreach_row(v) = ∪ over predecessors u of
  // (coreach_row(u) ∪ {u}). Walking the record forwards merges row u into
  // its successors only after every arc into u has been merged into row u.
  for (const auto& [u, v] : arcs_) {
    std::uint64_t* cv = coreach_.data() + v * words_;
    const std::uint64_t* cu = coreach_.data() + u * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      cv[w] |= cu[w];
    }
    cv[u / 64] |= std::uint64_t{1} << (u % 64);
  }
  // Descendant and ancestor counts are the rows' popcounts; |Ψ_v| follows.
  for (NodeId v = 0; v < n_; ++v) {
    descendants_[v] = row_popcount(reach_.data() + v * words_, words_);
    ancestors_[v] = row_popcount(coreach_.data() + v * words_, words_);
    parallel_size_[v] = n_ - 1 - descendants_[v] - ancestors_[v];
  }
}

std::uint64_t GraphAnalysis::construction_count() {
  return g_construction_count.load(std::memory_order_relaxed);
}

}  // namespace dsslice
