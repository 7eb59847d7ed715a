#include "dsslice/core/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

constexpr NodeId kNoPrev = kNoPathPrev;

bool better(const PathCandidate& a, const PathCandidate& b) {
  return path_candidate_better(a, b);
}

}  // namespace

bool CriticalPathSearch::find(const TaskGraph& g,
                              const GraphAnalysis& analysis,
                              const AnchorState& anchors,
                              std::span<const double> weights,
                              const DeadlineMetric& metric,
                              CriticalPath& out) {
  const std::size_t n = analysis.node_count();
  DSSLICE_REQUIRE(weights.size() == n, "weight vector size mismatch");
  if (anchors.all_assigned()) {
    return false;
  }
  const auto topo = analysis.topological_order();

  // Backward pass: L(v) = latest-finish bound of unassigned v.
  latest_.assign(n, kTimeInfinity);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    if (anchors.assigned(v)) {
      continue;
    }
    Time l = anchors.deadline_anchor(v);
    for (const NodeId w : g.successors(v)) {
      if (!anchors.assigned(w)) {
        l = std::min(l, latest_[w] - weights[w]);
      }
    }
    latest_[v] = l;
  }

  // Forward pass: best partial path per node, best complete path overall.
  dp_.assign(n, Entry{});
  NodeId best_sink = kNoPrev;
  Entry best_sink_entry;

  for (const NodeId v : topo) {
    if (anchors.assigned(v)) {
      continue;
    }
    Entry best;

    const auto consider = [&](Time start, double sum_weight,
                              std::uint32_t count, NodeId prev) {
      Entry cand;
      cand.start = start;
      cand.sum_weight = sum_weight;
      cand.count = count;
      cand.prev = prev;
      cand.score = metric.path_value(latest_[v] - start, sum_weight, count);
      cand.valid = true;
      if (better(cand, best)) {
        best = cand;
      }
    };

    const auto preds = g.predecessors(v);
    bool pi_source = true;
    for (const NodeId u : preds) {
      if (!anchors.assigned(u)) {
        pi_source = false;
        break;
      }
    }
    if (pi_source) {
      DSSLICE_CHECK(anchors.has_arrival_anchor(v),
                    "Π-source without an arrival anchor");
      consider(anchors.arrival_anchor(v), weights[v], 1, kNoPrev);
    }
    for (const NodeId u : preds) {
      if (!anchors.assigned(u)) {
        DSSLICE_CHECK(dp_[u].valid, "unassigned predecessor without DP entry");
        consider(dp_[u].start, dp_[u].sum_weight + weights[v],
                 dp_[u].count + 1, u);
      }
    }
    DSSLICE_CHECK(best.valid, "unassigned node produced no path candidate");
    dp_[v] = best;

    bool pi_sink = true;
    for (const NodeId w : g.successors(v)) {
      if (!anchors.assigned(w)) {
        pi_sink = false;
        break;
      }
    }
    if (pi_sink) {
      // latest_[v] is exactly the deadline anchor here, so dp_[v].score is
      // the true metric value of the completed path.
      DSSLICE_CHECK(anchors.has_deadline_anchor(v),
                    "Π-sink without a deadline anchor");
      if (best_sink == kNoPrev || dp_[v].score < best_sink_entry.score ||
          (dp_[v].score == best_sink_entry.score && v < best_sink)) {
        best_sink = v;
        best_sink_entry = dp_[v];
      }
    }
  }

  DSSLICE_CHECK(best_sink != kNoPrev,
                "remaining tasks exist but no Π-sink was found");

  out.window_start = best_sink_entry.start;
  out.window_end = anchors.deadline_anchor(best_sink);
  out.metric_value = best_sink_entry.score;
  // Reconstruct the chain backwards through the DP links.
  out.nodes.clear();
  for (NodeId v = best_sink; v != kNoPrev; v = dp_[v].prev) {
    out.nodes.push_back(v);
  }
  std::reverse(out.nodes.begin(), out.nodes.end());
  DSSLICE_CHECK(out.nodes.size() == best_sink_entry.count,
                "path reconstruction length mismatch");
  return true;
}

}  // namespace dsslice
