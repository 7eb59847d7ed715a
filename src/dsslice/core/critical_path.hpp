// Critical-path search for the SLICING algorithm (§4.4 step 3).
//
// The paper identifies, among all paths through the not-yet-assigned tasks
// Π, the one minimizing the laxity-ratio metric R, using a breadth-first
// traversal with O(|N| + |A|) cost per iteration. An exact minimizer over
// all paths is exponential for ratio metrics, so — consistent with the
// stated complexity — we implement a two-pass linear-time dynamic program:
//
//  1. Backward pass over reverse topological order computing L(v), a bound
//     on the latest finish of v: its deadline anchor (if any) combined with
//     min over unassigned successors w of (L(w) − weight_w).
//  2. Forward pass keeping one best partial path per node. A partial path
//     may start fresh at any Π-source (all predecessors assigned; its
//     arrival anchor is then fully determined) or extend the best partial
//     path of an unassigned predecessor. Candidates at node v are ranked by
//     the *projected* ratio R(L(v) − start, Σw, n); at Π-sinks L(v) equals
//     the deadline anchor, so the projected ratio is the true path metric.
//
// The returned path runs Π-source → Π-sink, so every remaining task is
// reachable through some returned path across iterations, and the spine
// windows [start, end] are always anchored at both ends.
//
// CriticalPathSearch owns the DP buffers, so the slicing main loop reuses
// them across its n passes instead of reallocating; adjacency and the
// topological order come from the shared GraphAnalysis (no per-call bounds
// checks, no re-sort).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/core/anchors.hpp"
#include "dsslice/core/metrics.hpp"
#include "dsslice/graph/task_graph.hpp"
#include "dsslice/model/time.hpp"

namespace dsslice {

/// Sentinel predecessor id marking the head of a partial path.
inline constexpr NodeId kNoPathPrev = std::numeric_limits<NodeId>::max();

/// Best partial path ending at a node during the forward DP. Shared by the
/// scalar search and the batch slicing kernel (batch/slice_kernel.hpp) so
/// both rank candidates with literally the same code.
struct PathCandidate {
  Time start = kTimeZero;   // arrival anchor of the path's first task
  double sum_weight = 0.0;  // Σ weights along the partial path
  std::uint32_t count = 0;  // number of tasks on the partial path
  NodeId prev = 0;          // predecessor on the path
  double score = std::numeric_limits<double>::infinity();
  bool valid = false;
};

/// Deterministic candidate ranking: lower projected ratio wins; ties prefer
/// the heavier path, then the smaller predecessor id. Candidates with equal
/// (score, sum_weight, prev) are the same candidate, so this is a strict
/// weak order over any candidate set and the winner is order-independent.
inline bool path_candidate_better(const PathCandidate& a,
                                  const PathCandidate& b) {
  if (!b.valid) {
    return a.valid;
  }
  if (!a.valid) {
    return false;
  }
  if (a.score != b.score) {
    return a.score < b.score;
  }
  if (a.sum_weight != b.sum_weight) {
    return a.sum_weight > b.sum_weight;
  }
  return a.prev < b.prev;
}

struct CriticalPath {
  /// Chain of immediate-successor tasks, all unassigned.
  std::vector<NodeId> nodes;
  /// Window start: arrival anchor of nodes.front().
  Time window_start = kTimeZero;
  /// Window end: deadline anchor of nodes.back().
  Time window_end = kTimeZero;
  /// Metric value R of this path (lower = more critical).
  double metric_value = 0.0;

  Time window_length() const { return window_end - window_start; }
};

/// Reusable critical-path search. One instance per slicing run (or per
/// worker); find() overwrites the internal DP arrays and the output path's
/// node storage, so steady-state searches are allocation-free.
class CriticalPathSearch {
 public:
  /// Finds the most critical remaining path into `out` (reusing its node
  /// vector). `weights` are the metric weights (c̄ or ĉ) for all tasks.
  /// Returns false when no unassigned task remains.
  bool find(const TaskGraph& g, const GraphAnalysis& analysis,
            const AnchorState& anchors, std::span<const double> weights,
            const DeadlineMetric& metric, CriticalPath& out);

 private:
  using Entry = PathCandidate;

  std::vector<Time> latest_;
  std::vector<Entry> dp_;
};

}  // namespace dsslice
