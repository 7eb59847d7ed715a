#include "dsslice/batch/slice_kernel.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// DeadlineMetric::path_value with the metric kind resolved at compile time,
/// so the DP inner loop inlines the score instead of paying a cross-TU call
/// per candidate. Expression-for-expression identical to path_value —
/// bit-identity depends on it.
template <MetricKind Kind>
double batch_path_value(Time window, double sum_weight, std::uint32_t count) {
  if (count == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const double laxity = window - sum_weight;
  if constexpr (Kind == MetricKind::kNorm) {
    if (sum_weight <= 0.0) {
      return laxity < 0.0 ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
    }
    return laxity / sum_weight;  // Eq. 2
  } else {
    return laxity / static_cast<double>(count);  // Eqs. 4 and ADAPT form
  }
}

/// Removes `v` from the live list [list, list + len) and keeps the rest in
/// their order — CSR order, the order the scalar path's folds visit.
inline void remove_stable(NodeId* list, std::uint32_t& len, NodeId v) {
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < len; ++i) {
    list[kept] = list[i];
    kept += list[i] != v ? 1u : 0u;
  }
  len = kept;
}

inline void bit_clear(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
}

inline void bit_set(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}

/// Bitwise double compare: the change test that gates incremental dirty
/// propagation. Bitwise (not ==) so that a value replaced by a different
/// representation of the same number (−0.0 vs 0.0) still counts as changed —
/// conservative re-dirtying keeps the stale-value invariant airtight.
inline bool bits_differ(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b);
}

}  // namespace

void BatchSliceKernel::run(std::span<const Scenario> scenarios,
                           const BatchSliceConfig& config) {
  DSSLICE_SPAN("batch.slice.run");
  const std::size_t b = scenarios.size();
  batch_size_ = b;
  if (b == 0) {
    return;
  }

  // Result slots are grow-only: shrinking the outer vectors would destroy
  // the per-slot window capacity a smaller batch had already paid for.
  if (assignments_.size() < b) {
    growth_.reserve(assignments_, b, b);
    assignments_.resize(b);
  }
  if (stats_.size() < b) {
    growth_.reserve(stats_, b, b);
    stats_.resize(b);
  }
  if (outcome_min_laxity_.size() < b) {
    growth_.reserve(outcome_min_laxity_, b, b);
    outcome_min_laxity_.resize(b);
  }

  // Size hints first: a slot's windows are reserved to the largest task
  // count of the batch, so a later run that puts a larger scenario in that
  // slot finds the capacity already there.
  for (const Scenario& scenario : scenarios) {
    max_tasks_seen_ =
        std::max(max_tasks_seen_, scenario.application.task_count());
    max_arcs_seen_ =
        std::max(max_arcs_seen_, scenario.application.graph().arc_count());
  }

  const DeadlineMetric metric(config.metric, config.params);
  std::size_t total_tasks = 0;
  std::size_t total_passes = 0;
  for (std::size_t k = 0; k < b; ++k) {
    const Application& app = scenarios[k].application;
    const std::size_t processors = scenarios[k].platform.processor_count();
    DSSLICE_REQUIRE(processors > 0, "need at least one processor");
    const std::size_t n = app.task_count();
    DSSLICE_REQUIRE(n > 0, "cannot evaluate an empty application");
    total_tasks += n;

    // Stage: c̄, the mandatory demand when the workload is imprecise (a
    // precise one peels straight from c̄, as the scalar pipeline does), then
    // the metric weights. Reserving ahead keeps the growth accounting in
    // one place; the helpers' resizes then never re-allocate.
    growth_.reserve(est_, n, node_hint());
    estimate_wcets_into(app, config.wcet_strategy, est_);
    std::span<const double> slice_est = est_;
    if (app.has_optional_work()) {
      growth_.reserve(mandatory_, n, node_hint());
      mandatory_estimates_into(app, est_, mandatory_);
      slice_est = mandatory_;
    }
    growth_.reserve(weights_, n, node_hint());
    metric.weights_into(app, slice_est, processors, nullptr, weights_,
                        &metric_ws_);

    switch (metric.kind()) {
      case MetricKind::kPure:
        peel_scenario<MetricKind::kPure>(k, app, slice_est);
        break;
      case MetricKind::kNorm:
        peel_scenario<MetricKind::kNorm>(k, app, slice_est);
        break;
      case MetricKind::kAdaptG:
        peel_scenario<MetricKind::kAdaptG>(k, app, slice_est);
        break;
      case MetricKind::kAdaptL:
        peel_scenario<MetricKind::kAdaptL>(k, app, slice_est);
        break;
    }
    total_passes += stats_[k].passes;
  }
  DSSLICE_COUNT("batch.scenarios", b);
  DSSLICE_COUNT("batch.passes", total_passes);
  DSSLICE_COUNT("batch.tasks", total_tasks);
}

template <MetricKind Kind>
void BatchSliceKernel::peel_scenario(std::size_t k, const Application& app,
                                     std::span<const double> est) {
  const TaskGraph& g = app.graph();
  const GraphAnalysis& analysis = app.analysis();
  const std::size_t n = app.task_count();
  const std::span<const NodeId> topo = analysis.topological_order();
  const std::span<const double> weights = weights_;

  DeadlineAssignment& assignment = assignments_[k];
  growth_.reserve(assignment.windows, n, node_hint());
  assignment.windows.resize(n);
  growth_.reserve(assignment.pass_of, n, node_hint());
  assignment.pass_of.resize(n);

  const std::size_t words = (n + 63) / 64;
  const std::size_t word_hint = (node_hint() + 63) / 64;
  const std::size_t adj_size = 2 * g.arc_count();
  DSSLICE_REQUIRE(adj_size <= std::numeric_limits<std::uint32_t>::max(),
                  "too many arcs for the slicing kernel");

  growth_.reserve(arrival_, n, node_hint());
  arrival_.resize(n);
  growth_.reserve(deadline_, n, node_hint());
  deadline_.resize(n);
  growth_.reserve(pos_of_, n, node_hint());
  pos_of_.resize(n);
  growth_.reserve(live_, n, node_hint());
  live_.resize(n);
  growth_.reserve(adj_, adj_size, 2 * max_arcs_seen_);
  adj_.resize(adj_size);
  growth_.reserve(lw_, n, node_hint());
  lw_.resize(n);
  growth_.reserve(dp_, n, node_hint());
  dp_.resize(n);
  growth_.reserve(path_nodes_, n, node_hint());
  path_nodes_.resize(n);
  growth_.reserve(sink_bits_, words, word_hint);
  sink_bits_.assign(words, 0);

  // Dirty sets (topological-position indexed): which nodes each peel pass
  // must recompute. They start empty — pass 0 computes every node densely —
  // and later passes reprocess only nodes whose inputs changed: an anchor
  // tightened, a neighbour assigned, an unassigned successor's latest-finish
  // changed (backward), or an unassigned predecessor's (start, Σw, count)
  // changed (forward). A node whose recomputed value is bitwise unchanged
  // stops the propagation, so every value a pass *reads* is bitwise what a
  // full recompute would have produced — the incremental walk is exact,
  // not approximate.
  growth_.reserve(dirty_back_, words, word_hint);
  dirty_back_.assign(words, 0);
  growth_.reserve(dirty_fwd_, words, word_hint);
  dirty_fwd_.assign(words, 0);

  // Setup, in reverse topological order, fused with pass 0's dense backward
  // DP: the live adjacency starts as a copy of the CSR (successor lists,
  // then predecessor lists), anchors mirror AnchorState's constructor (−inf
  // / +inf sentinels double as the has-anchor tests), output tasks are the
  // initial Π-sinks, and L(v) folds the successors, which sit later in the
  // order and so are final.
  const std::size_t arcs = g.arc_count();
  NodeId* const adj = adj_.data();
  std::copy(g.successor_ids().begin(), g.successor_ids().end(), adj);
  std::copy(g.predecessor_ids().begin(), g.predecessor_ids().end(),
            adj + arcs);
  const std::span<const std::uint32_t> succ_off = g.successor_offsets();
  const std::span<const std::uint32_t> pred_off = g.predecessor_offsets();
  for (std::size_t pos = n; pos-- > 0;) {
    const NodeId v = topo[pos];
    const LiveAdjacency lv{succ_off[v], succ_off[v + 1] - succ_off[v],
                           static_cast<std::uint32_t>(arcs) + pred_off[v],
                           pred_off[v + 1] - pred_off[v]};
    live_[v] = lv;
    pos_of_[v] = static_cast<std::uint32_t>(pos);
    assignment.pass_of[v] = -1;
    arrival_[v] = lv.pred_len == 0 ? app.input_arrival(v) : -kTimeInfinity;
    if (lv.succ_len == 0) {
      DSSLICE_REQUIRE(app.has_ete_deadline(v),
                      "output task without an E-T-E deadline");
      deadline_[v] = app.ete_deadline(v);
      // The Π-sink check runs once, when a node becomes a sink: its
      // deadline anchor only tightens afterwards.
      DSSLICE_CHECK(deadline_[v] < kTimeInfinity,
                    "Π-sink without a deadline anchor");
      bit_set(sink_bits_, v);
    } else {
      deadline_[v] = kTimeInfinity;
    }
    Time l = deadline_[v];
    const NodeId* const succs = adj + lv.succ_at;
    for (std::uint32_t i = 0; i < lv.succ_len; ++i) {
      const NodeId w = succs[i];
      l = std::min(l, lw_[w].latest - lw_[w].weight);
    }
    lw_[v] = LatestWeight{l, weights[v]};
  }

  SlicingStats stats;
  std::size_t remaining = n;

  // Candidate fold of one node over its live predecessors, in scalar
  // locals; ranking is expression-for-expression path_candidate_better
  // (score asc, Σw desc, prev asc — a total order, so the fold is
  // order-independent).
  const auto fold_forward = [&](NodeId v) {
    const LiveAdjacency& lv = live_[v];
    const Time latest_v = lw_[v].latest;
    const double weight_v = lw_[v].weight;
    Time best_start = kTimeZero;
    double best_sum = 0.0;
    std::uint32_t best_count = 0;
    NodeId best_prev = kNoPathPrev;
    double best_score = 0.0;
    bool valid = false;
    if (lv.pred_len == 0) {
      DSSLICE_CHECK(arrival_[v] > -kTimeInfinity,
                    "Π-source without an arrival anchor");
      best_start = arrival_[v];
      best_sum = weight_v;
      best_count = 1;
      best_score =
          batch_path_value<Kind>(latest_v - best_start, best_sum, best_count);
      valid = true;
    }
    const NodeId* const preds = adj + lv.pred_at;
    for (std::uint32_t i = 0; i < lv.pred_len; ++i) {
      const NodeId u = preds[i];
      const NodeDp& du = dp_[u];
      const Time cand_start = du.start;
      const double cand_sum = du.sum + weight_v;
      const std::uint32_t cand_count = du.count + 1;
      const double cand_score =
          batch_path_value<Kind>(latest_v - cand_start, cand_sum, cand_count);
      if (!valid || cand_score < best_score ||
          (cand_score == best_score &&
           (cand_sum > best_sum || (cand_sum == best_sum && u < best_prev)))) {
        best_start = cand_start;
        best_sum = cand_sum;
        best_count = cand_count;
        best_prev = u;
        best_score = cand_score;
        valid = true;
      }
    }
    DSSLICE_CHECK(valid, "unassigned node produced no path candidate");
    return NodeDp{best_start, best_sum, best_score, best_count, best_prev};
  };

  // Pass 0's dense forward DP: every node is unassigned, so it runs as a
  // straight loop over the topological order.
  for (std::size_t pos = 0; pos < n; ++pos) {
    const NodeId v = topo[pos];
    dp_[v] = fold_forward(v);
  }

  while (remaining > 0) {
    // Backward pass over the dirty nodes in reverse topological order
    // (descending word walk, highest set lane first). Each word is snapshot
    // into a register and zeroed once, so draining it costs no per-node
    // store/reload; dirty bits added while processing — a changed
    // latest-finish re-dirties the node's unassigned predecessors — land at
    // strictly lower positions and are picked up by the outer re-read. A
    // same-word mark below an already-drained snapshot bit may process a
    // node before one of its dirty successors, but the successor's change
    // then re-marks it: the walk settles on the unique fixpoint of the
    // acyclic backward equations, bitwise the values a strictly-ordered
    // walk produces.
    for (std::size_t wi = words; wi-- > 0;) {
      while (std::uint64_t snap = dirty_back_[wi]) {
        dirty_back_[wi] = 0;
        do {
        const int bit = 63 - std::countl_zero(snap);
        snap &= ~(std::uint64_t{1} << bit);
        const std::size_t pos = wi * 64 + static_cast<std::size_t>(bit);
        const NodeId v = topo[pos];
        const LiveAdjacency& lv = live_[v];
        Time l = deadline_[v];
        const NodeId* const succs = adj + lv.succ_at;
        for (std::uint32_t i = 0; i < lv.succ_len; ++i) {
          const NodeId w = succs[i];
          l = std::min(l, lw_[w].latest - lw_[w].weight);
        }
        if (bits_differ(l, lw_[v].latest)) {
          lw_[v].latest = l;
          // The projected score at v reads L(v); the latest-finish of every
          // unassigned predecessor reads it too.
          bit_set(dirty_fwd_, static_cast<std::uint32_t>(pos));
          const NodeId* const preds = adj + lv.pred_at;
          for (std::uint32_t i = 0; i < lv.pred_len; ++i) {
            const std::uint32_t p = pos_of_[preds[i]];
            // Same-word marks go straight into the live snapshot (the
            // array bit would double-process via the outer re-read).
            if ((p >> 6) == wi) {
              snap |= std::uint64_t{1} << (p & 63);
            } else {
              bit_set(dirty_back_, p);
            }
          }
        }
        } while (snap);
      }
    }

    // Forward pass: recompute the best partial path of each dirty node in
    // ascending topological order, with the same snapshot word drain as the
    // backward pass (marks from a changed (start, Σw, count) tuple target
    // the node's unassigned successors — strictly higher positions).
    for (std::size_t wi = 0; wi < words; ++wi) {
      while (std::uint64_t snap = dirty_fwd_[wi]) {
        dirty_fwd_[wi] = 0;
        do {
        const int bit = std::countr_zero(snap);
        snap &= snap - 1;
        const std::size_t pos = wi * 64 + static_cast<std::size_t>(bit);
        const NodeId v = topo[pos];
        const NodeDp best = fold_forward(v);
        // Successors read only (start, Σw, count) — prev and score are
        // consumed at v itself, so changes to them alone propagate nowhere.
        NodeDp& dv = dp_[v];
        const bool inputs_changed = bits_differ(best.start, dv.start) ||
                                    bits_differ(best.sum, dv.sum) ||
                                    best.count != dv.count;
        dv = best;
        if (inputs_changed) {
          const LiveAdjacency& lv = live_[v];
          const NodeId* const succs = adj + lv.succ_at;
          for (std::uint32_t i = 0; i < lv.succ_len; ++i) {
            const std::uint32_t p = pos_of_[succs[i]];
            if ((p >> 6) == wi) {
              snap |= std::uint64_t{1} << (p & 63);
            } else {
              bit_set(dirty_fwd_, p);
            }
          }
        }
        } while (snap);
      }
    }

    // Sink selection: the lexicographic min of (score, node id) over the
    // current Π-sinks, whose DP entries are current by the dirty-walk
    // invariant. The scan runs in ascending id order, so an equal score
    // never displaces the smaller id already held and `<` alone decides.
    NodeId best_sink = kNoPathPrev;
    double best_sink_score = 0.0;
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t lanes = sink_bits_[wi];
      while (lanes != 0) {
        const NodeId v = static_cast<NodeId>(
            wi * 64 + static_cast<std::size_t>(std::countr_zero(lanes)));
        lanes &= lanes - 1;
        const double score = dp_[v].score;
        const bool take = best_sink == kNoPathPrev || score < best_sink_score;
        best_sink = take ? v : best_sink;
        best_sink_score = take ? score : best_sink_score;
      }
    }
    DSSLICE_CHECK(best_sink != kNoPathPrev,
                  "remaining tasks exist but no Π-sink was found");
    bit_clear(sink_bits_, best_sink);

    // Reconstruct the spine backwards through the DP links, filling it from
    // its last slot.
    const std::size_t len = dp_[best_sink].count;
    DSSLICE_CHECK(len <= n, "path reconstruction length mismatch");
    NodeId* const path = path_nodes_.data();
    std::size_t slot = len;
    for (NodeId v = best_sink; v != kNoPathPrev; v = dp_[v].prev) {
      DSSLICE_CHECK(slot > 0, "path reconstruction length mismatch");
      path[--slot] = v;
    }
    DSSLICE_CHECK(slot == 0, "path reconstruction length mismatch");
    const std::span<const NodeId> spine(path, len);

    const Time window_start = dp_[best_sink].start;
    const Time window_end = deadline_[best_sink];
    if (stats.passes == 0) {
      stats.first_path_metric = best_sink_score;
      stats.first_path_length = len;
    }

    // Slice the window over the spine and assign each spine node its slice,
    // clamped into the anchors it carries from earlier passes. The slice
    // d_i is expression-for-expression DeadlineMetric::adaptive_slices_into
    // (and slices_into for the non-adaptive metrics), with the same
    // preconditions; slice boundaries are its cumulative prefix sums.
    const int pass = static_cast<int>(stats.passes);
    Time boundary = window_start;
    const auto place = [&](std::size_t i, double d) {
      const NodeId v = path[i];
      const Time lo = boundary;
      boundary += d;
      const Time hi = (i + 1 == len) ? window_end : boundary;
      Window w{lo, hi};
      if (arrival_[v] > -kTimeInfinity) {
        w.arrival = std::max(w.arrival, arrival_[v]);
      }
      if (deadline_[v] < kTimeInfinity) {
        w.deadline = std::min(w.deadline, deadline_[v]);
      }
      assignment.windows[v] = w;
      assignment.pass_of[v] = pass;
    };
    const Time window = window_end - window_start;
    DSSLICE_REQUIRE(len > 0, "cannot slice an empty path");
    if constexpr (Kind == MetricKind::kAdaptG || Kind == MetricKind::kAdaptL) {
      double sum_est = 0.0;    // Σ c̄ along the path
      double sum_extra = 0.0;  // Σ (ĉ − c̄): requested virtual inflation
      for (const NodeId v : spine) {
        DSSLICE_REQUIRE(weights[v] >= est[v] - 1e-12,
                        "virtual execution time below the estimate");
        sum_est += est[v];
        sum_extra += weights[v] - est[v];
      }
      const double surplus = window - sum_est;
      if (surplus >= sum_extra) {
        const double share = (surplus - sum_extra) / static_cast<double>(len);
        for (std::size_t i = 0; i < len; ++i) {
          place(i, weights[path[i]] + share);
        }
      } else if (surplus > 0.0 && sum_extra > 0.0) {
        const double scale = surplus / sum_extra;
        for (std::size_t i = 0; i < len; ++i) {
          const NodeId v = path[i];
          place(i, est[v] + (weights[v] - est[v]) * scale);
        }
      } else {
        const double share = surplus / static_cast<double>(len);
        for (std::size_t i = 0; i < len; ++i) {
          place(i, est[path[i]] + share);
        }
      }
    } else {
      double sum = 0.0;
      for (const NodeId v : spine) {
        DSSLICE_REQUIRE(weights[v] >= 0.0, "negative path weight");
        sum += weights[v];
      }
      if (Kind == MetricKind::kNorm && sum > 0.0) {
        const double scale = window / sum;
        for (std::size_t i = 0; i < len; ++i) {
          place(i, weights[path[i]] * scale);
        }
      } else {
        const double share = (window - sum) / static_cast<double>(len);
        for (std::size_t i = 0; i < len; ++i) {
          place(i, weights[path[i]] + share);
        }
      }
    }
    remaining -= len;

    // Propagate anchors to the unassigned neighbours of the spine, drop the
    // spine from their live lists and seed the next pass's dirty sets: a
    // predecessor's latest-finish inputs changed (successor gone, deadline
    // maybe tightened), a successor's candidate set changed (predecessor
    // gone, arrival maybe tightened, Π-source status maybe flipped). A
    // predecessor whose last unassigned successor was just assigned becomes
    // a Π-sink. Neighbours on the spine itself (pass_of already set) are
    // assigned and left alone.
    for (const NodeId v : spine) {
      const Window& w = assignment.windows[v];
      const LiveAdjacency& lv = live_[v];
      const NodeId* const preds = adj + lv.pred_at;
      for (std::uint32_t i = 0; i < lv.pred_len; ++i) {
        const NodeId u = preds[i];
        if (assignment.pass_of[u] >= 0) {
          continue;
        }
        LiveAdjacency& lu = live_[u];
        remove_stable(adj + lu.succ_at, lu.succ_len, v);
        deadline_[u] = std::min(deadline_[u], w.arrival);
        bit_set(dirty_back_, pos_of_[u]);
        if (lu.succ_len == 0) {
          DSSLICE_CHECK(deadline_[u] < kTimeInfinity,
                        "Π-sink without a deadline anchor");
          bit_set(sink_bits_, u);
        }
      }
      const NodeId* const succs = adj + lv.succ_at;
      for (std::uint32_t i = 0; i < lv.succ_len; ++i) {
        const NodeId s = succs[i];
        if (assignment.pass_of[s] >= 0) {
          continue;
        }
        LiveAdjacency& ls = live_[s];
        remove_stable(adj + ls.pred_at, ls.pred_len, v);
        arrival_[s] = std::max(arrival_[s], w.deadline);
        bit_set(dirty_fwd_, pos_of_[s]);
      }
    }

    ++stats.passes;
    DSSLICE_CHECK(stats.passes <= n, "slicing failed to converge");
  }

  // Min-laxities over the slicing estimates (stats) and over the original
  // estimates c̄ (the outcome's; first-smallest, quality.cpp's min_element
  // semantics), in one scan.
  stats.min_laxity = std::numeric_limits<double>::infinity();
  stats.windows_feasible = true;
  double outcome_min = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const double length = assignment.windows[v].length();
    const double laxity = length - est[v];
    stats.min_laxity = std::min(stats.min_laxity, laxity);
    if (laxity < 0.0) {
      stats.windows_feasible = false;
    }
    const double outcome = length - est_[v];
    if (v == 0 || outcome < outcome_min) {
      outcome_min = outcome;
    }
  }
  stats_[k] = stats;
  outcome_min_laxity_[k] = outcome_min;
}

}  // namespace dsslice
