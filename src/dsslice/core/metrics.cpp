#include "dsslice/core/metrics.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// Average task-graph parallelism ξ = Σ c̄ / critical-path length (Eq. 7),
/// computed over the cached topological order. Arithmetic is identical to
/// graph::average_parallelism (same per-node max/add sequence), but no
/// topological sort is rerun and the level buffer is reusable.
double average_parallelism_cached(const TaskGraph& g,
                                  const GraphAnalysis& a,
                                  std::span<const double> est_wcet,
                                  std::vector<double>& level) {
  const std::size_t n = a.node_count();
  if (n == 0) {
    return 0.0;
  }
  level.assign(n, 0.0);
  const auto topo = a.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    double best_succ = 0.0;
    for (const NodeId w : g.successors(v)) {
      best_succ = std::max(best_succ, level[w]);
    }
    level[v] = est_wcet[v] + best_succ;
  }
  double cp = level[0];
  for (const double l : level) {
    cp = std::max(cp, l);
  }
  if (cp <= 0.0) {
    return 0.0;
  }
  double total = 0.0;
  for (const double c : est_wcet) {
    total += c;
  }
  return total / cp;
}

}  // namespace

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kPure:
      return "PURE";
    case MetricKind::kNorm:
      return "NORM";
    case MetricKind::kAdaptG:
      return "ADAPT-G";
    case MetricKind::kAdaptL:
      return "ADAPT-L";
  }
  return "unknown";
}

std::span<const MetricKind> all_metric_kinds() {
  static constexpr std::array<MetricKind, 4> kAll = {
      MetricKind::kPure, MetricKind::kNorm, MetricKind::kAdaptG,
      MetricKind::kAdaptL};
  return kAll;
}

DeadlineMetric::DeadlineMetric(MetricKind kind, MetricParams params)
    : kind_(kind), params_(params) {
  DSSLICE_REQUIRE(params_.k_global >= 0.0, "k_G must be non-negative");
  DSSLICE_REQUIRE(params_.k_local >= 0.0, "k_L must be non-negative");
  DSSLICE_REQUIRE(params_.threshold_factor >= 0.0,
                  "threshold factor must be non-negative");
}

bool DeadlineMetric::is_adaptive() const {
  return kind_ == MetricKind::kAdaptG || kind_ == MetricKind::kAdaptL;
}

double DeadlineMetric::effective_threshold(
    std::span<const double> est_wcet) const {
  if (params_.threshold_override.has_value()) {
    return *params_.threshold_override;
  }
  if (est_wcet.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double c : est_wcet) {
    sum += c;
  }
  return params_.threshold_factor * sum / static_cast<double>(est_wcet.size());
}

void DeadlineMetric::weights_into(const Application& app,
                                  std::span<const double> est_wcet,
                                  std::size_t processor_count,
                                  const ResourceModel* resources,
                                  std::vector<double>& out,
                                  MetricWorkspace* workspace) const {
  DSSLICE_REQUIRE(est_wcet.size() == app.task_count(),
                  "estimate vector size mismatch");
  DSSLICE_REQUIRE(processor_count > 0, "need at least one processor");
  out.resize(est_wcet.size());
  std::copy(est_wcet.begin(), est_wcet.end(), out.begin());
  if (!is_adaptive()) {
    return;  // PURE and NORM use c̄ directly.
  }

  const double threshold = effective_threshold(est_wcet);
  const double m = static_cast<double>(processor_count);
  const TaskGraph& g = app.graph();
  const GraphAnalysis& analysis = app.analysis();
  MetricWorkspace local;
  MetricWorkspace& ws = workspace != nullptr ? *workspace : local;

  if (kind_ == MetricKind::kAdaptG) {
    // ĉ_i = c̄_i (1 + k_G ξ / m) for c̄_i ≥ c_thres (Eq. 6).
    const double xi =
        average_parallelism_cached(g, analysis, est_wcet, ws.level);
    const double surplus = 1.0 + params_.k_global * xi / m;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (est_wcet[i] >= threshold) {
        out[i] = est_wcet[i] * surplus;
      }
    }
    return;
  }

  if (resources != nullptr) {
    // Resource-aware ADAPT-L (ADAPT-LR extension, §7.3): parallel tasks
    // sharing an exclusive resource serialize one-at-a-time regardless of
    // the processor count, so they contribute at full weight.
    DSSLICE_REQUIRE(resources->task_count() == app.task_count(),
                    "resource model size mismatch");
    for (NodeId i = 0; i < out.size(); ++i) {
      if (est_wcet[i] < threshold) {
        continue;
      }
      std::size_t resource_rivals = 0;
      analysis.for_each_parallel(i, [&](NodeId j) {
        if (resources->conflicts(i, j)) {
          ++resource_rivals;
        }
      });
      const double psi =
          static_cast<double>(analysis.parallel_set_size(i));
      out[i] = est_wcet[i] *
               (1.0 + params_.k_local * psi / m +
                params_.k_resource * static_cast<double>(resource_rivals));
    }
    return;
  }

  // ADAPT-L: ĉ_i = c̄_i (1 + k_L |Ψ_i| / m) for c̄_i ≥ c_thres (Eq. 8).
  //
  // Optional temporal filter (see MetricParams::temporal_parallel_sets):
  // static execution bounds per task — earliest start via a forward pass
  // from input arrivals, latest finish via a backward pass from E-T-E
  // deadlines, both over the estimated WCETs and the cached topological
  // order.
  if (params_.temporal_parallel_sets) {
    const auto topo = analysis.topological_order();
    std::vector<Time>& est_start = ws.est_start;
    std::vector<Time>& lft_finish = ws.lft_finish;
    est_start.assign(out.size(), kTimeZero);
    lft_finish.assign(out.size(), kTimeInfinity);
    for (const NodeId v : topo) {
      const auto preds = g.predecessors(v);
      Time start = preds.empty() ? app.input_arrival(v) : kTimeZero;
      for (const NodeId u : preds) {
        start = std::max(start, est_start[u] + est_wcet[u]);
      }
      est_start[v] = start;
    }
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId v = *it;
      const auto succs = g.successors(v);
      Time finish = succs.empty() && app.has_ete_deadline(v)
                        ? app.ete_deadline(v)
                        : kTimeInfinity;
      for (const NodeId s : succs) {
        finish = std::min(finish, lft_finish[s] - est_wcet[s]);
      }
      lft_finish[v] = finish;
    }
    for (NodeId i = 0; i < out.size(); ++i) {
      if (est_wcet[i] < threshold) {
        continue;
      }
      std::size_t count = 0;
      analysis.for_each_parallel(i, [&](NodeId j) {
        // Rivals only when the static frames can overlap.
        if (est_start[j] < lft_finish[i] && est_start[i] < lft_finish[j]) {
          ++count;
        }
      });
      const double psi = static_cast<double>(count);
      out[i] = est_wcet[i] * (1.0 + params_.k_local * psi / m);
    }
    return;
  }

  for (NodeId i = 0; i < out.size(); ++i) {
    if (est_wcet[i] < threshold) {
      continue;
    }
    const double psi = static_cast<double>(analysis.parallel_set_size(i));
    out[i] = est_wcet[i] * (1.0 + params_.k_local * psi / m);
  }
}

double DeadlineMetric::path_value(Time window, double sum_weight,
                                  std::size_t count) const {
  if (count == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const double laxity = window - sum_weight;
  if (kind_ == MetricKind::kNorm) {
    if (sum_weight <= 0.0) {
      return laxity < 0.0 ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
    }
    return laxity / sum_weight;  // Eq. 2
  }
  return laxity / static_cast<double>(count);  // Eqs. 4 and shared ADAPT form
}

void DeadlineMetric::slices_into(Time window,
                                 std::span<const double> path_weights,
                                 std::vector<double>& out) const {
  DSSLICE_REQUIRE(!path_weights.empty(), "cannot slice an empty path");
  const std::size_t n = path_weights.size();
  double sum = 0.0;
  for (const double w : path_weights) {
    DSSLICE_REQUIRE(w >= 0.0, "negative path weight");
    sum += w;
  }
  out.resize(n);
  if (kind_ == MetricKind::kNorm && sum > 0.0) {
    // d_i = c̄_i (1 + R) with R = (window - sum)/sum, i.e. d_i ∝ weight.
    const double scale = window / sum;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = path_weights[i] * scale;
    }
    return;
  }
  // Equal-share laxity: d_i = w_i + (window - sum)/n (Eq. 5; also Eqs. 3/6/8
  // composition for the adaptive metrics, and the degenerate NORM fallback
  // when all weights are zero).
  const double share = (window - sum) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = path_weights[i] + share;
  }
}

void DeadlineMetric::adaptive_slices_into(Time window,
                                          std::span<const double> path_weights,
                                          std::span<const double> path_est,
                                          std::vector<double>& out) const {
  DSSLICE_REQUIRE(path_weights.size() == path_est.size(),
                  "weight / estimate length mismatch");
  DSSLICE_REQUIRE(!path_weights.empty(), "cannot slice an empty path");
  if (!is_adaptive()) {
    slices_into(window, path_weights, out);
    return;
  }
  const std::size_t n = path_weights.size();
  double sum_est = 0.0;    // Σ c̄ along the path
  double sum_extra = 0.0;  // Σ (ĉ − c̄): requested virtual inflation
  for (std::size_t i = 0; i < n; ++i) {
    DSSLICE_REQUIRE(path_weights[i] >= path_est[i] - 1e-12,
                    "virtual execution time below the estimate");
    sum_est += path_est[i];
    sum_extra += path_weights[i] - path_est[i];
  }
  const double surplus = window - sum_est;  // true laxity of the window
  out.resize(n);
  if (surplus >= sum_extra) {
    // Enough laxity to honour every virtual execution time: exactly the
    // paper's d_i = ĉ_i + (window − Σĉ)/n.
    const double share = (surplus - sum_extra) / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = path_weights[i] + share;
    }
    return;
  }
  if (surplus > 0.0 && sum_extra > 0.0) {
    // Partial surplus: scale the inflation so exactly the available laxity
    // is distributed — "only certain tasks are allotted extra laxities"
    // (§4.5) means adaptivity may never consume another task's required
    // execution time.
    const double scale = surplus / sum_extra;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = path_est[i] + (path_weights[i] - path_est[i]) * scale;
    }
    return;
  }
  // No surplus at all: the adaptive metrics degenerate to PURE on the real
  // estimates (the window is infeasible; distribute the shortfall equally).
  const double share = surplus / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = path_est[i] + share;
  }
}

}  // namespace dsslice
