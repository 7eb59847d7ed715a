#include "dsslice/core/slicing.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "dsslice/core/anchors.hpp"
#include "dsslice/core/critical_path.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

// Span names must be static strings; one literal per metric kind.
const char* slicing_span_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kPure:
      return "slice.run.pure";
    case MetricKind::kNorm:
      return "slice.run.norm";
    case MetricKind::kAdaptG:
      return "slice.run.adapt_g";
    case MetricKind::kAdaptL:
      return "slice.run.adapt_l";
  }
  return "slice.run";
}

}  // namespace

std::string SlicingTrace::to_string(const Application& app) const {
  std::string out;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const SlicingPass& pass = passes[k];
    out += "pass " + std::to_string(k) + " R=";
    {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.3f", pass.metric_value);
      out += buffer;
    }
    out += " window [";
    {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.2f, %.2f", pass.window_start,
                    pass.window_end);
      out += buffer;
    }
    out += "]:";
    for (std::size_t i = 0; i < pass.path.size(); ++i) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "(%.1f)", pass.slices[i]);
      out += (i == 0 ? " " : " -> ") + app.task(pass.path[i]).name + buffer;
    }
    out += "\n";
  }
  return out;
}

DeadlineAssignment run_slicing(const Application& app,
                               std::span<const double> est_wcet,
                               const DeadlineMetric& metric,
                               std::size_t processor_count,
                               SlicingStats* stats,
                               const SlicingOptions& options) {
  DeadlineAssignment assignment;
  run_slicing_into(assignment, app, est_wcet, metric, processor_count, stats,
                   options);
  return assignment;
}

void run_slicing_into(DeadlineAssignment& assignment, const Application& app,
                      std::span<const double> est_wcet,
                      const DeadlineMetric& metric,
                      std::size_t processor_count, SlicingStats* stats,
                      const SlicingOptions& options) {
  const std::size_t n = app.task_count();
  DSSLICE_REQUIRE(est_wcet.size() == n, "estimate vector size mismatch");
  DSSLICE_REQUIRE(processor_count > 0, "need at least one processor");

  DSSLICE_SPAN(slicing_span_name(metric.kind()));

  // The graph's CSR supplies the adjacency and the memoized analysis the
  // topological order and (for ADAPT-L) the parallel sets; nothing
  // graph-structural is recomputed in this run. Requires an acyclic graph,
  // as slicing always has.
  const TaskGraph& g = app.graph();
  const GraphAnalysis& analysis = app.analysis();
  for (NodeId v = 0; v < n; ++v) {
    if (g.successors(v).empty()) {
      DSSLICE_REQUIRE(app.has_ete_deadline(v),
                      "output task without an E-T-E deadline");
    }
  }

  SlicingWorkspace local_ws;
  SlicingWorkspace& ws =
      options.workspace != nullptr ? *options.workspace : local_ws;

  // Step 1: metric weights (ĉ for adaptive metrics, c̄ otherwise) and the
  // anchor set initialized from the application's temporal requirements.
  metric.weights_into(app, est_wcet, processor_count, options.resources,
                      ws.weights, &ws.metric);
  const std::vector<double>& weights = ws.weights;
  AnchorState anchors(app);

  assignment.windows.resize(n);
  assignment.pass_of.assign(n, -1);

  if (options.trace != nullptr) {
    options.trace->passes.clear();
  }

  SlicingStats local_stats;

  // Steps 2–14: peel critical paths until no task remains.
  CriticalPath& path = ws.path;
  while (ws.search.find(g, analysis, anchors, weights, metric, path)) {
    if (local_stats.passes == 0) {
      local_stats.first_path_metric = path.metric_value;
      local_stats.first_path_length = path.nodes.size();
    }

    // Step 4: distribute the path window over its tasks. Slice boundaries
    // are cumulative prefix sums so they tile [start, end] exactly.
    ws.path_weights.clear();
    ws.path_est.clear();
    ws.path_weights.reserve(path.nodes.size());
    ws.path_est.reserve(path.nodes.size());
    for (const NodeId v : path.nodes) {
      ws.path_weights.push_back(weights[v]);
      ws.path_est.push_back(est_wcet[v]);
    }
    metric.adaptive_slices_into(path.window_length(), ws.path_weights,
                                ws.path_est, ws.slices);
    const std::vector<double>& d = ws.slices;

    if (options.trace != nullptr) {
      options.trace->passes.push_back(SlicingPass{
          path.nodes, path.window_start, path.window_end,
          path.metric_value, d});
    }

    Time boundary = path.window_start;
    for (std::size_t k = 0; k < path.nodes.size(); ++k) {
      const NodeId v = path.nodes[k];
      const Time lo = boundary;
      boundary += d[k];
      const Time hi =
          (k + 1 == path.nodes.size()) ? path.window_end : boundary;

      Window w{lo, hi};
      // A mid-path task may carry anchors from earlier passes (cross arcs
      // to already-assigned spines); shrink its window into them while
      // keeping the boundaries — and thus non-overlap — intact.
      if (anchors.has_arrival_anchor(v)) {
        w.arrival = std::max(w.arrival, anchors.arrival_anchor(v));
      }
      if (anchors.has_deadline_anchor(v)) {
        w.deadline = std::min(w.deadline, anchors.deadline_anchor(v));
      }
      anchors.mark_assigned(v, w);
      assignment.windows[v] = w;
      assignment.pass_of[v] = static_cast<int>(local_stats.passes);
    }

    // Steps 5–12: propagate anchors to unassigned neighbours of the spine.
    for (const NodeId v : path.nodes) {
      const Window& w = anchors.window(v);
      for (const NodeId u : g.predecessors(v)) {
        if (!anchors.assigned(u)) {
          anchors.tighten_deadline(u, w.arrival);
        }
      }
      for (const NodeId s : g.successors(v)) {
        if (!anchors.assigned(s)) {
          anchors.tighten_arrival(s, w.deadline);
        }
      }
    }

    ++local_stats.passes;
    DSSLICE_CHECK(local_stats.passes <= n, "slicing failed to converge");
  }
  DSSLICE_CHECK(anchors.all_assigned(),
                "tasks remain but no critical path was found");

  // Quality diagnostics.
  local_stats.min_laxity = std::numeric_limits<double>::infinity();
  local_stats.windows_feasible = true;
  for (NodeId v = 0; v < n; ++v) {
    const double laxity = assignment.windows[v].length() - est_wcet[v];
    local_stats.min_laxity = std::min(local_stats.min_laxity, laxity);
    if (laxity < 0.0) {
      local_stats.windows_feasible = false;
    }
  }
  DSSLICE_COUNT("slice.runs", 1);
  DSSLICE_COUNT("slice.passes", local_stats.passes);
  DSSLICE_COUNT("slice.tasks", n);
  if (stats != nullptr) {
    *stats = local_stats;
  }
}

DeadlineAssignment run_slicing(const Application& app, MetricKind metric_kind,
                               std::size_t processor_count,
                               WcetEstimation wcet_strategy,
                               const MetricParams& params,
                               SlicingStats* stats) {
  const std::vector<double> est = estimate_wcets(app, wcet_strategy);
  const DeadlineMetric metric(metric_kind, params);
  return run_slicing(app, est, metric, processor_count, stats);
}

}  // namespace dsslice
