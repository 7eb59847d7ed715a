#include "dsslice/core/jitter.hpp"

#include <algorithm>
#include <limits>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// Worst-case nominal message delay over any processor pair.
Time worst_pair_delay(const Platform& platform, double items) {
  Time worst = kTimeZero;
  for (ProcessorId a = 0; a < platform.processor_count(); ++a) {
    for (ProcessorId b = 0; b < platform.processor_count(); ++b) {
      worst = std::max(worst, platform.comm_delay(a, b, items));
    }
  }
  return worst;
}

}  // namespace

std::vector<JitterBound> precedence_release_jitter(const Application& app,
                                                   const Platform& platform) {
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  const GraphAnalysis& analysis = app.analysis();

  const auto est_min = estimate_wcets(app, WcetEstimation::kMin);
  const auto est_max = estimate_wcets(app, WcetEstimation::kMax);

  std::vector<JitterBound> bounds(n);
  for (const NodeId v : analysis.topological_order()) {
    Time earliest = g.is_input(v) ? app.input_arrival(v) : kTimeZero;
    Time latest = earliest;
    for (const NodeId u : g.predecessors(v)) {
      // Best case: predecessor released earliest, ran its fastest class,
      // and is co-located (zero communication).
      earliest = std::max(earliest,
                          bounds[u].earliest_release + est_min[u]);
      // Worst case: predecessor released latest, ran its slowest class,
      // and the message crossed the slowest processor pair.
      const double items = g.message_items(u, v).value_or(0.0);
      latest = std::max(latest, bounds[u].latest_release + est_max[u] +
                                    worst_pair_delay(platform, items));
    }
    bounds[v] = JitterBound{earliest, std::max(earliest, latest)};
  }
  return bounds;
}

std::vector<JitterBound> sliced_release_jitter(
    const Application& app, const DeadlineAssignment& assignment) {
  DSSLICE_REQUIRE(assignment.windows.size() == app.task_count(),
                  "assignment size mismatch");
  std::vector<JitterBound> bounds(app.task_count());
  for (NodeId v = 0; v < app.task_count(); ++v) {
    // Slice arrivals are constants: release = a_i exactly, jitter 0.
    bounds[v] = JitterBound{assignment.windows[v].arrival,
                            assignment.windows[v].arrival};
  }
  return bounds;
}

JitterSummary summarize_jitter(std::span<const JitterBound> bounds) {
  JitterSummary summary;
  if (bounds.empty()) {
    return summary;
  }
  Time total = kTimeZero;
  for (const JitterBound& b : bounds) {
    summary.max_jitter = std::max(summary.max_jitter, b.jitter());
    total += b.jitter();
  }
  summary.mean_jitter = total / static_cast<double>(bounds.size());
  return summary;
}

}  // namespace dsslice
