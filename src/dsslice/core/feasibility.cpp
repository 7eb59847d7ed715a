#include "dsslice/core/feasibility.hpp"

#include <algorithm>

#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

double worst_interval_load(const Application& app,
                           const DeadlineAssignment& assignment,
                           const Platform& platform) {
  const std::size_t n = app.task_count();
  DSSLICE_REQUIRE(assignment.windows.size() == n, "assignment size mismatch");
  const auto c_min = estimate_wcets(app, WcetEstimation::kMin);
  const double m = static_cast<double>(platform.processor_count());

  // Candidate interval endpoints: window arrivals (starts) and deadlines
  // (ends). Demand of [a, D] = Σ fastest work of tasks with
  // a ≤ arrival ∧ deadline ≤ D.
  std::vector<Time> starts;
  std::vector<Time> ends;
  starts.reserve(n);
  ends.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    starts.push_back(assignment.windows[v].arrival);
    ends.push_back(assignment.windows[v].deadline);
  }
  double worst = 0.0;
  for (const Time a : starts) {
    for (const Time d : ends) {
      if (d <= a + kTimeTolerance) {
        continue;
      }
      double demand = 0.0;
      for (NodeId v = 0; v < n; ++v) {
        const Window& w = assignment.windows[v];
        if (w.arrival >= a - kTimeTolerance && w.deadline <= d + kTimeTolerance) {
          demand += c_min[v];
        }
      }
      worst = std::max(worst, demand / (m * (d - a)));
    }
  }
  return worst;
}

FeasibilityReport check_necessary_conditions(
    const Application& app, const DeadlineAssignment& assignment,
    const Platform& platform) {
  const std::size_t n = app.task_count();
  DSSLICE_REQUIRE(assignment.windows.size() == n, "assignment size mismatch");
  FeasibilityReport report;
  const auto c_min = estimate_wcets(app, WcetEstimation::kMin);

  // Window fit.
  for (NodeId v = 0; v < n; ++v) {
    if (assignment.windows[v].length() + kTimeTolerance < c_min[v]) {
      report.violations.push_back(
          "task " + app.task(v).name + ": window " +
          to_string(assignment.windows[v]) + " cannot hold its fastest WCET " +
          format_fixed(c_min[v], 2));
    }
  }

  // Chain fit along arcs: from the earliest the predecessor can start to
  // the latest the successor may finish, both must fit serially.
  const TaskGraph& g = app.graph();
  for (const Arc& arc : g.arcs()) {
    const Window& wu = assignment.windows[arc.from];
    const Window& wv = assignment.windows[arc.to];
    const Time span = wv.deadline - wu.arrival;
    if (span + kTimeTolerance < c_min[arc.from] + c_min[arc.to]) {
      report.violations.push_back(
          "arc " + app.task(arc.from).name + " -> " + app.task(arc.to).name +
          ": combined span " + format_fixed(span, 2) +
          " cannot hold both executions");
    }
  }

  // Interval demand bound.
  const double load = worst_interval_load(app, assignment, platform);
  if (load > 1.0 + kTimeTolerance) {
    report.violations.push_back(
        "interval demand exceeds capacity by factor " +
        format_fixed(load, 3));
  }

  // E-T-E path bound: fastest critical path vs loosest deadline window.
  Time earliest_arrival = kTimeInfinity;
  for (const NodeId in : g.input_nodes()) {
    earliest_arrival = std::min(earliest_arrival, app.input_arrival(in));
  }
  Time latest_deadline = kTimeZero;
  for (const NodeId out : g.output_nodes()) {
    if (app.has_ete_deadline(out)) {
      latest_deadline = std::max(latest_deadline, app.ete_deadline(out));
    }
  }
  const double cp = critical_path_length(g, c_min);
  if (earliest_arrival + cp > latest_deadline + kTimeTolerance) {
    report.violations.push_back(
        "fastest critical path " + format_fixed(cp, 2) +
        " exceeds every end-to-end budget");
  }
  return report;
}

}  // namespace dsslice
