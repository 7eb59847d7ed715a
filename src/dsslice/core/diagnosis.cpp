#include "dsslice/core/diagnosis.hpp"

#include <algorithm>
#include <limits>

#include "dsslice/util/check.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

std::string to_string(MissCause cause) {
  switch (cause) {
    case MissCause::kWindowTooSmall:
      return "window-too-small";
    case MissCause::kCommunication:
      return "communication";
    case MissCause::kContention:
      return "contention";
    case MissCause::kEligibility:
      return "eligibility";
  }
  return "unknown";
}

MissDiagnosis diagnose_failure(const Application& app,
                               const Platform& platform,
                               const DeadlineAssignment& assignment,
                               const SchedulerResult& result) {
  DSSLICE_REQUIRE(result.failed_task.has_value(),
                  "diagnosis requires a failed task");
  const NodeId v = *result.failed_task;
  const TaskGraph& g = app.graph();
  const Task& task = app.task(v);
  const Window& window = assignment.windows[v];

  MissDiagnosis diag;
  diag.task = v;

  // Best (fastest eligible, present) class and the latest feasible start.
  double best_wcet = std::numeric_limits<double>::infinity();
  ProcessorId best_proc = 0;
  bool any_eligible = false;
  for (ProcessorId p = 0; p < platform.processor_count(); ++p) {
    const ProcessorClassId e = platform.class_of(p);
    if (!task.eligible(e)) {
      continue;
    }
    any_eligible = true;
    if (task.wcet(e) < best_wcet) {
      best_wcet = task.wcet(e);
      best_proc = p;
    }
  }
  if (!any_eligible) {
    diag.cause = MissCause::kEligibility;
    diag.summary = "task " + task.name +
                   ": no processor of an eligible class on this platform";
    return diag;
  }
  diag.latest_feasible_start = window.deadline - best_wcet;

  // Earliest possible start ignoring processor contention: window arrival
  // plus the best-over-processors data availability.
  Time earliest = kTimeInfinity;
  for (ProcessorId p = 0; p < platform.processor_count(); ++p) {
    if (!task.eligible(platform.class_of(p))) {
      continue;
    }
    Time bound = window.arrival;
    for (const NodeId u : g.predecessors(v)) {
      if (!result.schedule.placed(u)) {
        continue;  // partial schedule; treat as unconstrained
      }
      const ScheduledTask& pe = result.schedule.entry(u);
      const double items = g.message_items(u, v).value_or(0.0);
      bound = std::max(bound,
                       pe.finish + platform.comm_delay(pe.processor, p,
                                                       items));
    }
    earliest = std::min(earliest, bound);
  }
  diag.earliest_possible_start = earliest;

  if (window.length() + kTimeTolerance < best_wcet) {
    diag.cause = MissCause::kWindowTooSmall;
    diag.summary = "task " + task.name + ": window " + to_string(window) +
                   " shorter than its fastest execution " +
                   format_fixed(best_wcet, 1) +
                   " — a deadline-distribution failure";
    return diag;
  }
  if (earliest > diag.latest_feasible_start + kTimeTolerance) {
    diag.cause = MissCause::kCommunication;
    diag.summary = "task " + task.name + ": predecessor data arrives at " +
                   format_fixed(earliest, 1) + ", after the latest feasible"
                   " start " + format_fixed(diag.latest_feasible_start, 1);
    return diag;
  }

  // Otherwise the window and data were fine: rivals ate the window.
  diag.cause = MissCause::kContention;
  for (const NodeId other : result.schedule.on_processor(best_proc)) {
    const ScheduledTask& e = result.schedule.entry(other);
    if (e.finish > window.arrival + kTimeTolerance &&
        e.start < window.deadline - kTimeTolerance) {
      diag.rivals.push_back(other);
    }
  }
  std::sort(diag.rivals.begin(), diag.rivals.end());
  diag.summary =
      "task " + task.name + ": window " + to_string(window) +
      " consumed by " + std::to_string(diag.rivals.size()) +
      " rival(s) on its best processor — a contention failure";
  return diag;
}

}  // namespace dsslice
