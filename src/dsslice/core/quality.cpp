#include "dsslice/core/quality.hpp"

#include <algorithm>
#include <limits>

#include "dsslice/util/check.hpp"

namespace dsslice {

std::vector<double> laxities(const DeadlineAssignment& assignment,
                             std::span<const double> est_wcet) {
  DSSLICE_REQUIRE(assignment.windows.size() == est_wcet.size(),
                  "assignment / estimate size mismatch");
  std::vector<double> out(est_wcet.size());
  for (std::size_t i = 0; i < est_wcet.size(); ++i) {
    out[i] = assignment.windows[i].length() - est_wcet[i];
  }
  return out;
}

double min_laxity(const DeadlineAssignment& assignment,
                  std::span<const double> est_wcet) {
  const auto xs = laxities(assignment, est_wcet);
  DSSLICE_REQUIRE(!xs.empty(), "empty assignment");
  return *std::min_element(xs.begin(), xs.end());
}

double max_lateness(const Schedule& schedule,
                    const DeadlineAssignment& assignment) {
  // One pass over the scheduled tasks' latenesses, none materialized. The
  // fold keeps std::max_element's rule — replace only when `worst < x` — so
  // NaNs and ties resolve exactly as they would over a vector of them.
  bool any = false;
  double worst = 0.0;
  for (NodeId v = 0; v < assignment.windows.size(); ++v) {
    if (!schedule.placed(v)) {
      continue;
    }
    const double x = schedule.entry(v).finish - assignment.windows[v].deadline;
    if (!any || worst < x) {
      worst = x;
    }
    any = true;
  }
  DSSLICE_REQUIRE(any, "no scheduled tasks");
  return worst;
}

QualityReport assess_quality(const DeadlineAssignment& assignment,
                             std::span<const double> est_wcet,
                             const Schedule& schedule) {
  QualityReport r;
  r.min_laxity = min_laxity(assignment, est_wcet);
  if (schedule.placed_count() > 0) {
    r.max_lateness = max_lateness(schedule, assignment);
    r.all_deadlines_met = schedule.complete() && r.max_lateness <= 0.0;
  } else {
    r.max_lateness = std::numeric_limits<double>::infinity();
    r.all_deadlines_met = false;
  }
  return r;
}

}  // namespace dsslice
