// Quality measures for deadline distributions and schedules (§4.2).
#pragma once

#include <span>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/sched/schedule.hpp"

namespace dsslice {

/// Laxity X_i = d_i − c̄_i of each task: slack available before scheduling.
std::vector<double> laxities(const DeadlineAssignment& assignment,
                             std::span<const double> est_wcet);

/// min_i X_i — the paper's secondary pre-scheduling quality measure.
double min_laxity(const DeadlineAssignment& assignment,
                  std::span<const double> est_wcet);

/// max_i L_i over the scheduled tasks, where the lateness L_i = f_i − D_i
/// is non-positive for a valid schedule; tasks absent from the schedule are
/// skipped. The paper's secondary post-scheduling quality measure: how
/// close to infeasibility the schedule is (closest-to-zero lateness).
double max_lateness(const Schedule& schedule,
                    const DeadlineAssignment& assignment);

/// Combined report used by the evaluation framework and examples.
struct QualityReport {
  double min_laxity = 0.0;
  double max_lateness = 0.0;
  bool all_deadlines_met = false;
};

QualityReport assess_quality(const DeadlineAssignment& assignment,
                             std::span<const double> est_wcet,
                             const Schedule& schedule);

}  // namespace dsslice
