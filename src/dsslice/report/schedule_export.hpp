// Schedule export: machine-readable renderings of a schedule plus its
// deadline assignment, for external visualization (e.g. a Gantt viewer or
// a notebook) and for diffing schedules in tests.
#pragma once

#include <string>

#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/sched/schedule.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

/// CSV with one row per scheduled task:
/// task,name,processor,start,finish,arrival,deadline,laxity_used
/// (laxity_used = deadline − finish; negative means the deadline was
/// missed). Unplaced tasks are omitted. Rows are ordered by task id.
std::string schedule_to_csv(const Application& app,
                            const DeadlineAssignment& assignment,
                            const Schedule& schedule);

/// Compact JSON document:
/// {"makespan":..,"processors":m,"tasks":[{"id":..,"name":..,"proc":..,
///  "start":..,"finish":..,"arrival":..,"deadline":..},...]}
/// Names are escaped per RFC 8259 (quote/backslash/control characters).
std::string schedule_to_json(const Application& app,
                             const DeadlineAssignment& assignment,
                             const Schedule& schedule);

}  // namespace dsslice
