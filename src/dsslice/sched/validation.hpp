// Independent schedule validation — the test oracle for all schedulers.
//
// Checks a complete(d) schedule against every constraint of the system
// model, without reusing scheduler internals:
//  * eligibility: each task runs on a processor of an eligible class;
//  * duration: finish − start equals the task's WCET on that class;
//  * window: start ≥ arrival and finish ≤ absolute deadline (optional —
//    lateness studies validate everything else while allowing misses);
//  * exclusivity: busy intervals on one processor do not overlap;
//  * precedence + communication: for every arc u→v, v starts no earlier
//    than f_u plus the interprocessor message delay.
#pragma once

#include <string>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/resources.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"
#include "dsslice/sched/schedule.hpp"

namespace dsslice {

struct ValidationOptions {
  /// When false, deadline misses are not reported (start/arrival and all
  /// structural constraints still are).
  bool check_deadlines = true;
  /// Numerical slack for comparisons (all quantities derive from integral
  /// inputs, so the default kTimeTolerance only forgives representation
  /// error).
  double epsilon = kTimeTolerance;
};

/// Returns a list of violated constraints (empty = valid schedule).
std::vector<std::string> validate_schedule(const Application& app,
                                           const Platform& platform,
                                           const DeadlineAssignment& assignment,
                                           const Schedule& schedule,
                                           const ValidationOptions& options = {});

/// Validates exclusive-resource constraints (§7.3): no two tasks sharing a
/// resource may overlap in time, regardless of their processors.
std::vector<std::string> validate_resource_exclusivity(
    const Application& app, const Schedule& schedule,
    const ResourceModel& resources, double epsilon = kTimeTolerance);

/// Validates the bus reservations produced by the scheduler's
/// simulate_bus_contention mode against a schedule:
///  * exactly one transfer per cross-processor arc with a non-zero message
///    (and none for co-located or empty arcs);
///  * duration equals message items × the bus's per-item delay;
///  * a transfer starts no earlier than its producer finishes, and the
///    consumer starts no earlier than the transfer finishes;
///  * no two transfers overlap on the (single, time-multiplexed) bus.
std::vector<std::string> validate_bus_transfers(
    const Application& app, const Platform& platform,
    const Schedule& schedule, const std::vector<BusTransfer>& transfers,
    double epsilon = kTimeTolerance);

/// Validates a deadline assignment against the application's end-to-end
/// requirements: for every arc u→v, D_u ≤ a_v (slice non-overlap, I1/I2);
/// input arrivals respected; output deadlines not exceeded. This implies
/// the per-path constraint Σ d_i ≤ D_ete (Eq. 1).
std::vector<std::string> validate_assignment(const Application& app,
                                             const DeadlineAssignment& assignment,
                                             double epsilon = kTimeTolerance);

}  // namespace dsslice
