// Baseline deadline-driven task assignment and scheduling (§5.4).
//
// A list-scheduling variant of earliest-deadline-first: at each step the
// ready task (all predecessors scheduled) with the closest absolute deadline
// is selected and placed on the eligible processor yielding the earliest
// start time, honouring its arrival time (slice start) and interprocessor
// communication delays from its predecessors. Non-preemptive, static
// assignment, O(n²·m).
//
// Two placement policies are provided:
//  * kAppend    — a task starts no earlier than the processor's last finish
//                 (the paper's baseline).
//  * kInsertion — a task may fill an earlier idle gap (extension, §7.3).
//
// Optional co-location groups restrict where tasks may go: communication
// clustering (sched/clustering.hpp) and the annealer's fixed mappings
// (sched/annealing_scheduler.hpp) both run through this one loop.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/resources.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/sched/schedule.hpp"

namespace dsslice {

enum class PlacementPolicy {
  kAppend,
  kInsertion,
};

std::string to_string(PlacementPolicy policy);

struct SchedulerOptions {
  PlacementPolicy placement = PlacementPolicy::kAppend;
  /// When true (default) the run aborts at the first deadline miss — the
  /// paper's success/failure test. When false, every task is placed and
  /// misses are reported through the lateness measures (used by the
  /// secondary-quality experiments).
  bool abort_on_miss = true;
  /// Simulate contention on the time-multiplexed shared bus instead of the
  /// paper's nominal (contention-free) delay model: each cross-processor
  /// message reserves an exclusive bus slot of `items × per-item delay`,
  /// serialized against all other transfers. Requires the platform's
  /// interconnect to be a SharedBus. Transfers are reported in
  /// SchedulerResult::bus_transfers.
  bool simulate_bus_contention = false;
};

/// One reserved slot on the shared bus (simulate_bus_contention mode).
struct BusTransfer {
  NodeId from = 0;
  NodeId to = 0;
  Time start = kTimeZero;
  Time finish = kTimeZero;

  bool operator==(const BusTransfer&) const = default;
};

struct SchedulerResult {
  Schedule schedule;
  /// True when every task was placed and met its absolute deadline.
  bool success = false;
  /// First task that missed its deadline or could not be placed.
  std::optional<NodeId> failed_task;
  /// Human-readable failure description (empty on success).
  std::string failure_reason;
  /// Bus reservations, populated only in simulate_bus_contention mode.
  std::vector<BusTransfer> bus_transfers;
};

/// Co-location constraints: every task of a group runs on one processor.
/// A group with a fixed processor runs there; a free group takes the
/// processor its first member is placed on, chosen (by the usual earliest
/// start, finish, id rule) only among processors whose class every member
/// of the group can run on. Borrowed spans; they must outlive the run.
struct CoLocation {
  /// Group of each task, in [0, group_count).
  std::span<const std::size_t> group_of;
  std::size_t group_count = 0;
  /// Processor per group, kAnyProcessor for a free group; empty when every
  /// group is free.
  std::span<const ProcessorId> fixed_processor = {};
};

/// CoLocation::fixed_processor entry of a free group.
inline constexpr ProcessorId kAnyProcessor = static_cast<ProcessorId>(-1);

class SchedulerWorkspace;

class EdfListScheduler {
 public:
  explicit EdfListScheduler(SchedulerOptions options = {});

  /// Schedules the application under the given deadline assignment. The
  /// assignment supplies each task's arrival (earliest start) and absolute
  /// deadline; actual per-class WCETs come from the task table.
  ///
  /// `resources` (optional) adds exclusive shared-resource constraints
  /// (§7.3 future work): a task additionally waits until every resource it
  /// requires is free, and holds them for its whole execution. Only
  /// supported with append placement.
  ///
  /// `groups` (optional) adds co-location constraints (see CoLocation).
  SchedulerResult run(const Application& app,
                      const DeadlineAssignment& assignment,
                      const Platform& platform,
                      const ResourceModel* resources = nullptr,
                      const CoLocation* groups = nullptr) const;

  /// Allocation-free variant for hot loops: writes the (bit-identical)
  /// result into `result`, reusing its storage and `ws`'s buffers. After a
  /// warm-up call of the same scenario shape, repeat calls perform zero
  /// scheduler-state allocations (see SchedulerWorkspace::grow_events).
  void run_into(SchedulerResult& result, SchedulerWorkspace& ws,
                const Application& app, const DeadlineAssignment& assignment,
                const Platform& platform,
                const ResourceModel* resources = nullptr,
                const CoLocation* groups = nullptr) const;

  const SchedulerOptions& options() const { return options_; }

 private:
  SchedulerOptions options_;
};

}  // namespace dsslice
