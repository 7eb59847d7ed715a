// Preemptive EDF scheduling of sliced task sets.
//
// The paper evaluates under a non-preemptive time-driven dispatcher but
// stresses (§2, implications I1/I2, §7.3) that the slicing technique is not
// restricted to that run-time model. This simulator executes the windows
// under *preemptive* EDF with static assignment:
//
//  * a task is bound to one processor at its first dispatch (the eligible
//    processor with the least backlog at release — mirroring §3.3's static
//    assignment assumption), and may later be preempted and resumed on that
//    processor, never migrated (per-class WCETs make mid-execution
//    migration ill-defined on unrelated machines);
//  * each processor runs the earliest-absolute-deadline released task among
//    those bound to it, preempting whenever a more urgent one is released;
//  * a task is released when its window opens, its predecessors have
//    completed, and their messages have arrived (nominal bus delays).
//
// Because windows already serialize precedence chains, preemption's benefit
// is confined to resolving the window overlaps between parallel branches —
// quantified against the non-preemptive baseline in the scheduler ablation.
#pragma once

#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"

namespace dsslice {

struct PreemptiveOptions {
  /// Abort at the first deadline miss, or simulate to completion.
  bool abort_on_miss = true;
};

/// One executed slice of a task (between a dispatch and a preemption or
/// completion).
struct ExecutionSlice {
  NodeId task = 0;
  ProcessorId processor = 0;
  Time start = kTimeZero;
  Time finish = kTimeZero;
};

struct PreemptiveResult {
  bool success = false;
  std::optional<NodeId> failed_task;
  std::string failure_reason;
  /// Completion time per task (finish of its last slice); meaningful for
  /// tasks that completed.
  std::vector<Time> completion;
  /// Processor each task was bound to.
  std::vector<ProcessorId> processor_of;
  /// Preemption count across the whole simulation.
  std::size_t preemptions = 0;
  /// The execution trace, in dispatch order.
  std::vector<ExecutionSlice> slices;
};

class SchedulerWorkspace;

class PreemptiveEdfScheduler {
 public:
  explicit PreemptiveEdfScheduler(PreemptiveOptions options = {});

  PreemptiveResult run(const Application& app,
                       const DeadlineAssignment& assignment,
                       const Platform& platform) const;

  /// Allocation-free variant for hot loops: writes the (bit-identical)
  /// result into `result`, reusing its storage and `ws` buffers.
  void run_into(PreemptiveResult& result, SchedulerWorkspace& ws,
                const Application& app, const DeadlineAssignment& assignment,
                const Platform& platform) const;

  const PreemptiveOptions& options() const { return options_; }

 private:
  PreemptiveOptions options_;
};

/// Independent validation of a preemptive execution trace: slices of one
/// processor never overlap, per-task slice time sums to its WCET on the
/// bound class, no slice starts before the task's release constraints, and
/// completions respect deadlines (optional).
std::vector<std::string> validate_preemptive_trace(
    const Application& app, const Platform& platform,
    const DeadlineAssignment& assignment, const PreemptiveResult& result,
    bool check_deadlines = true, double epsilon = kTimeTolerance);

}  // namespace dsslice
