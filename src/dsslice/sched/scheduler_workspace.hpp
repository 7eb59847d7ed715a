// Reusable per-thread state for the scheduler engines — the simulation-side
// counterpart of core/slicing's SlicingWorkspace.
//
// Every scheduler in sched/ historically allocated its whole mutable state
// (ready lists, per-task flags, per-processor timelines, result vectors) on
// each call. A Monte-Carlo sweep schedules hundreds of thousands of
// scenarios per second, so those allocations — not the scheduling logic —
// dominated the profile. SchedulerWorkspace owns that state instead: the
// first scenario on a thread sizes the buffers, and every subsequent
// scenario of a similar size runs without touching the allocator.
//
// Two contracts matter:
//
//  * Bit-identical results. The engines that use this workspace must
//    produce exactly the schedules of the straightforward implementations
//    (pinned by tests/test_scheduler_equivalence.cpp against verbatim
//    copies of the legacy code). The ReadyTaskHeap below is keyed by the
//    *exact* total strict order (deadline, arrival, NodeId) that the legacy
//    linear scan minimized, so it pops the identical task regardless of
//    push order. The epsilon-based dispatcher cannot key a heap on its
//    (non-transitive) eps comparisons; instead it runs the legacy loop
//    restricted to live tasks — bitsets of running, candidate, arrived and
//    data-waiting tasks plus one heap of future arrivals — so the simulated
//    instant sequence, and with it every eps tie-break, is reproduced
//    exactly (see dispatch_scheduler.cpp).
//
//  * Observable allocation behaviour. grow_events() (util/growth.hpp)
//    counts every time a workspace-managed buffer had to grow its
//    capacity. Tests warm a workspace on a scenario batch, re-run the
//    batch, and assert the counter did not move — the allocation-free
//    claim is enforced, not assumed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <span>
#include <vector>

#include "dsslice/model/time.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"
#include "dsslice/sched/insertion_scheduler.hpp"
#include "dsslice/util/growth.hpp"

namespace dsslice {

/// Binary min-heap of ready tasks keyed by the exact strict total order
/// (deadline, arrival, NodeId) over a borrowed window table. Keys are
/// immutable while a task is in the heap (windows of ready tasks are never
/// rewritten), so no position index / decrease-key machinery is needed:
/// push and pop-min are the whole interface. Distinct ids make the order
/// total, hence the popped minimum is unique and independent of insertion
/// order — the property the bit-identical equivalence tests rely on.
class ReadyTaskHeap {
 public:
  /// Starts a run over `windows` (borrowed; must outlive the run). Keeps
  /// the heap storage from previous runs.
  void reset(std::span<const Window> windows) {
    windows_ = windows;
    heap_.clear();
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::size_t capacity() const { return heap_.capacity(); }

  void push(NodeId v) {
    heap_.push_back(v);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  /// Removes and returns the minimum under (deadline, arrival, NodeId).
  NodeId pop() {
    const NodeId top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t smallest = i;
      if (l < n && before(heap_[l], heap_[smallest])) {
        smallest = l;
      }
      if (r < n && before(heap_[r], heap_[smallest])) {
        smallest = r;
      }
      if (smallest == i) {
        break;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
    return top;
  }

 private:
  bool before(NodeId a, NodeId b) const {
    const Window& wa = windows_[a];
    const Window& wb = windows_[b];
    if (wa.deadline != wb.deadline) {
      return wa.deadline < wb.deadline;
    }
    if (wa.arrival != wb.arrival) {
      return wa.arrival < wb.arrival;
    }
    return a < b;
  }

  std::span<const Window> windows_;
  std::vector<NodeId> heap_;
};

/// Shared-bus data-ready bound of one task on every processor p:
///   max over predecessors u of finish_u + (proc_u == p ? 0 : delay_u).
/// The cross-processor contribution finish_u + delay_u does not depend on
/// p, so the two largest contributions from distinct source processors plus
/// a per-processor co-located finish maximum answer at(p) in O(1) after one
/// add() per predecessor. The caller computes each contribution, so both
/// schedulers keep their own delay arithmetic; the fold is pure exact
/// max-combining and therefore bit-identical to the per-processor loop.
class BusReadyFold {
 public:
  /// Starts a fold that keeps its co-located maxima in `local` (one slot
  /// per processor).
  void reset(std::span<Time> local) {
    local_ = local;
    std::fill(local_.begin(), local_.end(), kNoBound);
    cross1_ = cross2_ = kNoBound;
    cross1_proc_ = 0;
  }

  void add(ProcessorId proc, Time finish, Time contribution) {
    if (contribution > cross1_) {
      if (proc != cross1_proc_) {
        cross2_ = cross1_;  // the dethroned maximum is from another processor
      }
      cross1_ = contribution;
      cross1_proc_ = proc;
    } else if (proc != cross1_proc_ && contribution > cross2_) {
      cross2_ = contribution;
    }
    local_[proc] = std::max(local_[proc], finish);
  }

  /// The bound on processor p; −∞ for a task without predecessors.
  Time at(ProcessorId p) const {
    return std::max(p == cross1_proc_ ? cross2_ : cross1_, local_[p]);
  }

 private:
  static constexpr Time kNoBound = -std::numeric_limits<Time>::infinity();

  std::span<Time> local_;
  Time cross1_ = kNoBound;
  Time cross2_ = kNoBound;
  ProcessorId cross1_proc_ = 0;
};

/// One branch-and-bound placement option (kept here so the per-depth option
/// pools can live in the workspace).
struct BnbOption {
  ProcessorId proc = 0;
  Time start = kTimeZero;
  Time finishing = kTimeZero;
};

/// Engine state for every scheduler in sched/; the GrowthCounter base
/// sizes its buffers (fill/size/push) and counts their capacity growths.
class SchedulerWorkspace : public GrowthCounter {
 public:
  // ---- EDF list scheduler ----
  ReadyTaskHeap ready;
  std::vector<std::size_t> pred_count;      // unscheduled predecessors
  std::vector<ProcessorTimeline> timelines; // insertion placement
  std::vector<Time> resource_available;
  std::vector<Time> local_pred_bound;       // per-proc co-located pred max
  ProcessorTimeline bus;                    // committed bus reservations
  ProcessorTimeline bus_trial;              // tentative copy per candidate
  std::vector<BusTransfer> cand_transfers;
  std::vector<BusTransfer> best_transfers;
  std::vector<Time> pred_finish;            // per-predecessor caches of the
  std::vector<ProcessorId> pred_proc;       //   task being placed
  std::vector<ProcessorClassId> proc_class; // platform.class_of, cached per run
  std::vector<Time> proc_available;         // mirror of append availability
  std::vector<Time> placed_finish;          // per-task placement mirror, so
  std::vector<ProcessorId> placed_proc;     //   pred lookups skip Schedule::entry
  std::vector<ProcessorId> group_proc;      // co-location: processor per group
  std::vector<ProcessorClassId> group_class;  //   and m-class rows

  // ---- time-marching dispatcher ----
  std::vector<Window> windows;
  std::vector<std::size_t> preds_left;
  std::vector<char> started, done, lost;
  std::vector<char> shed;  // degraded-mode flags (DispatchControl::View)
  std::vector<Time> start_time;
  std::vector<Time> finish;
  std::vector<ProcessorId> proc_of;
  std::vector<ProcessorId> pinned;
  std::vector<Time> busy_until;
  std::vector<Time> known_from, known_until, surprise_down, down_at;
  std::vector<char> failure_handled;

  // ---- dispatcher live-task state ----
  std::vector<Time> dispatch_ready_at;       // n×m data-ready cache, set at
                                             //   release (preds final by then)
  std::vector<Time> dispatch_last_ready;     // max of a row over eligible
                                             //   procs; +∞ with none
  std::vector<std::uint64_t> dispatch_cand;  // released ∧ unstarted ∧ ¬lost
  std::vector<std::uint64_t> dispatch_arrived;  // candidates with arrival
                                                //   ≤ now + eps
  std::vector<std::uint64_t> dispatch_running;  // started ∧ ¬done
  std::vector<std::uint64_t> dispatch_wait;  // candidates that may still
                                             //   propose a data-ready instant
  std::vector<std::pair<Time, NodeId>> arrival_heap;  // (arrival, task) of
                                                      //   unarrived candidates
  std::vector<ProcessorId> free_procs;       // idle+alive procs, per pass

  // ---- preemptive EDF simulator ----
  std::vector<char> task_released, task_completed;
  std::vector<Time> task_release;
  std::vector<double> task_remaining;
  std::vector<ProcessorId> task_processor;
  std::vector<std::size_t> task_preds_left;
  std::vector<NodeId> running;
  std::vector<Time> dispatched_at;
  std::vector<std::vector<NodeId>> ready_on;  // per-processor ready sets
  std::vector<double> backlog;
  std::vector<std::pair<Time, NodeId>> release_queue;

  // ---- branch and bound ----
  std::vector<double> min_wcet;
  std::vector<char> bnb_scheduled;
  std::vector<Time> bnb_finish;
  std::vector<ProcessorId> bnb_placed_on;
  std::vector<Time> bnb_avail;
  std::vector<Time> lb_finish;
  std::vector<std::vector<NodeId>> bnb_ready_pool;    // per search depth
  std::vector<std::vector<BnbOption>> bnb_option_pool;

  // ---- annealing ----
  std::vector<std::size_t> singleton_groups;  // identity group table
  std::vector<ProcessorId> current_mapping;
  std::vector<ProcessorId> neighbour_mapping;
  std::vector<ProcessorId> eligible_targets;
  SchedulerResult trial_result;
  SchedulerResult seed_result;
};

/// Clears a SchedulerResult for a new run of `tasks` × `processors`,
/// reusing the schedule/transfer storage (shared by every engine's
/// *_into entry point).
void reset_scheduler_result(SchedulerResult& result, std::size_t tasks,
                            std::size_t processors);

}  // namespace dsslice
