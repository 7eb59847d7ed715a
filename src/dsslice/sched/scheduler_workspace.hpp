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
//    copies of the legacy code). The list scheduler's ready set is a
//    TaskHeap (below) keyed by the *exact* total strict order (deadline,
//    arrival, NodeId) that the legacy linear scan minimized, so it pops the
//    identical task regardless of push order. The epsilon-based dispatcher
//    cannot key a heap on its (non-transitive) eps comparisons; instead it
//    runs the legacy loop restricted to live tasks — bitsets of running,
//    candidate, arrived and data-waiting tasks plus a TaskHeap of future
//    arrivals keyed by (arrival, NodeId) — so the simulated instant
//    sequence, and with it every eps tie-break, is reproduced exactly (see
//    dispatch_scheduler.cpp).
//
//  * Observable allocation behaviour. grow_events() (util/growth.hpp)
//    counts every time a workspace-managed buffer had to grow its
//    capacity. Tests warm a workspace on a scenario batch, re-run the
//    batch, and assert the counter did not move — the allocation-free
//    claim is enforced, not assumed.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
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

/// Binary min-heap of task ids under the exact strict total order
/// (key[0], …, key[Keys − 1], id). Entries carry their keys inline, so a
/// compare reads two neighbouring entries instead of looking keys up, and
/// it folds every field with bitwise logic instead of branching on each.
/// pop() moves the hole from the root down to a leaf, taking the smaller
/// child by adding the compare's result to the index, then sifts the last
/// entry up from there (Floyd's pop). Keys compare as doubles, so -0.0
/// ties 0.0 and the next field decides. Keys are copied at push, so a
/// caller whose keys change must refill the heap (the dispatcher refiles
/// its arrivals after every control callback). Distinct ids make the order
/// total, hence the popped minimum is unique and independent of insertion
/// order — the property the bit-identical equivalence tests rely on.
template <std::size_t Keys>
class TaskHeap {
 public:
  struct Entry {
    std::array<Time, Keys> key;
    NodeId id;
  };

  /// Empties the heap and reserves room for `max_entries`, so a run that
  /// pushes at most that many entries never reallocates.
  void reset(std::size_t max_entries) {
    heap_.clear();
    heap_.reserve(max_entries);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t capacity() const { return heap_.capacity(); }
  /// The minimum entry; the heap must not be empty.
  const Entry& top() const { return heap_.front(); }

  void push(const Entry& entry) {
    heap_.push_back(entry);
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(entry, heap_[parent])) {
        break;
      }
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  /// Removes the minimum entry and returns its id.
  NodeId pop() {
    const NodeId top = heap_.front().id;
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) {
      return top;
    }
    std::size_t hole = 0;
    std::size_t child = 1;
    for (; child + 1 < n; child = 2 * hole + 1) {
      child += before(heap_[child + 1], heap_[child]);
      heap_[hole] = heap_[child];
      hole = child;
    }
    if (child < n) {  // a lone last child
      heap_[hole] = heap_[child];
      hole = child;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(last, heap_[parent])) {
        break;
      }
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
    return top;
  }

  /// a precedes b under (key…, id); folded from the last field up.
  static bool before(const Entry& a, const Entry& b) {
    bool less = a.id < b.id;
    for (std::size_t k = Keys; k-- > 0;) {
      less = (a.key[k] < b.key[k]) | ((a.key[k] == b.key[k]) & less);
    }
    return less;
  }

 private:
  std::vector<Entry> heap_;
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
  TaskHeap<2> ready;                        // (deadline, arrival, id)
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
  TaskHeap<1> arrivals;                      // (arrival, id) of unarrived
                                             //   candidates
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
