#include "dsslice/sched/dispatch_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "dsslice/obs/trace.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

std::string to_string(SchedulerAlgorithm algorithm) {
  switch (algorithm) {
    case SchedulerAlgorithm::kListEdf:
      return "list-edf";
    case SchedulerAlgorithm::kDispatchEdf:
      return "dispatch-edf";
    case SchedulerAlgorithm::kPreemptiveEdf:
      return "preemptive-edf";
  }
  return "unknown";
}

void DispatchControl::on_completion(const View&, NodeId, bool,
                                    std::vector<Window>&) {}

std::vector<NodeId> DispatchControl::on_processor_failure(
    const View&, ProcessorId, const std::vector<NodeId>&,
    std::vector<Window>&, std::vector<ProcessorId>&) {
  return {};
}

EdfDispatchScheduler::EdfDispatchScheduler(DispatchOptions options)
    : options_(options) {}

namespace {

constexpr double kEps = 1e-9;
constexpr Time kNoBound = -std::numeric_limits<Time>::infinity();

}  // namespace

SchedulerResult EdfDispatchScheduler::run(const Application& app,
                                          const DeadlineAssignment& assignment,
                                          const Platform& platform) const {
  return run(app, assignment, platform, nullptr, nullptr, nullptr);
}

SchedulerResult EdfDispatchScheduler::run(const Application& app,
                                          const DeadlineAssignment& assignment,
                                          const Platform& platform,
                                          const DispatchConditions* conditions,
                                          DispatchControl* control,
                                          DispatchTelemetry* telemetry) const {
  SchedulerWorkspace ws;
  SchedulerResult result;
  run_into(result, ws, app, assignment, platform, conditions, control,
           telemetry);
  return result;
}

void EdfDispatchScheduler::run_into(SchedulerResult& result,
                                    SchedulerWorkspace& ws,
                                    const Application& app,
                                    const DeadlineAssignment& assignment,
                                    const Platform& platform,
                                    const DispatchConditions* conditions,
                                    DispatchControl* control,
                                    DispatchTelemetry* telemetry) const {
  DSSLICE_SPAN("sched.dispatch.run");
  // Event/rescan accounting (docs/PERFORMANCE.md): tallied in stack locals
  // so the simulation loop stays free of per-iteration instrumentation, and
  // flushed by the destructor so every exit path (including the fail()
  // returns) reports. Mirrors the DispatchTelemetry kill/restart/miss
  // counters into the metrics registry without widening that struct.
  struct ObsTally {
    std::uint64_t events = 0;     // outer loop iterations (time advances)
    std::uint64_t rescans = 0;    // dispatch-scan passes over the task set
    std::uint64_t dispatched = 0;
    std::uint64_t killed = 0;
    std::uint64_t restarts = 0;
    std::uint64_t misses = 0;
    std::uint64_t degraded = 0;  // completions with a shed optional part
    std::uint64_t heap_ops = 0;  // event-queue pushes + pops (wake ∪ finish)
    std::uint64_t queue_peak = 0;  // max queued events at any push
    ~ObsTally() {
      DSSLICE_COUNT("sched.dispatch.runs", 1);
      DSSLICE_COUNT("sched.dispatch.events", events);
      DSSLICE_COUNT("sched.dispatch.rescans", rescans);
      DSSLICE_COUNT("sched.dispatch.dispatched", dispatched);
      DSSLICE_COUNT("sched.dispatch.killed", killed);
      DSSLICE_COUNT("sched.dispatch.restarts", restarts);
      DSSLICE_COUNT("sched.dispatch.misses", misses);
      DSSLICE_COUNT("sched.dispatch.degraded", degraded);
      DSSLICE_COUNT("sched.dispatch.heap_ops", heap_ops);
      DSSLICE_GAUGE("sched.dispatch.queue_depth",
                    static_cast<double>(queue_peak));
    }
  } obs_tally;
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(assignment.windows.size() == n, "assignment size mismatch");
  if (conditions != nullptr) {
    DSSLICE_REQUIRE(conditions->wcet_factor.empty() ||
                        conditions->wcet_factor.size() == n,
                    "wcet_factor size mismatch");
    DSSLICE_REQUIRE(conditions->wcet_addend.empty() ||
                        conditions->wcet_addend.size() == n,
                    "wcet_addend size mismatch");
    DSSLICE_REQUIRE(conditions->arc_delay_factor.empty() ||
                        conditions->arc_delay_factor.size() == g.arc_count(),
                    "arc_delay_factor size mismatch");
    DSSLICE_REQUIRE(conditions->processor_down_at.empty() ||
                        conditions->processor_down_at.size() == m,
                    "processor_down_at size mismatch");
  }

  reset_scheduler_result(result, n, m);

  // Mutable dispatch state (struct-of-arrays so DispatchControl can observe
  // it through cheap spans), all held in the workspace.
  ws.size(ws.windows, n);
  std::copy(assignment.windows.begin(), assignment.windows.end(),
            ws.windows.begin());
  std::vector<Window>& windows = ws.windows;
  ws.size(ws.preds_left, n);
  ws.fill(ws.started, n, char{0});
  ws.fill(ws.done, n, char{0});
  ws.fill(ws.lost, n, char{0});
  ws.fill(ws.shed, n, char{0});
  ws.fill(ws.start_time, n, kTimeZero);
  ws.fill(ws.finish, n, kTimeInfinity);
  ws.fill(ws.proc_of, n, ProcessorId{0});
  ws.fill(ws.pinned, n, kUnpinnedProcessor);
  ws.fill(ws.busy_until, m, kTimeZero);
  std::size_t remaining = n;
  for (NodeId v = 0; v < n; ++v) {
    ws.preds_left[v] = g.predecessors(v).size();
  }

  // Per-processor timing: the *planned* availability window comes from the
  // platform (the dispatcher refuses work it knows cannot finish in time),
  // whereas injected failures are unforeseen — work is accepted and killed.
  ws.size(ws.known_from, m);
  ws.size(ws.known_until, m);
  ws.fill(ws.surprise_down, m, kTimeInfinity);
  ws.fill(ws.failure_handled, m, char{0});
  for (ProcessorId p = 0; p < m; ++p) {
    ws.known_from[p] = platform.processor(p).available_from;
    ws.known_until[p] = platform.processor(p).available_until;
    if (conditions != nullptr && !conditions->processor_down_at.empty()) {
      ws.surprise_down[p] = conditions->processor_down_at[p];
    }
  }
  ws.size(ws.down_at, m);  // effective halt, for views
  for (ProcessorId p = 0; p < m; ++p) {
    ws.down_at[p] = std::min(ws.known_until[p], ws.surprise_down[p]);
  }
  bool any_failure = false;

  // The candidate loops below run once per (ready task, processor) per
  // event; cache Platform::class_of so eligibility checks are direct reads
  // of the public wcet table instead of two out-of-line calls.
  ws.size(ws.proc_class, m);
  for (ProcessorId p = 0; p < m; ++p) {
    ws.proc_class[p] = platform.class_of(p);
  }

  // Actual execution time of v, given its nominal wcet on the chosen class,
  // under the injected conditions.
  const auto adjust_wcet = [&](NodeId v, double c) {
    if (ws.shed[v]) {
      // Degraded mode (docs/ROBUSTNESS.md): the recovery control shed this
      // task's optional part before it started, so only the mandatory part
      // executes. Injected overruns below apply to the reduced demand — an
      // overrun factor models proportional misestimation, not extra work
      // the task was told not to do.
      const double f = app.task(v).optional_fraction;
      if (f > 0.0) {
        c *= 1.0 - f;
      }
    }
    if (conditions != nullptr) {
      if (!conditions->wcet_factor.empty()) {
        c *= conditions->wcet_factor[v];
      }
      if (!conditions->wcet_addend.empty()) {
        c += conditions->wcet_addend[v];
      }
      c = std::max(0.0, c);
    }
    return c;
  };

  // Per-arc message-delay multipliers come pre-flattened in graph arc order;
  // TaskGraph::predecessor_arc_indices maps each in-edge straight to its
  // factor — no hash map on the hot path.
  const double* arc_factor =
      conditions != nullptr && !conditions->arc_delay_factor.empty()
          ? conditions->arc_delay_factor.data()
          : nullptr;
  const auto* shared_bus = dynamic_cast<const SharedBus*>(&platform.network());
  const Time bus_rate =
      shared_bus != nullptr ? shared_bus->per_item_delay() : kTimeZero;

  if (telemetry != nullptr) {
    *telemetry = DispatchTelemetry{};
    telemetry->completion.assign(n, kTimeInfinity);
  }

  const auto fail = [&](NodeId v, std::string reason) {
    result.success = false;
    result.failed_task = v;
    result.failure_reason = std::move(reason);
  };

  const auto make_view = [&](Time now) {
    return DispatchControl::View{app,     platform,  now,
                                 ws.started, ws.done, ws.finish,
                                 ws.busy_until, ws.down_at,
                                 std::span<char>(ws.shed)};
  };

  // Earliest time the data of ready task v is available on processor p.
  // Identical arithmetic to run(): nominal delay × injected factor, with the
  // SharedBus delay inlined (0 co-located, items × per-item otherwise).
  const auto data_ready = [&](NodeId v, ProcessorId p) {
    Time ready = kTimeZero;
    const auto preds = g.predecessors(v);
    const auto pitems = g.predecessor_items(v);
    const auto parcs = g.predecessor_arc_indices(v);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      const NodeId u = preds[k];
      Time d = shared_bus != nullptr
                   ? (ws.proc_of[u] == p ? kTimeZero : pitems[k] * bus_rate)
                   : platform.comm_delay(ws.proc_of[u], p, pitems[k]);
      if (arc_factor != nullptr) {
        d *= arc_factor[parcs[k]];
      }
      ready = std::max(ready, ws.finish[u] + d);
    }
    return ready;
  };

  // Shared-bus fast path for data_ready: the cross-processor contribution
  // finish_u + items × rate × factor does not depend on the destination, so
  // the two largest contributions from *distinct* source processors plus a
  // per-processor co-located maximum answer data_ready(v, ·) in O(1) per
  // processor after an O(preds + m) prime. Pure exact max-combining over
  // the identical per-predecessor doubles, hence bit-identical to the loop
  // above (same trick as edf_list_scheduler.cpp). Predecessor finishes are
  // final once preds_left[v] == 0 (done tasks are never killed), so a prime
  // stays valid for the whole scan over processors.
  Time dr_cross1 = kNoBound, dr_cross2 = kNoBound;
  ProcessorId dr_cross1_proc = 0;
  const auto prime_data_ready = [&](NodeId v) {
    dr_cross1 = dr_cross2 = kNoBound;
    dr_cross1_proc = 0;
    ws.fill(ws.local_pred_bound, m, kNoBound);
    const auto preds = g.predecessors(v);
    const auto pitems = g.predecessor_items(v);
    const auto parcs = g.predecessor_arc_indices(v);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      const NodeId u = preds[k];
      const ProcessorId up = ws.proc_of[u];
      Time d = pitems[k] * bus_rate;
      if (arc_factor != nullptr) {
        d *= arc_factor[parcs[k]];
      }
      const Time contrib = ws.finish[u] + d;
      if (contrib > dr_cross1) {
        if (up != dr_cross1_proc) {
          dr_cross2 = dr_cross1;  // dethroned max is from another processor
        }
        dr_cross1 = contrib;
        dr_cross1_proc = up;
      } else if (up != dr_cross1_proc && contrib > dr_cross2) {
        dr_cross2 = contrib;
      }
      ws.local_pred_bound[up] =
          std::max(ws.local_pred_bound[up], ws.finish[u]);
    }
  };
  const auto primed_data_ready = [&](ProcessorId p) {
    const Time cross = p == dr_cross1_proc ? dr_cross2 : dr_cross1;
    return std::max(kTimeZero, std::max(cross, ws.local_pred_bound[p]));
  };

  // ------------------------------------------------------------------
  // Indexed event state. The legacy loop rescanned all n tasks × m
  // processors once per simulated instant, both to dispatch and to find the
  // next instant; the eps tie-break forbids reordering those scans, so the
  // index does not reorder anything. Instead it reproduces the legacy run
  // exactly:
  //  * every queued wake-up entry mirrors one proposal of the legacy
  //    next-event scan (an arrival, a processor's known_from, a data-ready
  //    instant) and carries the (task, processor) pair that proposed it, so
  //    it can be re-validated against live state when it surfaces — window
  //    rewrites, re-pins, kills and revivals queue fresh entries and the
  //    superseded ones are dropped lazily;
  //  * completions live in their own heap keyed by finish instant, with the
  //    per-instant batch processed in ascending task id — the order the
  //    legacy full scan completed them;
  //  * the dispatch pass replays the legacy v-ascending fold over a
  //    candidate bitset. In that fold the eps tie clause (|d − bd| ≤ eps
  //    and v < best) can never fire — the incumbent always has the smaller
  //    id — so a candidate wins iff there is no incumbent or
  //    d < bd − eps, and one with d ≥ bd − eps cannot affect the outcome
  //    (its processor checks are pure). The pass skips exactly those.
  // The simulated instant sequence is therefore bit-identical to the legacy
  // loop's, and with it every placement, bus reservation and telemetry
  // entry (pinned by tests/test_scheduler_equivalence.cpp).
  // ------------------------------------------------------------------
  const std::size_t words = (n + 63) / 64;
  ws.fill(ws.dispatch_cand, words, std::uint64_t{0});
  ws.size(ws.dispatch_ready_at, n * m);
  ws.wake_heap.clear();
  ws.finish_heap.clear();
  ws.ineligible_tasks.clear();

  const auto cand_set = [&](NodeId v) {
    ws.dispatch_cand[v >> 6] |= std::uint64_t{1} << (v & 63);
  };
  const auto cand_clear = [&](NodeId v) {
    ws.dispatch_cand[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  };
  const auto cand_test = [&](NodeId v) {
    return ((ws.dispatch_cand[v >> 6] >> (v & 63)) & 1u) != 0;
  };

  const auto wake_before = [](const DispatchWakeEvent& a,
                              const DispatchWakeEvent& b) {
    return a.at > b.at;  // min-heap on the instant; ties in any order (only
                         // the instant is consumed, entries re-validate)
  };
  const auto finish_before = [](const std::pair<Time, NodeId>& a,
                                const std::pair<Time, NodeId>& b) {
    return a.first > b.first;
  };
  const auto note_depth = [&] {
    obs_tally.queue_peak =
        std::max<std::uint64_t>(obs_tally.queue_peak,
                                ws.wake_heap.size() + ws.finish_heap.size());
  };
  const auto push_wake = [&](Time at, NodeId v, ProcessorId p) {
    ws.push(ws.wake_heap, DispatchWakeEvent{at, v, p});
    std::push_heap(ws.wake_heap.begin(), ws.wake_heap.end(), wake_before);
    ++obs_tally.heap_ops;
    note_depth();
  };
  const auto pop_wake = [&] {
    std::pop_heap(ws.wake_heap.begin(), ws.wake_heap.end(), wake_before);
    const DispatchWakeEvent e = ws.wake_heap.back();
    ws.wake_heap.pop_back();
    ++obs_tally.heap_ops;
    return e;
  };
  const auto push_finish_event = [&](NodeId v) {
    ws.push(ws.finish_heap, std::make_pair(ws.finish[v], v));
    std::push_heap(ws.finish_heap.begin(), ws.finish_heap.end(),
                   finish_before);
    ++obs_tally.heap_ops;
    note_depth();
  };
  const auto pop_finish_event = [&] {
    std::pop_heap(ws.finish_heap.begin(), ws.finish_heap.end(),
                  finish_before);
    const std::pair<Time, NodeId> e = ws.finish_heap.back();
    ws.finish_heap.pop_back();
    ++obs_tally.heap_ops;
    return e;
  };

  // Task::eligible against the cached class table, as direct reads.
  const auto eligible_on = [&](const Task& task, ProcessorId p) {
    const ProcessorClassId e = ws.proc_class[p];
    return e < task.wcet_by_class.size() && task.wcet_by_class[e] >= 0.0;
  };

  Time now = kTimeZero;

  // Queues the future instant the legacy next-event scan would propose for
  // the (arrived candidate, eligible processor) pair from the current
  // state: the processor's known_from while it is not yet up, else the
  // cached data-ready instant.
  const auto push_pair_wake = [&](NodeId v, ProcessorId p) {
    if (now + kEps >= ws.surprise_down[p]) {
      return;  // dead processor generates no future events
    }
    if (ws.pinned[v] != kUnpinnedProcessor && ws.pinned[v] != p) {
      return;
    }
    if (now + kEps < ws.known_from[p]) {
      push_wake(ws.known_from[p], v, p);
      return;
    }
    const Time ready = ws.dispatch_ready_at[v * m + p];
    if (ready > now + kEps) {
      push_wake(ready, v, p);
    }
  };
  // Queues every future instant at which candidate v could become
  // dispatchable: its arrival while it has not arrived, otherwise the
  // per-processor instants above. Called on release, revival, arrival
  // crossings, and whenever a control callback moves v's arrival or pin.
  const auto push_task_wakes = [&](NodeId v) {
    if (windows[v].arrival > now + kEps) {
      push_wake(windows[v].arrival, v, kDispatchWakeArrival);
      return;
    }
    const Task& task = app.task(v);
    for (ProcessorId p = 0; p < m; ++p) {
      if (eligible_on(task, p)) {
        push_pair_wake(v, p);
      }
    }
  };
  // True iff the legacy next-event scan would still propose this entry's
  // instant right now. (Class eligibility is static and checked at push
  // time, so pair entries need no eligibility re-check; the caller has
  // already established e.at > now + kEps.)
  const auto wake_valid = [&](const DispatchWakeEvent& e) {
    if (!cand_test(e.task)) {
      return false;
    }
    const Time arrival = windows[e.task].arrival;
    if (e.proc == kDispatchWakeArrival) {
      return arrival > now + kEps && e.at == arrival;
    }
    if (arrival > now + kEps) {
      return false;  // only the arrival itself is proposed until it passes
    }
    if (now + kEps >= ws.surprise_down[e.proc]) {
      return false;
    }
    if (ws.pinned[e.task] != kUnpinnedProcessor &&
        ws.pinned[e.task] != e.proc) {
      return false;
    }
    if (now + kEps < ws.known_from[e.proc]) {
      return e.at == ws.known_from[e.proc];
    }
    return e.at == ws.dispatch_ready_at[e.task * m + e.proc];
  };

  // A task joins the candidate set when its last predecessor completes (or
  // right here for sources). Predecessor placements are final from then on
  // (done tasks are never killed), so data_ready(v, ·) is computed once —
  // the exact doubles the legacy loop recomputed every event.
  const auto release = [&](NodeId v) {
    Time* ready_row = ws.dispatch_ready_at.data() + v * m;
    if (shared_bus != nullptr) {
      prime_data_ready(v);
      for (ProcessorId p = 0; p < m; ++p) {
        ready_row[p] = primed_data_ready(p);
      }
    } else {
      for (ProcessorId p = 0; p < m; ++p) {
        ready_row[p] = data_ready(v, p);
      }
    }
    cand_set(v);
    const Task& task = app.task(v);
    bool any_eligible = false;
    for (ProcessorId p = 0; p < m && !any_eligible; ++p) {
      any_eligible = eligible_on(task, p);
    }
    if (!any_eligible) {
      // Class eligibility is static: the run fails the first instant this
      // task's window has arrived, checked after the dispatch pass below —
      // the position and v-order of the legacy scan's fail.
      ws.push(ws.ineligible_tasks, v);
    }
    push_task_wakes(v);
  };

  // Control callbacks may rewrite windows and pins. Only arrival and pin
  // changes move wake-up instants (deadlines are read live by the dispatch
  // pass), so snapshot those around each callback and re-queue the touched
  // candidates; entries the rewrite superseded fail re-validation.
  const auto snapshot_control_inputs = [&] {
    ws.size(ws.arrival_before, n);
    for (NodeId v = 0; v < n; ++v) {
      ws.arrival_before[v] = windows[v].arrival;
    }
    ws.size(ws.pinned_before, n);
    std::copy(ws.pinned.begin(), ws.pinned.end(), ws.pinned_before.begin());
  };
  const auto requeue_changed = [&] {
    for (NodeId v = 0; v < n; ++v) {
      if (cand_test(v) && (windows[v].arrival != ws.arrival_before[v] ||
                           ws.pinned[v] != ws.pinned_before[v])) {
        push_task_wakes(v);
      }
    }
  };

  for (NodeId v = 0; v < n; ++v) {
    if (ws.preds_left[v] == 0) {
      release(v);
    }
  }

  bool missed = false;
  std::size_t guard = 0;
  // The instant sequence is identical to the legacy loop's, so the same
  // bound applies: between two state mutations (completion / failure /
  // revival — at most n + 3m of them) the event set is bounded by n
  // arrivals + n·m data-ready instants + m busy horizons.
  const std::size_t guard_limit = (n + 3 * m + 4) * (n * (m + 1) + m + 4) + 64;
  while (remaining > 0) {
    DSSLICE_CHECK(++guard <= guard_limit, "dispatch failed to converge");
    ++obs_tally.events;

    // Unforeseen processor failures whose instant has been reached: halt the
    // processor, kill the task in flight, and let the recovery hook decide
    // which victims re-enter the dispatch queue. Kept as the verbatim O(m)
    // scan — m is small, failures are rare, and the scan preserves the
    // exact p-ascending handling and v-ascending kill order.
    for (ProcessorId p = 0; p < m; ++p) {
      if (ws.failure_handled[p] || ws.surprise_down[p] > now + kEps) {
        continue;
      }
      ws.failure_handled[p] = 1;
      any_failure = true;
      std::vector<NodeId> victims;
      for (NodeId v = 0; v < n; ++v) {
        if (ws.started[v] && !ws.done[v] && ws.proc_of[v] == p &&
            ws.finish[v] > ws.surprise_down[p] + kEps) {
          victims.push_back(v);
          ++obs_tally.killed;
          ws.started[v] = 0;
          ws.finish[v] = kTimeInfinity;  // orphans the queued finish event
          ws.lost[v] = 1;
          if (telemetry != nullptr) {
            telemetry->killed.push_back(v);
          }
        }
      }
      ws.busy_until[p] = std::min(ws.busy_until[p], ws.surprise_down[p]);
      std::vector<NodeId> revived;
      if (control != nullptr) {
        snapshot_control_inputs();
        const auto view = make_view(now);
        revived = control->on_processor_failure(view, p, victims, windows,
                                                ws.pinned);
        requeue_changed();
      }
      for (const NodeId r : revived) {
        DSSLICE_CHECK(std::find(victims.begin(), victims.end(), r) !=
                          victims.end(),
                      "control revived a task that was not a victim");
        ws.lost[r] = 0;
        ++obs_tally.restarts;
        if (telemetry != nullptr) {
          ++telemetry->restarts;
        }
        cand_set(r);
        push_task_wakes(r);  // re-enters the queue with post-callback state
      }
    }

    // Complete tasks whose finish instant has been reached: pop the due
    // finish events and process the batch in ascending task id — the order
    // the legacy full scan completed them. Entries re-check the legacy
    // completion predicate at processing time, which drops stale entries
    // (kills, re-dispatches) and duplicate survivors alike.
    ws.due_completions.clear();
    while (!ws.finish_heap.empty() &&
           ws.finish_heap.front().first <= now + kEps) {
      ws.push(ws.due_completions, pop_finish_event().second);
    }
    std::sort(ws.due_completions.begin(), ws.due_completions.end());
    for (const NodeId v : ws.due_completions) {
      if (!ws.started[v] || ws.done[v] || ws.finish[v] > now + kEps) {
        continue;  // stale: killed, re-dispatched to a later finish, or dup
      }
      ws.done[v] = 1;
      --remaining;
      result.schedule.place(v, ws.proc_of[v], ws.start_time[v], ws.finish[v]);
      if (telemetry != nullptr) {
        telemetry->completion[v] = ws.finish[v];
        if (ws.shed[v]) {
          telemetry->degraded.push_back(v);
        }
      }
      if (ws.shed[v]) {
        ++obs_tally.degraded;
      }
      const bool late = ws.finish[v] > windows[v].deadline + kEps;
      if (late) {
        missed = true;
        ++obs_tally.misses;
        if (telemetry != nullptr) {
          telemetry->misses.push_back(
              TaskMissEvent{v, ws.finish[v], windows[v].deadline});
        }
        if (options_.abort_on_miss) {
          return fail(v, "task " + app.task(v).name +
                             " misses its deadline at dispatch time");
        }
        if (!result.failed_task.has_value()) {
          result.failed_task = v;
          result.failure_reason =
              "task " + app.task(v).name + " missed its deadline";
        }
      }
      for (const NodeId s : g.successors(v)) {
        if (--ws.preds_left[s] == 0) {
          release(s);
        }
      }
      if (control != nullptr) {
        snapshot_control_inputs();
        const auto view = make_view(now);
        control->on_completion(view, v, late, windows);
        requeue_changed();
      }
    }
    if (remaining == 0) {
      break;
    }

    // Dispatch pass(es) at the current instant: repeatedly hand the
    // closest-deadline dispatchable candidate to a processor until nothing
    // more can start at `now`. The task-independent processor checks are
    // hoisted into a free list; the candidate walk visits only released,
    // unstarted tasks, in the ascending id order of the legacy scan.
    for (;;) {
      ++obs_tally.rescans;
      ws.free_procs.clear();
      for (ProcessorId p = 0; p < m; ++p) {
        if (ws.busy_until[p] > now + kEps) {
          continue;
        }
        if (now + kEps < ws.known_from[p] ||
            now + kEps >= ws.surprise_down[p]) {
          continue;  // not yet up / observed dead
        }
        ws.push(ws.free_procs, p);
      }
      NodeId best = static_cast<NodeId>(n);
      ProcessorId best_proc = 0;
      double best_wcet = 0.0;
      Time best_deadline = kTimeInfinity;
      if (!ws.free_procs.empty()) {
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = ws.dispatch_cand[w];
          while (bits != 0) {
            const NodeId v = static_cast<NodeId>(
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
            bits &= bits - 1;
            if (windows[v].arrival > now + kEps) {
              continue;
            }
            const Time deadline = windows[v].deadline;
            if (best < n && !(deadline < best_deadline - kEps)) {
              continue;  // cannot change the outcome (see header comment)
            }
            // Idle, available, eligible processor with data present; prefer
            // the fastest class, then the lowest id (deterministic).
            ProcessorId chosen = 0;
            double chosen_wcet = 0.0;
            bool found = false;
            const Task& task = app.task(v);
            const double* wcets = task.wcet_by_class.data();
            const std::size_t class_count = task.wcet_by_class.size();
            for (const ProcessorId p : ws.free_procs) {
              if (ws.pinned[v] != kUnpinnedProcessor && ws.pinned[v] != p) {
                continue;
              }
              const ProcessorClassId e = ws.proc_class[p];
              if (e >= class_count || wcets[e] < 0.0) {
                continue;  // Task::eligible, as direct reads
              }
              const double c = adjust_wcet(v, wcets[e]);
              if (now + c > ws.known_until[p] + kEps) {
                continue;  // would outlive the planned availability window
              }
              if (ws.dispatch_ready_at[v * m + p] > now + kEps) {
                continue;
              }
              if (!found || c < chosen_wcet) {
                found = true;
                chosen = p;
                chosen_wcet = c;
              }
            }
            if (!found) {
              continue;
            }
            best = v;
            best_proc = chosen;
            best_wcet = chosen_wcet;
            best_deadline = deadline;
          }
        }
      }
      if (best >= n) {
        break;  // nothing dispatchable right now
      }
      ++obs_tally.dispatched;
      ws.started[best] = 1;
      ws.proc_of[best] = best_proc;
      ws.start_time[best] = now;
      ws.finish[best] = now + best_wcet;
      ws.busy_until[best_proc] = ws.finish[best];
      cand_clear(best);
      push_finish_event(best);
    }

    // A released task with no eligible processor class fails the run the
    // first instant its window has arrived (the legacy scan's position and
    // ascending-id order, preserved).
    if (!ws.ineligible_tasks.empty()) {
      NodeId bad = static_cast<NodeId>(n);
      for (const NodeId v : ws.ineligible_tasks) {
        if (!(windows[v].arrival > now + kEps) && v < bad) {
          bad = v;
        }
      }
      if (bad < n) {
        return fail(bad, "task " + app.task(bad).name +
                             " has no eligible processor on this platform");
      }
    }

    // Advance to the next event: the minimum over unserved failure
    // instants, the wake queue, and the running-task completions — exactly
    // the proposal set of the legacy next-event scan. Entries at or before
    // now + eps already happened at this instant (the eps band makes them
    // indistinguishable from `now`, which is why the legacy scan never
    // proposed them) and are consumed, re-arming any follow-up instants
    // they unlock; stale entries fail re-validation and are dropped.
    Time next = kTimeInfinity;
    for (ProcessorId p = 0; p < m; ++p) {
      if (!ws.failure_handled[p] && ws.surprise_down[p] < kTimeInfinity &&
          ws.surprise_down[p] > now + kEps) {
        next = std::min(next, ws.surprise_down[p]);
      }
    }
    while (!ws.wake_heap.empty()) {
      if (ws.wake_heap.front().at <= now + kEps) {
        const DispatchWakeEvent e = pop_wake();
        if (cand_test(e.task)) {
          if (e.proc == kDispatchWakeArrival) {
            push_task_wakes(e.task);  // arrival crossed: arm the pairs
          } else if (!(windows[e.task].arrival > now + kEps) &&
                     eligible_on(app.task(e.task), e.proc)) {
            push_pair_wake(e.task, e.proc);  // known_from crossed: arm ready
          }
        }
        continue;
      }
      if (!wake_valid(ws.wake_heap.front())) {
        pop_wake();
        continue;
      }
      next = std::min(next, ws.wake_heap.front().at);
      break;
    }
    // Completions propose the busy horizon of their processor, which is the
    // task's finish instant except after a surprise failure clamped it (a
    // surviving sub-eps finish on a halted processor completes at the next
    // otherwise-scheduled instant, exactly like the legacy scan). Entries
    // that will complete but are not proposable are held aside and
    // re-queued; stale ones are dropped.
    ws.finish_held.clear();
    while (!ws.finish_heap.empty()) {
      const std::pair<Time, NodeId> top = ws.finish_heap.front();
      const NodeId v = top.second;
      if (!ws.started[v] || ws.done[v] || ws.finish[v] != top.first) {
        pop_finish_event();  // stale
        continue;
      }
      if (top.first <= now + kEps ||
          ws.busy_until[ws.proc_of[v]] != top.first) {
        ws.push(ws.finish_held, pop_finish_event());
        continue;
      }
      next = std::min(next, top.first);
      break;
    }
    for (const std::pair<Time, NodeId>& e : ws.finish_held) {
      ws.push(ws.finish_heap, e);
      std::push_heap(ws.finish_heap.begin(), ws.finish_heap.end(),
                     finish_before);
      ++obs_tally.heap_ops;
    }
    if (next >= kTimeInfinity) {
      if (any_failure) {
        // Failures stranded the rest of the graph: report the degraded run
        // instead of spinning (tasks blocked on lost predecessors or dead
        // pinned processors can never proceed).
        break;
      }
      // All ready tasks are waiting only for busy processors that never
      // free up — impossible in a finite simulation unless the graph is
      // cyclic, which Application::validate rejects.
      return fail(0, "dispatch deadlocked: task graph has a cycle");
    }
    now = next;
  }

  if (remaining > 0) {
    std::size_t stranded = 0;
    NodeId first = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!ws.done[v]) {
        if (stranded++ == 0) {
          first = v;
        }
        if (telemetry != nullptr) {
          telemetry->unfinished.push_back(v);
        }
      }
    }
    return fail(first, "processor failure left " + std::to_string(stranded) +
                           " task(s) unfinished (first: " +
                           app.task(first).name + ")");
  }

  result.success = !missed && result.schedule.complete();
}

}  // namespace dsslice
