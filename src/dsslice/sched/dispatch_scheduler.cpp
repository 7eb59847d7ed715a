#include "dsslice/sched/dispatch_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "dsslice/obs/trace.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/branch_free.hpp"
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
    ~ObsTally() {
      DSSLICE_COUNT("sched.dispatch.runs", 1);
      DSSLICE_COUNT("sched.dispatch.events", events);
      DSSLICE_COUNT("sched.dispatch.rescans", rescans);
      DSSLICE_COUNT("sched.dispatch.dispatched", dispatched);
      DSSLICE_COUNT("sched.dispatch.killed", killed);
      DSSLICE_COUNT("sched.dispatch.restarts", restarts);
      DSSLICE_COUNT("sched.dispatch.misses", misses);
      DSSLICE_COUNT("sched.dispatch.degraded", degraded);
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

  // ------------------------------------------------------------------
  // Live-task state. The legacy loop rescanned all n tasks × m processors
  // once per simulated instant, both to dispatch and to find the next
  // instant; the eps tie-break forbids reordering those scans. This loop is
  // the same loop restricted to the tasks that can still act, visited in
  // the same ascending id order:
  //  * completions and kills walk a running bitset (started ∧ ¬done);
  //  * candidates (released ∧ unstarted ∧ ¬lost) wait in a min-heap keyed
  //    by their arrival and move to an arrived bitset once it is reached;
  //  * the dispatch pass replays the legacy v-ascending fold over the
  //    arrived bitset. In that fold the eps tie clause (|d − bd| ≤ eps and
  //    v < best) can never fire — the incumbent always has the smaller id —
  //    so a candidate wins iff there is no incumbent or d < bd − eps, and
  //    one with d ≥ bd − eps cannot affect the outcome (its processor checks
  //    are pure). The pass skips exactly those;
  //  * the next instant is the minimum of the legacy proposals: each busy
  //    processor's busy_until, each unserved failure instant, the heap's
  //    earliest arrival, and the known_from / data-ready instants of arrived
  //    candidates, scanned over a data-wait bitset that holds every
  //    candidate still able to propose one.
  // The simulated instant sequence is therefore bit-identical to the legacy
  // loop's, and with it every placement, bus reservation and telemetry
  // entry (pinned by tests/test_scheduler_equivalence.cpp).
  // ------------------------------------------------------------------
  const std::size_t words = (n + 63) / 64;
  ws.fill(ws.dispatch_cand, words, std::uint64_t{0});
  ws.fill(ws.dispatch_arrived, words, std::uint64_t{0});
  ws.fill(ws.dispatch_running, words, std::uint64_t{0});
  ws.fill(ws.dispatch_wait, words, std::uint64_t{0});
  ws.size(ws.dispatch_ready_at, n * m);
  ws.size(ws.dispatch_last_ready, n);
  ws.size(ws.local_pred_bound, m);
  // Each candidate is filed at most once between two refilings, so the
  // arrival heap never holds more than n entries.
  ws.note(ws.arrivals.capacity(), n);
  ws.arrivals.reset(n);
  std::uint64_t* const cand = ws.dispatch_cand.data();
  std::uint64_t* const arrived = ws.dispatch_arrived.data();
  std::uint64_t* const running = ws.dispatch_running.data();
  std::uint64_t* const wait = ws.dispatch_wait.data();
  const auto bit = [](NodeId v) { return std::uint64_t{1} << (v & 63); };
  const auto bit_id = [](std::size_t w, std::uint64_t bits) {
    return static_cast<NodeId>(
        (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
  };

  // Task::eligible against the cached class table, as direct reads.
  const auto eligible_on = [&](const Task& task, ProcessorId p) {
    const ProcessorClassId e = ws.proc_class[p];
    return e < task.wcet_by_class.size() && task.wcet_by_class[e] >= 0.0;
  };

  Time now = kTimeZero;

  // Files candidate v at the current instant: into the arrived bitset or,
  // until its arrival, the arrival heap; and into the data-wait bitset if
  // its latest data-ready instant over its eligible processors (+∞ with no
  // eligible class, so the failure check sees it) lies after both now + eps
  // and its arrival. A data-ready instant the legacy scan proposes at a
  // later instant t lies after t + eps, and v has arrived by then, so v
  // passes this test at every earlier instant with the same arrival.
  // Arrivals change only in control callbacks, after which every candidate
  // is filed afresh.
  const auto file_candidate = [&](NodeId v) {
    const Time arrival = windows[v].arrival;
    if (arrival > now + kTimeTolerance) {
      ws.arrivals.push({{arrival}, v});
    } else {
      arrived[v >> 6] |= bit(v);
    }
    if (ws.dispatch_last_ready[v] > std::max(now + kTimeTolerance, arrival)) {
      wait[v >> 6] |= bit(v);
    }
  };

  // A task joins the candidates when its last predecessor completes (or
  // right here for sources). Predecessor placements are final from then on
  // (done tasks are never killed), so its data-ready instants are computed
  // once — the exact doubles the legacy loop recomputed every event: the
  // nominal delay × injected factor, the SharedBus delay inlined (0
  // co-located, items × per-item otherwise) into a BusReadyFold.
  BusReadyFold fold;
  const auto release = [&](NodeId v) {
    const auto preds = g.predecessors(v);
    const auto pitems = g.predecessor_items(v);
    const auto parcs = g.predecessor_arc_indices(v);
    Time* ready_row = ws.dispatch_ready_at.data() + v * m;
    if (shared_bus != nullptr) {
      fold.reset(ws.local_pred_bound);
      for (std::size_t k = 0; k < preds.size(); ++k) {
        const NodeId u = preds[k];
        Time d = pitems[k] * bus_rate;
        if (arc_factor != nullptr) {
          d *= arc_factor[parcs[k]];
        }
        fold.add(ws.proc_of[u], ws.finish[u], ws.finish[u] + d);
      }
    }
    const Task& task = app.task(v);
    bool eligible = false;
    Time last = kTimeZero;
    for (ProcessorId p = 0; p < m; ++p) {
      Time ready = kTimeZero;
      if (shared_bus != nullptr) {
        ready = std::max(ready, fold.at(p));
      } else {
        for (std::size_t k = 0; k < preds.size(); ++k) {
          const NodeId u = preds[k];
          Time d = platform.comm_delay(ws.proc_of[u], p, pitems[k]);
          if (arc_factor != nullptr) {
            d *= arc_factor[parcs[k]];
          }
          ready = std::max(ready, ws.finish[u] + d);
        }
      }
      ready_row[p] = ready;
      if (eligible_on(task, p)) {
        eligible = true;
        last = std::max(last, ready);
      }
    }
    ws.dispatch_last_ready[v] = eligible ? last : kTimeInfinity;
    cand[v >> 6] |= bit(v);
    file_candidate(v);
  };

  // Control callbacks may rewrite any window or pin and revive victims.
  // Pins and deadlines are read live, so only arrivals need the refiling.
  bool control_called = false;
  const auto refile_candidates = [&] {
    ws.arrivals.reset(n);
    std::fill_n(arrived, words, std::uint64_t{0});
    std::fill_n(wait, words, std::uint64_t{0});
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = cand[w]; bits != 0; bits &= bits - 1) {
        file_candidate(bit_id(w, bits));
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
      if (ws.failure_handled[p] || ws.surprise_down[p] > now + kTimeTolerance) {
        continue;
      }
      ws.failure_handled[p] = 1;
      any_failure = true;
      std::vector<NodeId> victims;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = running[w]; bits != 0; bits &= bits - 1) {
          const NodeId v = bit_id(w, bits);
          if (ws.proc_of[v] != p ||
              !(ws.finish[v] > ws.surprise_down[p] + kTimeTolerance)) {
            continue;
          }
          victims.push_back(v);
          ++obs_tally.killed;
          running[w] &= ~bit(v);
          ws.started[v] = 0;
          ws.finish[v] = kTimeInfinity;
          ws.lost[v] = 1;
          if (telemetry != nullptr) {
            telemetry->killed.push_back(v);
          }
        }
      }
      ws.busy_until[p] = std::min(ws.busy_until[p], ws.surprise_down[p]);
      std::vector<NodeId> revived;
      if (control != nullptr) {
        const auto view = make_view(now);
        revived = control->on_processor_failure(view, p, victims, windows,
                                                ws.pinned);
        control_called = true;
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
        cand[r >> 6] |= bit(r);  // re-enters the candidates with its row
      }
    }

    // Complete the running tasks whose finish instant has been reached, in
    // ascending task id — the order of the legacy full scan. A word's due
    // tasks are gathered into a mask first (completing a task changes no
    // other running task's finish), so only the completions branch.
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t due = 0;
      for (std::uint64_t bits = running[w]; bits != 0; bits &= bits - 1) {
        const NodeId v = bit_id(w, bits);
        due |= static_cast<std::uint64_t>(
                   !(ws.finish[v] > now + kTimeTolerance))
               << (v & 63);
      }
      running[w] &= ~due;
      for (; due != 0; due &= due - 1) {
        const NodeId v = bit_id(w, due);
        ws.done[v] = 1;
        --remaining;
        result.schedule.place(v, ws.proc_of[v], ws.start_time[v],
                              ws.finish[v]);
        if (telemetry != nullptr) {
          telemetry->completion[v] = ws.finish[v];
          if (ws.shed[v]) {
            telemetry->degraded.push_back(v);
          }
        }
        if (ws.shed[v]) {
          ++obs_tally.degraded;
        }
        const bool late = ws.finish[v] > windows[v].deadline + kTimeTolerance;
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
          const auto view = make_view(now);
          control->on_completion(view, v, late, windows);
          control_called = true;
        }
      }
    }
    if (remaining == 0) {
      break;
    }
    if (control_called) {
      refile_candidates();
      control_called = false;
    }
    // Candidates whose arrival has been reached join the arrived set.
    while (!ws.arrivals.empty() &&
           ws.arrivals.top().key[0] <= now + kTimeTolerance) {
      const NodeId v = ws.arrivals.pop();
      arrived[v >> 6] |= bit(v);
    }

    // Dispatch pass(es) at the current instant: repeatedly hand the
    // closest-deadline dispatchable candidate to a processor until nothing
    // more can start at `now`. The task-independent processor checks are
    // hoisted into a free list; the candidate walk visits only arrived
    // candidates, in the ascending id order of the legacy scan.
    for (;;) {
      ++obs_tally.rescans;
      ws.free_procs.clear();
      for (ProcessorId p = 0; p < m; ++p) {
        if (ws.busy_until[p] > now + kTimeTolerance) {
          continue;
        }
        if (now + kTimeTolerance < ws.known_from[p] ||
            now + kTimeTolerance >= ws.surprise_down[p]) {
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
          for (std::uint64_t bits = arrived[w]; bits != 0;
               bits &= bits - 1) {
            const NodeId v = bit_id(w, bits);
            const Time deadline = windows[v].deadline;
            if (best < n && !(deadline < best_deadline - kTimeTolerance)) {
              continue;  // cannot change the outcome (see above)
            }
            // Idle, available, eligible processor with data present; prefer
            // the fastest class, then the lowest id (deterministic). Every
            // check but the class range folds into one flag and a select.
            ProcessorId chosen = 0;
            double chosen_wcet = 0.0;
            bool found = false;
            const Task& task = app.task(v);
            const double* wcets = task.wcet_by_class.data();
            const std::size_t class_count = task.wcet_by_class.size();
            const ProcessorId pin = ws.pinned[v];
            const Time* ready_row = ws.dispatch_ready_at.data() + v * m;
            for (const ProcessorId p : ws.free_procs) {
              const ProcessorClassId e = ws.proc_class[p];
              if (e >= class_count) {
                continue;  // no wcet entry: not Task::eligible
              }
              const double c = adjust_wcet(v, wcets[e]);
              const bool usable =
                  ((pin == kUnpinnedProcessor) | (pin == p)) &
                  !(wcets[e] < 0.0) &  // Task::eligible, as a direct read
                  // fits the planned availability window
                  !(now + c > ws.known_until[p] + kTimeTolerance) &
                  !(ready_row[p] > now + kTimeTolerance);  // data present
              const bool better = usable & (!found | (c < chosen_wcet));
              found |= usable;
              chosen = choose(better, p, chosen);
              chosen_wcet = choose(better, c, chosen_wcet);
            }
            best = choose(found, v, best);
            best_proc = choose(found, chosen, best_proc);
            best_wcet = choose(found, chosen_wcet, best_wcet);
            best_deadline = choose(found, deadline, best_deadline);
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
      cand[best >> 6] &= ~bit(best);
      arrived[best >> 6] &= ~bit(best);
      running[best >> 6] |= bit(best);
    }

    // Advance to the next event: the minimum over the legacy next-event
    // proposals, each taken from the live state that can still make it.
    Time next = kTimeInfinity;
    bool known_ahead = false;
    for (ProcessorId p = 0; p < m; ++p) {
      if (ws.busy_until[p] > now + kTimeTolerance) {
        next = std::min(next, ws.busy_until[p]);
      }
      if (!ws.failure_handled[p] && ws.surprise_down[p] < kTimeInfinity &&
          ws.surprise_down[p] > now + kTimeTolerance) {
        next = std::min(next, ws.surprise_down[p]);
      }
      known_ahead = known_ahead || now + kTimeTolerance < ws.known_from[p];
    }
    if (!ws.arrivals.empty()) {
      next = std::min(next, ws.arrivals.top().key[0]);
    }
    // Arrived candidates propose, per eligible processor they may use, its
    // known_from while it is not yet up, else their data-ready instant.
    // While some processor is not yet up, every arrived candidate is
    // scanned; otherwise only the data-wait set, which drops a task once
    // none of its data-ready instants lies ahead. A released task with no eligible
    // class fails the run the first instant its window has arrived, in the
    // ascending-id order of the legacy scan.
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits =
               known_ahead ? arrived[w] : wait[w] & arrived[w];
           bits != 0; bits &= bits - 1) {
        const NodeId v = bit_id(w, bits);
        const Task& task = app.task(v);
        const Time* ready_row = ws.dispatch_ready_at.data() + v * m;
        bool eligible = false;
        for (ProcessorId p = 0; p < m; ++p) {
          if (!eligible_on(task, p)) {
            continue;
          }
          eligible = true;
          if (now + kTimeTolerance >= ws.surprise_down[p]) {
            continue;
          }
          if (ws.pinned[v] != kUnpinnedProcessor && ws.pinned[v] != p) {
            continue;
          }
          if (now + kTimeTolerance < ws.known_from[p]) {
            next = std::min(next, ws.known_from[p]);
          } else if (ready_row[p] > now + kTimeTolerance) {
            next = std::min(next, ready_row[p]);
          }
        }
        if (!eligible) {
          return fail(v, "task " + task.name +
                             " has no eligible processor on this platform");
        }
        if (!(ws.dispatch_last_ready[v] > now + kTimeTolerance)) {
          wait[w] &= ~bit(v);
        }
      }
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
