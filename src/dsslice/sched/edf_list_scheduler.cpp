#include "dsslice/sched/edf_list_scheduler.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string_view>
#include <vector>

#include "dsslice/obs/trace.hpp"
#include "dsslice/sched/insertion_scheduler.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/branch_free.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

std::string to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kAppend:
      return "append";
    case PlacementPolicy::kInsertion:
      return "insertion";
  }
  return "unknown";
}

EdfListScheduler::EdfListScheduler(SchedulerOptions options)
    : options_(options) {}

SchedulerResult EdfListScheduler::run(const Application& app,
                                      const DeadlineAssignment& assignment,
                                      const Platform& platform,
                                      const ResourceModel* resources,
                                      const CoLocation* groups) const {
  SchedulerWorkspace ws;
  SchedulerResult result;
  run_into(result, ws, app, assignment, platform, resources, groups);
  return result;
}

void EdfListScheduler::run_into(SchedulerResult& result, SchedulerWorkspace& ws,
                                const Application& app,
                                const DeadlineAssignment& assignment,
                                const Platform& platform,
                                const ResourceModel* resources,
                                const CoLocation* groups) const {
  DSSLICE_SPAN("sched.list.run");
  DSSLICE_COUNT("sched.list.runs", 1);
  DSSLICE_REQUIRE(resources == nullptr ||
                      options_.placement == PlacementPolicy::kAppend,
                  "resource constraints require append placement");
  DSSLICE_REQUIRE(resources == nullptr ||
                      resources->task_count() == app.task_count(),
                  "resource model size mismatch");
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(assignment.windows.size() == n,
                  "assignment size mismatch");

  reset_scheduler_result(result, n, m);
  Schedule& schedule = result.schedule;

  const bool insertion = options_.placement == PlacementPolicy::kInsertion;
  if (insertion) {
    ws.size(ws.timelines, m);
    for (ProcessorTimeline& tl : ws.timelines) {
      tl.clear();
    }
  }

  // Per-run accessor caches: the candidate loop below runs n × m times, and
  // the out-of-line getters it replaces (Platform::class_of,
  // Schedule::processor_available, Schedule::entry) dominated the profile
  // once allocations were gone. Each cache mirrors its source exactly.
  ws.size(ws.proc_class, m);
  for (ProcessorId p = 0; p < m; ++p) {
    ws.proc_class[p] = platform.class_of(p);
  }
  ws.fill(ws.proc_available, m, kTimeZero);  // Schedule starts all-idle
  ws.size(ws.local_pred_bound, m);           // BusReadyFold's per-proc slots
  ws.size(ws.placed_finish, n);
  ws.size(ws.placed_proc, n);
  // Tasks live contiguously in the Application; one bounds-checked call
  // grounds the pointer, after which task lookups are plain indexing.
  const Task* tasks = n > 0 ? &app.task(0) : nullptr;
  // Per-predecessor scratch for the modes that rescan predecessors per
  // candidate processor; sized once so the per-task loops never resize.
  ws.size(ws.pred_finish, n);
  ws.size(ws.pred_proc, n);

  // Shared-resource availability (exclusive, held for the whole execution).
  ws.fill(ws.resource_available,
          resources != nullptr ? resources->resource_count() : 0, kTimeZero);

  // Co-location: each group's processor (fixed, or kAnyProcessor until its
  // first member is placed) and, for free groups, a row of m processor
  // classes (group_class, group-major) in which a processor some member
  // cannot run on reads as kNoClass, which the candidate loop's own class
  // check rejects.
  if (groups != nullptr) {
    constexpr ProcessorClassId kNoClass =
        std::numeric_limits<ProcessorClassId>::max();
    const std::size_t gc = groups->group_count;
    DSSLICE_REQUIRE(groups->group_of.size() == n,
                    "co-location group table size mismatch");
    DSSLICE_REQUIRE(groups->fixed_processor.empty() ||
                        groups->fixed_processor.size() == gc,
                    "co-location processor table size mismatch");
    if (groups->fixed_processor.empty()) {
      ws.fill(ws.group_proc, gc, kAnyProcessor);
    } else {
      ws.size(ws.group_proc, gc);
      for (std::size_t k = 0; k < gc; ++k) {
        const ProcessorId p = groups->fixed_processor[k];
        DSSLICE_REQUIRE(p < m || p == kAnyProcessor,
                        "co-location processor out of range");
        ws.group_proc[k] = p;
      }
    }
    ws.size(ws.group_class, gc * m);
    for (std::size_t k = 0; k < gc; ++k) {
      if (ws.group_proc[k] == kAnyProcessor) {
        std::copy(ws.proc_class.begin(), ws.proc_class.end(),
                  ws.group_class.begin() + static_cast<std::ptrdiff_t>(k * m));
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t k = groups->group_of[v];
      DSSLICE_REQUIRE(k < gc, "co-location group out of range");
      if (ws.group_proc[k] != kAnyProcessor) {
        continue;
      }
      for (ProcessorId p = 0; p < m; ++p) {
        if (!tasks[v].eligible(ws.proc_class[p])) {
          ws.group_class[k * m + p] = kNoClass;
        }
      }
    }
  }

  // The paper's platform is a shared bus; devirtualize its delay model once
  // per run. The inlined arithmetic is the exact expression of
  // SharedBus::delay (0 co-located, items × per-item otherwise), so results
  // stay bit-identical.
  const auto* shared_bus = dynamic_cast<const SharedBus*>(&platform.network());
  const Time bus_rate =
      shared_bus != nullptr ? shared_bus->per_item_delay() : kTimeZero;

  // Bus-contention simulation state (see SchedulerOptions).
  const SharedBus* bus_model = nullptr;
  if (options_.simulate_bus_contention) {
    bus_model = shared_bus;
    DSSLICE_REQUIRE(bus_model != nullptr,
                    "bus-contention simulation requires a SharedBus network");
  }
  ws.bus.clear();

  // Ready bookkeeping: a task becomes ready once all predecessors are
  // scheduled. The heap pops the exact (deadline, arrival, id) minimum the
  // legacy linear scan selected; it holds each task at most once.
  ws.note(ws.ready.capacity(), n);
  ws.ready.reset(n);
  const auto make_ready = [&](NodeId v) {
    const Window& w = assignment.windows[v];
    ws.ready.push({{w.deadline, w.arrival}, v});
  };
  ws.size(ws.pred_count, n);
  for (NodeId v = 0; v < n; ++v) {
    ws.pred_count[v] = g.predecessors(v).size();
    if (ws.pred_count[v] == 0) {
      make_ready(v);
    }
  }

  // Writes the message into failure_reason piece by piece: the recycled
  // result keeps that string's capacity, so a warm failure allocates only
  // when its message outgrows every earlier one.
  const auto fail = [&](NodeId v,
                        std::initializer_list<std::string_view> reason) {
    result.success = false;
    result.failed_task = v;
    result.failure_reason.clear();
    for (const std::string_view part : reason) {
      result.failure_reason += part;
    }
  };

  bool missed = false;
  while (!ws.ready.empty()) {
    const NodeId v = ws.ready.pop();
    const Task& task = tasks[v];
    const Window& window = assignment.windows[v];

    // Base bound shared by every processor: arrival plus resource holds.
    Time base = window.arrival;
    if (resources != nullptr) {
      for (const ResourceId r : resources->resources_of(v)) {
        base = std::max(base, ws.resource_available[r]);
      }
    }

    const auto preds = g.predecessors(v);
    const auto pitems = g.predecessor_items(v);
    const std::size_t np = preds.size();

    // Shared-bus fast path (nominal mode): BusReadyFold answers the
    // data-availability bound max over predecessors u of
    //   finish_u + (proc_u == p ? 0 : items_u × rate)
    // in O(preds + m) instead of O(preds × m), bit-identically.
    BusReadyFold fold;
    const bool fast_comm = shared_bus != nullptr && bus_model == nullptr;
    if (fast_comm) {
      // One pass over the predecessors, reading placement mirrors directly;
      // the bus/generic paths below rescan predecessors per candidate
      // processor instead, so only they stage (finish, proc) copies.
      fold.reset(ws.local_pred_bound);
      for (std::size_t k = 0; k < np; ++k) {
        const NodeId u = preds[k];
        const Time fin = ws.placed_finish[u];
        fold.add(ws.placed_proc[u], fin, fin + pitems[k] * bus_rate);
      }
    } else {
      // Cache each predecessor's (finish, processor) once per task — the
      // legacy code re-fetched them per candidate processor, with a linear
      // message_items search per fetch.
      for (std::size_t k = 0; k < np; ++k) {
        const NodeId u = preds[k];
        ws.pred_finish[k] = ws.placed_finish[u];
        ws.pred_proc[k] = ws.placed_proc[u];
      }
    }

    // A placed or fixed group admits only its processor; a free group only
    // the processors all its members can run on.
    ProcessorId first_proc = 0;
    ProcessorId end_proc = static_cast<ProcessorId>(m);
    const ProcessorClassId* proc_class = ws.proc_class.data();
    if (groups != nullptr) {
      const std::size_t k = groups->group_of[v];
      if (ws.group_proc[k] != kAnyProcessor) {
        first_proc = ws.group_proc[k];
        end_proc = first_proc + 1;
      } else {
        proc_class = &ws.group_class[k * m];
      }
    }

    // Evaluate every eligible processor; keep the earliest start (ties by
    // earliest finish, then processor id — §5.4).
    ProcessorId best_proc = 0;
    Time best_start = kTimeInfinity;
    Time best_finish = kTimeInfinity;
    ws.best_transfers.clear();
    bool found = false;
    // Direct reads of the public wcet table; `>= 0` is Task::eligible and
    // the read itself is Task::wcet, sans the out-of-line calls.
    const double* wcets = task.wcet_by_class.data();
    const std::size_t class_count = task.wcet_by_class.size();
    for (ProcessorId p = first_proc; p < end_proc; ++p) {
      const ProcessorClassId e = proc_class[p];
      if (e >= class_count) {
        continue;
      }
      const double c = wcets[e];
      if (c < 0.0) {
        continue;
      }
      Time bound = base;
      ws.cand_transfers.clear();
      if (bus_model != nullptr) {
        // Bus contention: every cross-processor message reserves a
        // serialized slot (tentatively, on a copy of the bus timeline).
        ws.bus_trial.assign(ws.bus);
        for (std::size_t k = 0; k < np; ++k) {
          const double items = pitems[k];
          if (ws.pred_proc[k] == p || items <= 0.0) {
            bound = std::max(bound, ws.pred_finish[k]);
            continue;
          }
          const Time duration = items * bus_model->per_item_delay();
          const Time slot = ws.bus_trial.earliest_fit(ws.pred_finish[k],
                                                      duration);
          ws.bus_trial.occupy(slot, duration);
          ws.cand_transfers.push_back(
              BusTransfer{preds[k], v, slot, slot + duration});
          bound = std::max(bound, slot + duration);
        }
      } else if (fast_comm) {
        bound = std::max(bound, fold.at(p));
      } else {
        for (std::size_t k = 0; k < np; ++k) {
          bound = std::max(bound, ws.pred_finish[k] +
                                      platform.comm_delay(ws.pred_proc[k], p,
                                                          pitems[k]));
        }
      }
      Time start;
      if (insertion) {
        start = ws.timelines[p].earliest_fit(bound, c);
      } else {
        start = std::max(bound, ws.proc_available[p]);
      }
      const Time finish = start + c;
      // Processors are visited in ascending id, so the id tie-break never
      // favours p over an incumbent; the select below is branch-free.
      const bool better = !found | (start < best_start) |
                          ((start == best_start) & (finish < best_finish));
      found = true;
      best_proc = choose(better, p, best_proc);
      best_start = choose(better, start, best_start);
      best_finish = choose(better, finish, best_finish);
      if (bus_model != nullptr && better) {
        std::swap(ws.best_transfers, ws.cand_transfers);
      }
    }

    if (!found) {
      const bool eligible_somewhere =
          std::any_of(ws.proc_class.begin(), ws.proc_class.end(),
                      [&](ProcessorClassId e) { return task.eligible(e); });
      if (groups != nullptr && eligible_somewhere) {
        return fail(v, {"group of task ", task.name,
                        " has no commonly eligible processor"});
      }
      return fail(v, {"task ", task.name,
                      " has no eligible processor on this platform"});
    }

    if (best_finish > window.deadline) {
      missed = true;
      if (options_.abort_on_miss) {
        return fail(v, {"task ", task.name, " misses its deadline (finish ",
                        std::to_string(best_finish), " > D ",
                        std::to_string(window.deadline), ")"});
      }
      if (!result.failed_task.has_value()) {
        result.failed_task = v;
        result.failure_reason = "task " + task.name + " missed its deadline";
      }
    }

    schedule.place(v, best_proc, best_start, best_finish);
    if (groups != nullptr) {
      ws.group_proc[groups->group_of[v]] = best_proc;
    }
    ws.placed_finish[v] = best_finish;
    ws.placed_proc[v] = best_proc;
    ws.proc_available[best_proc] =
        std::max(ws.proc_available[best_proc], best_finish);
    if (resources != nullptr) {
      for (const ResourceId r : resources->resources_of(v)) {
        ws.resource_available[r] = best_finish;
      }
    }
    if (insertion) {
      ws.timelines[best_proc].occupy(best_start, best_finish - best_start);
    }
    for (const BusTransfer& t : ws.best_transfers) {
      ws.bus.occupy(t.start, t.finish - t.start);
      result.bus_transfers.push_back(t);
    }
    for (const NodeId s : g.successors(v)) {
      if (--ws.pred_count[s] == 0) {
        make_ready(s);
      }
    }
  }

  if (!schedule.complete()) {
    if (result.failed_task.has_value()) {
      return;  // already failed (no eligible processor / aborted miss)
    }
    // Only possible for cyclic graphs, which Application::validate rejects.
    return fail(0, {"schedule incomplete: task graph has a cycle"});
  }
  result.success = !missed;
}

}  // namespace dsslice
