#include "dsslice/sched/preemptive_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dsslice/obs/trace.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

PreemptiveEdfScheduler::PreemptiveEdfScheduler(PreemptiveOptions options)
    : options_(options) {}

namespace {

constexpr ProcessorId kUnbound = static_cast<ProcessorId>(-1);

}  // namespace

PreemptiveResult PreemptiveEdfScheduler::run(
    const Application& app, const DeadlineAssignment& assignment,
    const Platform& platform) const {
  SchedulerWorkspace ws;
  PreemptiveResult result;
  run_into(result, ws, app, assignment, platform);
  return result;
}

void PreemptiveEdfScheduler::run_into(PreemptiveResult& result,
                                      SchedulerWorkspace& ws,
                                      const Application& app,
                                      const DeadlineAssignment& assignment,
                                      const Platform& platform) const {
  DSSLICE_SPAN("sched.preemptive.run");
  DSSLICE_COUNT("sched.preemptive.runs", 1);
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(assignment.windows.size() == n, "assignment size mismatch");

  result.success = false;
  result.failed_task.reset();
  result.failure_reason.clear();
  result.preemptions = 0;
  result.slices.clear();
  ws.fill(result.completion, n, kTimeZero);
  ws.fill(result.processor_of, n, kUnbound);

  // Task state (struct-of-arrays in the workspace; formerly a TaskRun
  // vector allocated per call).
  ws.fill(ws.task_released, n, char{0});
  ws.fill(ws.task_completed, n, char{0});
  ws.fill(ws.task_release, n, kTimeZero);
  ws.fill(ws.task_remaining, n, 0.0);
  ws.fill(ws.task_processor, n, kUnbound);
  ws.size(ws.task_preds_left, n);
  // Per-processor state: currently running task (or n), its dispatch time,
  // queue of released-but-not-running bound tasks, and total bound backlog.
  ws.fill(ws.running, m, static_cast<NodeId>(n));
  ws.fill(ws.dispatched_at, m, kTimeZero);
  ws.size(ws.ready_on, m);
  for (auto& q : ws.ready_on) {
    q.clear();
  }
  ws.fill(ws.backlog, m, 0.0);

  const auto* shared_bus = dynamic_cast<const SharedBus*>(&platform.network());
  const Time bus_rate =
      shared_bus != nullptr ? shared_bus->per_item_delay() : kTimeZero;

  const auto fail = [&](NodeId v, std::string reason) {
    result.success = false;
    result.failed_task = v;
    result.failure_reason = std::move(reason);
  };

  // Binds a task whose predecessors are all complete: choose the eligible
  // processor minimizing (data-ready time, backlog, id) and queue its
  // release.
  ws.release_queue.clear();  // unsorted; scanned
  std::size_t incomplete = n;
  bool binding_failed = false;
  NodeId binding_failed_task = 0;
  const auto bind_task = [&](NodeId v) {
    const Task& task = app.task(v);
    Time best_release = kTimeInfinity;
    double best_backlog = 0.0;
    ProcessorId best = kUnbound;
    const auto preds = g.predecessors(v);
    const auto pitems = g.predecessor_items(v);
    for (ProcessorId p = 0; p < m; ++p) {
      if (!task.eligible(platform.class_of(p))) {
        continue;
      }
      Time rel = assignment.windows[v].arrival;
      for (std::size_t k = 0; k < preds.size(); ++k) {
        const NodeId u = preds[k];
        const Time d =
            shared_bus != nullptr
                ? (ws.task_processor[u] == p ? kTimeZero
                                             : pitems[k] * bus_rate)
                : platform.comm_delay(ws.task_processor[u], p, pitems[k]);
        rel = std::max(rel, result.completion[u] + d);
      }
      if (best == kUnbound || rel < best_release - kTimeTolerance ||
          (std::abs(rel - best_release) <= kTimeTolerance &&
           (ws.backlog[p] < best_backlog - kTimeTolerance ||
            (std::abs(ws.backlog[p] - best_backlog) <= kTimeTolerance && p < best)))) {
        best = p;
        best_release = rel;
        best_backlog = ws.backlog[p];
      }
    }
    if (best == kUnbound) {
      binding_failed = true;
      binding_failed_task = v;
      return;
    }
    ws.task_processor[v] = best;
    ws.task_release[v] = best_release;
    ws.task_remaining[v] = app.task(v).wcet(platform.class_of(best));
    result.processor_of[v] = best;
    ws.backlog[best] += ws.task_remaining[v];
    ws.push(ws.release_queue, {best_release, v});
  };

  for (NodeId v = 0; v < n; ++v) {
    ws.task_preds_left[v] = g.predecessors(v).size();
    if (ws.task_preds_left[v] == 0) {
      bind_task(v);
    }
  }
  if (binding_failed) {
    return fail(binding_failed_task,
                "task " + app.task(binding_failed_task).name +
                    " has no eligible processor on this platform");
  }

  const auto dispatch = [&](ProcessorId p, Time now) {
    // Run the earliest-deadline released task bound to p.
    if (ws.ready_on[p].empty()) {
      ws.running[p] = static_cast<NodeId>(n);
      return;
    }
    auto& queue = ws.ready_on[p];
    std::size_t pick = 0;
    for (std::size_t k = 1; k < queue.size(); ++k) {
      const Time da = assignment.windows[queue[k]].deadline;
      const Time db = assignment.windows[queue[pick]].deadline;
      if (da < db - kTimeTolerance ||
          (std::abs(da - db) <= kTimeTolerance && queue[k] < queue[pick])) {
        pick = k;
      }
    }
    ws.running[p] = queue[pick];
    queue[pick] = queue.back();
    queue.pop_back();
    ws.dispatched_at[p] = now;
  };

  Time now = kTimeZero;
  std::size_t guard = 0;
  bool missed = false;
  while (incomplete > 0) {
    DSSLICE_CHECK(++guard <= 8 * n * (m + 2) + 64,
                  "preemptive simulation failed to converge");
    // Next event: earliest pending release or earliest projected finish.
    Time next = kTimeInfinity;
    for (const auto& [t, v] : ws.release_queue) {
      next = std::min(next, std::max(t, now));
    }
    for (ProcessorId p = 0; p < m; ++p) {
      if (ws.running[p] < n) {
        next = std::min(next,
                        ws.dispatched_at[p] + ws.task_remaining[ws.running[p]]);
      }
    }
    DSSLICE_CHECK(next < kTimeInfinity,
                  "incomplete tasks but no pending events");
    now = next;

    // 1. Completions at `now`.
    for (ProcessorId p = 0; p < m; ++p) {
      const NodeId v = ws.running[p];
      if (v >= n) {
        continue;
      }
      const Time projected = ws.dispatched_at[p] + ws.task_remaining[v];
      if (projected > now + kTimeTolerance) {
        continue;
      }
      result.slices.push_back(ExecutionSlice{v, p, ws.dispatched_at[p], now});
      ws.task_completed[v] = 1;
      ws.task_remaining[v] = 0.0;
      result.completion[v] = now;
      ws.backlog[p] -= app.task(v).wcet(platform.class_of(p));
      ws.running[p] = static_cast<NodeId>(n);
      --incomplete;
      if (now > assignment.windows[v].deadline + kTimeTolerance) {
        missed = true;
        if (options_.abort_on_miss) {
          return fail(v, "task " + app.task(v).name +
                             " misses its deadline under preemptive EDF");
        }
        if (!result.failed_task.has_value()) {
          result.failed_task = v;
          result.failure_reason =
              "task " + app.task(v).name + " missed its deadline";
        }
      }
      for (const NodeId s : g.successors(v)) {
        if (--ws.task_preds_left[s] == 0) {
          bind_task(s);
          if (binding_failed) {
            return fail(binding_failed_task,
                        "task " + app.task(binding_failed_task).name +
                            " has no eligible processor on this platform");
          }
        }
      }
    }

    // 2. Releases due at `now` move to their processor's ready set,
    //    preempting a less urgent running task.
    for (std::size_t k = 0; k < ws.release_queue.size();) {
      if (ws.release_queue[k].first > now + kTimeTolerance) {
        ++k;
        continue;
      }
      const NodeId v = ws.release_queue[k].second;
      ws.release_queue[k] = ws.release_queue.back();
      ws.release_queue.pop_back();
      ws.task_released[v] = 1;
      const ProcessorId p = ws.task_processor[v];
      const NodeId cur = ws.running[p];
      if (cur < n && assignment.windows[v].deadline <
                         assignment.windows[cur].deadline - kTimeTolerance) {
        // Preempt: bank the partial slice, requeue the victim.
        if (now > ws.dispatched_at[p] + kTimeTolerance) {
          result.slices.push_back(
              ExecutionSlice{cur, p, ws.dispatched_at[p], now});
          ws.task_remaining[cur] -= now - ws.dispatched_at[p];
        }
        ++result.preemptions;
        ws.push(ws.ready_on[p], cur);
        ws.running[p] = v;
        ws.dispatched_at[p] = now;
      } else {
        ws.push(ws.ready_on[p], v);
      }
    }

    // 3. Idle processors pick up work.
    for (ProcessorId p = 0; p < m; ++p) {
      if (ws.running[p] >= n) {
        dispatch(p, now);
      }
    }
  }

  DSSLICE_COUNT("sched.preemptive.preemptions", result.preemptions);
  result.success = !missed;
}

std::vector<std::string> validate_preemptive_trace(
    const Application& app, const Platform& platform,
    const DeadlineAssignment& assignment, const PreemptiveResult& result,
    bool check_deadlines, double epsilon) {
  std::vector<std::string> problems;
  const std::size_t n = app.task_count();

  // Per-processor slices must not overlap.
  for (ProcessorId p = 0; p < platform.processor_count(); ++p) {
    std::vector<ExecutionSlice> slices;
    for (const ExecutionSlice& s : result.slices) {
      if (s.processor == p) {
        slices.push_back(s);
      }
    }
    std::sort(slices.begin(), slices.end(),
              [](const ExecutionSlice& a, const ExecutionSlice& b) {
                return a.start < b.start;
              });
    for (std::size_t k = 1; k < slices.size(); ++k) {
      if (slices[k].start + epsilon < slices[k - 1].finish) {
        problems.push_back("processor p" + std::to_string(p) +
                           ": execution slices overlap");
      }
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    // Slice budget: total executed time equals the WCET on the bound class;
    // all slices on the bound processor; none before the window arrival.
    double executed = 0.0;
    Time last_finish = kTimeZero;
    for (const ExecutionSlice& s : result.slices) {
      if (s.task != v) {
        continue;
      }
      executed += s.finish - s.start;
      last_finish = std::max(last_finish, s.finish);
      if (s.processor != result.processor_of[v]) {
        problems.push_back("task " + app.task(v).name +
                           " executed off its bound processor");
      }
      if (s.start + epsilon < assignment.windows[v].arrival) {
        problems.push_back("task " + app.task(v).name +
                           " executed before its window opens");
      }
    }
    const double expected = app.task(v).wcet(
        platform.class_of(result.processor_of[v]));
    if (std::abs(executed - expected) > epsilon) {
      problems.push_back("task " + app.task(v).name + " executed " +
                         format_fixed(executed, 3) + " != WCET " +
                         format_fixed(expected, 3));
    }
    if (std::abs(last_finish - result.completion[v]) > epsilon) {
      problems.push_back("task " + app.task(v).name +
                         ": completion time inconsistent with its slices");
    }
    if (check_deadlines &&
        result.completion[v] > assignment.windows[v].deadline + epsilon) {
      problems.push_back("task " + app.task(v).name +
                         " completes after its deadline");
    }
  }

  // Precedence: no slice of a successor before every predecessor completes.
  for (const Arc& arc : app.graph().arcs()) {
    Time first_start = kTimeInfinity;
    for (const ExecutionSlice& s : result.slices) {
      if (s.task == arc.to) {
        first_start = std::min(first_start, s.start);
      }
    }
    if (first_start + epsilon < result.completion[arc.from]) {
      problems.push_back("task " + app.task(arc.to).name +
                         " starts before its predecessor completes");
    }
  }
  return problems;
}

}  // namespace dsslice
