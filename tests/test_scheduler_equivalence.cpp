// Equivalence suite for the allocation-free scheduler engine.
//
// The engine rewrites in sched/ (binary ready heap, cached CSR adjacency,
// devirtualized shared-bus delays, SchedulerWorkspace buffers) claim
// *bit-identical* schedules, not approximately-equal ones. This file pins
// that claim against verbatim copies of the pre-engine implementations:
// every placement, start/finish instant, bus reservation, outcome flag, and
// dispatch telemetry entry must match exactly — across all four deadline
// metrics, generated seeds, append/insertion/bus-contention placement, and
// dispatch with and without injected faults. A final test asserts the warm
// engine path performs zero scheduler-state allocations
// (SchedulerWorkspace::grow_events stays put on a repeated batch).
//
// The legacy code below is carried verbatim (same flags, same binary) so a
// divergence is attributable to the engine, not to compiler or build skew.
// It is the repo's only copy of the pre-engine schedulers: the perf
// harnesses measure the engine alone, so this suite is what still proves
// every engine change bit-identical, under both the Release and the
// ASan/UBSan presets. It stays until a committed golden-digest corpus
// covers the same cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsslice/dsslice.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

// ---------------------------------------------------------------------------
// Legacy implementations (pre-engine), kept verbatim for the "before" side.
// ---------------------------------------------------------------------------
namespace legacy {

SchedulerResult list_run(const Application& app,
                         const DeadlineAssignment& assignment,
                         const Platform& platform,
                         const SchedulerOptions& options_,
                         const ResourceModel* resources = nullptr) {
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

  SchedulerResult result{Schedule(n, m), false, std::nullopt, "", {}};
  Schedule& schedule = result.schedule;

  std::vector<ProcessorTimeline> timelines(
      options_.placement == PlacementPolicy::kInsertion ? m : 0);

  std::vector<Time> resource_available(
      resources != nullptr ? resources->resource_count() : 0, kTimeZero);

  const SharedBus* bus_model = nullptr;
  ProcessorTimeline bus;
  if (options_.simulate_bus_contention) {
    bus_model = dynamic_cast<const SharedBus*>(&platform.network());
    DSSLICE_REQUIRE(bus_model != nullptr,
                    "bus-contention simulation requires a SharedBus network");
  }

  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    unscheduled_preds[v] = g.in_degree(v);
    if (unscheduled_preds[v] == 0) {
      ready.push_back(v);
    }
  }

  const auto fail = [&](NodeId v, std::string reason) {
    result.success = false;
    result.failed_task = v;
    result.failure_reason = std::move(reason);
    return result;
  };

  bool missed = false;
  while (!ready.empty()) {
    std::size_t pick = 0;
    for (std::size_t k = 1; k < ready.size(); ++k) {
      const Window& a = assignment.windows[ready[k]];
      const Window& b = assignment.windows[ready[pick]];
      if (a.deadline < b.deadline ||
          (a.deadline == b.deadline &&
           (a.arrival < b.arrival ||
            (a.arrival == b.arrival && ready[k] < ready[pick])))) {
        pick = k;
      }
    }
    const NodeId v = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();

    const Task& task = app.task(v);
    const Window& window = assignment.windows[v];

    ProcessorId best_proc = 0;
    Time best_start = kTimeInfinity;
    Time best_finish = kTimeInfinity;
    std::vector<BusTransfer> best_transfers;
    bool found = false;
    for (ProcessorId p = 0; p < m; ++p) {
      const ProcessorClassId e = platform.class_of(p);
      if (!task.eligible(e)) {
        continue;
      }
      const double c = task.wcet(e);
      Time bound = window.arrival;
      if (resources != nullptr) {
        for (const ResourceId r : resources->resources_of(v)) {
          bound = std::max(bound, resource_available[r]);
        }
      }
      std::vector<BusTransfer> transfers;
      if (bus_model != nullptr) {
        ProcessorTimeline trial = bus;
        for (const NodeId u : g.predecessors(v)) {
          const ScheduledTask& pe = schedule.entry(u);
          const double items = g.message_items(u, v).value_or(0.0);
          if (pe.processor == p || items <= 0.0) {
            bound = std::max(bound, pe.finish);
            continue;
          }
          const Time duration = items * bus_model->per_item_delay();
          const Time slot = trial.earliest_fit(pe.finish, duration);
          trial.occupy(slot, duration);
          transfers.push_back(BusTransfer{u, v, slot, slot + duration});
          bound = std::max(bound, slot + duration);
        }
      } else {
        for (const NodeId u : g.predecessors(v)) {
          const ScheduledTask& pe = schedule.entry(u);
          const double items = g.message_items(u, v).value_or(0.0);
          bound = std::max(bound,
                           pe.finish + platform.comm_delay(pe.processor, p,
                                                           items));
        }
      }
      Time start;
      if (options_.placement == PlacementPolicy::kInsertion) {
        start = timelines[p].earliest_fit(bound, c);
      } else {
        start = std::max(bound, schedule.processor_available(p));
      }
      const Time finish = start + c;
      if (!found || start < best_start ||
          (start == best_start &&
           (finish < best_finish ||
            (finish == best_finish && p < best_proc)))) {
        found = true;
        best_proc = p;
        best_start = start;
        best_finish = finish;
        best_transfers = std::move(transfers);
      }
    }

    if (!found) {
      return fail(v, "task " + task.name +
                         " has no eligible processor on this platform");
    }

    if (best_finish > window.deadline) {
      missed = true;
      if (options_.abort_on_miss) {
        return fail(v, "task " + task.name + " misses its deadline (finish " +
                           std::to_string(best_finish) + " > D " +
                           std::to_string(window.deadline) + ")");
      }
      if (!result.failed_task.has_value()) {
        result.failed_task = v;
        result.failure_reason = "task " + task.name + " missed its deadline";
      }
    }

    schedule.place(v, best_proc, best_start, best_finish);
    if (resources != nullptr) {
      for (const ResourceId r : resources->resources_of(v)) {
        resource_available[r] = best_finish;
      }
    }
    if (options_.placement == PlacementPolicy::kInsertion) {
      timelines[best_proc].occupy(best_start, best_finish - best_start);
    }
    for (const BusTransfer& t : best_transfers) {
      bus.occupy(t.start, t.finish - t.start);
      result.bus_transfers.push_back(t);
    }
    for (const NodeId s : g.successors(v)) {
      if (--unscheduled_preds[s] == 0) {
        ready.push_back(s);
      }
    }
  }

  if (!schedule.complete()) {
    return fail(0, "schedule incomplete: task graph has a cycle");
  }
  result.success = !missed;
  return result;
}

constexpr double kEps = 1e-9;

std::uint64_t arc_key(NodeId u, NodeId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

SchedulerResult dispatch_run(const Application& app,
                             const DeadlineAssignment& assignment,
                             const Platform& platform,
                             const DispatchOptions& options_,
                             const DispatchConditions* conditions = nullptr,
                             DispatchControl* control = nullptr,
                             DispatchTelemetry* telemetry = nullptr) {
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

  SchedulerResult result{Schedule(n, m), false, std::nullopt, "", {}};

  std::vector<Window> windows = assignment.windows;
  std::vector<std::size_t> preds_left(n, 0);
  std::vector<char> started(n, 0), done(n, 0), lost(n, 0);
  std::vector<char> shed(n, 0);  // degraded-mode channel (writable View span)
  std::vector<Time> start_time(n, kTimeZero);
  std::vector<Time> finish(n, kTimeInfinity);
  std::vector<ProcessorId> proc_of(n, 0);
  std::vector<ProcessorId> pinned(n, kUnpinnedProcessor);
  std::vector<Time> busy_until(m, kTimeZero);
  std::size_t remaining = n;
  for (NodeId v = 0; v < n; ++v) {
    preds_left[v] = g.in_degree(v);
  }

  std::vector<Time> known_from(m, kTimeZero), known_until(m, kTimeInfinity);
  std::vector<Time> surprise_down(m, kTimeInfinity);
  std::vector<char> failure_handled(m, 0);
  for (ProcessorId p = 0; p < m; ++p) {
    known_from[p] = platform.processor(p).available_from;
    known_until[p] = platform.processor(p).available_until;
    if (conditions != nullptr && !conditions->processor_down_at.empty()) {
      surprise_down[p] = conditions->processor_down_at[p];
    }
  }
  std::vector<Time> down_at(m, kTimeInfinity);
  for (ProcessorId p = 0; p < m; ++p) {
    down_at[p] = std::min(known_until[p], surprise_down[p]);
  }
  bool any_failure = false;

  const auto actual_wcet = [&](NodeId v, ProcessorClassId e) {
    double c = app.task(v).wcet(e);
    if (shed[v]) {
      const double f = app.task(v).optional_fraction;
      if (f > 0.0) {
        c *= 1.0 - f;  // degraded mode: only the mandatory part executes
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

  std::unordered_map<std::uint64_t, double> arc_factor;
  if (conditions != nullptr && !conditions->arc_delay_factor.empty()) {
    const auto& arcs = g.arcs();
    arc_factor.reserve(arcs.size());
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      arc_factor.emplace(arc_key(arcs[k].from, arcs[k].to),
                         conditions->arc_delay_factor[k]);
    }
  }
  const auto comm_delay = [&](NodeId u, NodeId v, ProcessorId src,
                              ProcessorId dst, double items) {
    Time d = platform.comm_delay(src, dst, items);
    if (!arc_factor.empty()) {
      const auto it = arc_factor.find(arc_key(u, v));
      if (it != arc_factor.end()) {
        d *= it->second;
      }
    }
    return d;
  };

  if (telemetry != nullptr) {
    *telemetry = DispatchTelemetry{};
    telemetry->completion.assign(n, kTimeInfinity);
  }

  const auto fail = [&](NodeId v, std::string reason) {
    result.success = false;
    result.failed_task = v;
    result.failure_reason = std::move(reason);
    return result;
  };

  const auto make_view = [&](Time now) {
    return DispatchControl::View{app,  platform, now,        started,
                                 done, finish,   busy_until, down_at,
                                 std::span<char>(shed)};
  };

  const auto data_ready = [&](NodeId v, ProcessorId p) {
    Time ready = kTimeZero;
    for (const NodeId u : g.predecessors(v)) {
      const double items = g.message_items(u, v).value_or(0.0);
      ready = std::max(ready,
                       finish[u] + comm_delay(u, v, proc_of[u], p, items));
    }
    return ready;
  };

  bool missed = false;
  Time now = kTimeZero;
  std::size_t guard = 0;
  const std::size_t guard_limit = (n + 3 * m + 4) * (n * (m + 1) + m + 4) + 64;
  while (remaining > 0) {
    DSSLICE_CHECK(++guard <= guard_limit, "dispatch failed to converge");

    for (ProcessorId p = 0; p < m; ++p) {
      if (failure_handled[p] || surprise_down[p] > now + kEps) {
        continue;
      }
      failure_handled[p] = 1;
      any_failure = true;
      std::vector<NodeId> victims;
      for (NodeId v = 0; v < n; ++v) {
        if (started[v] && !done[v] && proc_of[v] == p &&
            finish[v] > surprise_down[p] + kEps) {
          victims.push_back(v);
          started[v] = 0;
          finish[v] = kTimeInfinity;
          lost[v] = 1;
          if (telemetry != nullptr) {
            telemetry->killed.push_back(v);
          }
        }
      }
      busy_until[p] = std::min(busy_until[p], surprise_down[p]);
      std::vector<NodeId> revived;
      if (control != nullptr) {
        const auto view = make_view(now);
        revived = control->on_processor_failure(view, p, victims, windows,
                                                pinned);
      }
      for (const NodeId r : revived) {
        DSSLICE_CHECK(std::find(victims.begin(), victims.end(), r) !=
                          victims.end(),
                      "control revived a task that was not a victim");
        lost[r] = 0;
        if (telemetry != nullptr) {
          ++telemetry->restarts;
        }
      }
    }

    for (NodeId v = 0; v < n; ++v) {
      if (started[v] && !done[v] && finish[v] <= now + kEps) {
        done[v] = 1;
        --remaining;
        result.schedule.place(v, proc_of[v], start_time[v], finish[v]);
        if (telemetry != nullptr) {
          telemetry->completion[v] = finish[v];
          if (shed[v]) {
            telemetry->degraded.push_back(v);
          }
        }
        const bool late = finish[v] > windows[v].deadline + kEps;
        if (late) {
          missed = true;
          if (telemetry != nullptr) {
            telemetry->misses.push_back(
                TaskMissEvent{v, finish[v], windows[v].deadline});
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
          --preds_left[s];
        }
        if (control != nullptr) {
          const auto view = make_view(now);
          control->on_completion(view, v, late, windows);
        }
      }
    }
    if (remaining == 0) {
      break;
    }

    for (;;) {
      NodeId best = static_cast<NodeId>(n);
      ProcessorId best_proc = 0;
      double best_wcet = 0.0;
      Time best_deadline = kTimeInfinity;
      for (NodeId v = 0; v < n; ++v) {
        if (started[v] || done[v] || lost[v] || preds_left[v] != 0 ||
            windows[v].arrival > now + kEps) {
          continue;
        }
        const Time deadline = windows[v].deadline;
        if (best < n && deadline > best_deadline + kEps) {
          continue;
        }
        ProcessorId chosen = 0;
        double chosen_wcet = 0.0;
        bool found = false;
        for (ProcessorId p = 0; p < m; ++p) {
          if (busy_until[p] > now + kEps) {
            continue;
          }
          if (pinned[v] != kUnpinnedProcessor && pinned[v] != p) {
            continue;
          }
          if (now + kEps < known_from[p] || now + kEps >= surprise_down[p]) {
            continue;
          }
          const Task& task = app.task(v);
          if (!task.eligible(platform.class_of(p))) {
            continue;
          }
          const double c = actual_wcet(v, platform.class_of(p));
          if (now + c > known_until[p] + kEps) {
            continue;
          }
          if (data_ready(v, p) > now + kEps) {
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
        const bool wins =
            best == n || deadline < best_deadline - kEps ||
            (std::abs(deadline - best_deadline) <= kEps && v < best);
        if (wins) {
          best = v;
          best_proc = chosen;
          best_wcet = chosen_wcet;
          best_deadline = deadline;
        }
      }
      if (best >= n) {
        break;
      }
      started[best] = 1;
      proc_of[best] = best_proc;
      start_time[best] = now;
      finish[best] = now + best_wcet;
      busy_until[best_proc] = finish[best];
    }

    Time next = kTimeInfinity;
    for (ProcessorId p = 0; p < m; ++p) {
      if (busy_until[p] > now + kEps) {
        next = std::min(next, busy_until[p]);
      }
      if (!failure_handled[p] && surprise_down[p] < kTimeInfinity &&
          surprise_down[p] > now + kEps) {
        next = std::min(next, surprise_down[p]);
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (started[v] || done[v] || lost[v] || preds_left[v] != 0) {
        continue;
      }
      const Time arrival = windows[v].arrival;
      if (arrival > now + kEps) {
        next = std::min(next, arrival);
        continue;
      }
      const Task& task = app.task(v);
      bool any_eligible = false;
      for (ProcessorId p = 0; p < m; ++p) {
        if (!task.eligible(platform.class_of(p))) {
          continue;
        }
        any_eligible = true;
        if (now + kEps >= surprise_down[p]) {
          continue;
        }
        if (pinned[v] != kUnpinnedProcessor && pinned[v] != p) {
          continue;
        }
        if (now + kEps < known_from[p]) {
          next = std::min(next, known_from[p]);
          continue;
        }
        const Time ready = data_ready(v, p);
        if (ready > now + kEps) {
          next = std::min(next, ready);
        }
      }
      if (!any_eligible) {
        return fail(v, "task " + task.name +
                           " has no eligible processor on this platform");
      }
    }
    if (next >= kTimeInfinity) {
      if (any_failure) {
        break;
      }
      return fail(0, "dispatch deadlocked: task graph has a cycle");
    }
    now = next;
  }

  if (remaining > 0) {
    std::size_t stranded = 0;
    NodeId first = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!done[v]) {
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
  return result;
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Comparison helpers — all comparisons are exact (==), never epsilon-based.
// ---------------------------------------------------------------------------

void expect_same_result(const SchedulerResult& want, const SchedulerResult& got,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(want.success, got.success);
  EXPECT_EQ(want.failed_task, got.failed_task);
  ASSERT_EQ(want.schedule.task_count(), got.schedule.task_count());
  EXPECT_EQ(want.schedule.placed_count(), got.schedule.placed_count());
  for (NodeId v = 0; v < want.schedule.task_count(); ++v) {
    ASSERT_EQ(want.schedule.placed(v), got.schedule.placed(v)) << "task " << v;
    if (!want.schedule.placed(v)) {
      continue;
    }
    const ScheduledTask& a = want.schedule.entry(v);
    const ScheduledTask& b = got.schedule.entry(v);
    EXPECT_EQ(a.processor, b.processor) << "task " << v;
    EXPECT_EQ(a.start, b.start) << "task " << v;      // bitwise, no epsilon
    EXPECT_EQ(a.finish, b.finish) << "task " << v;
  }
  ASSERT_EQ(want.bus_transfers.size(), got.bus_transfers.size());
  for (std::size_t k = 0; k < want.bus_transfers.size(); ++k) {
    const BusTransfer& a = want.bus_transfers[k];
    const BusTransfer& b = got.bus_transfers[k];
    EXPECT_EQ(a.from, b.from) << "transfer " << k;
    EXPECT_EQ(a.to, b.to) << "transfer " << k;
    EXPECT_EQ(a.start, b.start) << "transfer " << k;
    EXPECT_EQ(a.finish, b.finish) << "transfer " << k;
  }
}

void expect_same_telemetry(const DispatchTelemetry& want,
                           const DispatchTelemetry& got,
                           const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.completion.size(), got.completion.size());
  for (std::size_t v = 0; v < want.completion.size(); ++v) {
    EXPECT_EQ(want.completion[v], got.completion[v]) << "task " << v;
  }
  ASSERT_EQ(want.misses.size(), got.misses.size());
  for (std::size_t k = 0; k < want.misses.size(); ++k) {
    EXPECT_EQ(want.misses[k].task, got.misses[k].task);
    EXPECT_EQ(want.misses[k].finish, got.misses[k].finish);
    EXPECT_EQ(want.misses[k].deadline, got.misses[k].deadline);
  }
  EXPECT_EQ(want.killed, got.killed);
  EXPECT_EQ(want.unfinished, got.unfinished);
  EXPECT_EQ(want.restarts, got.restarts);
  EXPECT_EQ(want.degraded, got.degraded);
}

constexpr MetricKind kAllMetrics[] = {MetricKind::kPure, MetricKind::kNorm,
                                      MetricKind::kAdaptG, MetricKind::kAdaptL};
constexpr std::uint64_t kSeeds[] = {11, 22, 33};

/// kNarrow: 40–60 tasks on 3 processors, one bitset word per task set.
/// kWide: the sweep-dispatch-wide benchmark shape (100–150 tasks, m = 4,
/// OLR 0.6), whose task sets span two or three bitset words.
enum class Shape { kNarrow, kWide };

GeneratorConfig equivalence_generator(std::uint64_t seed,
                                      Shape shape = Shape::kNarrow) {
  if (shape == Shape::kWide) {
    GeneratorConfig cfg = testing::paper_generator(seed, 4);
    cfg.graph_count = 1;
    cfg.workload.min_tasks = 100;
    cfg.workload.max_tasks = 150;
    cfg.workload.olr = 0.6;
    return cfg;
  }
  GeneratorConfig cfg = testing::small_generator(seed);
  cfg.workload.min_tasks = 40;
  cfg.workload.max_tasks = 60;
  cfg.workload.min_depth = 6;
  cfg.workload.max_depth = 10;
  return cfg;
}

struct Prepared {
  Scenario scenario;
  DeadlineAssignment assignment;
};

Prepared prepare(MetricKind kind, std::uint64_t seed,
                 Shape shape = Shape::kNarrow) {
  Prepared p{generate_scenario(equivalence_generator(seed, shape), seed), {}};
  const auto est = estimate_wcets(p.scenario.application,
                                  WcetEstimation::kAverage);
  p.assignment =
      run_slicing(p.scenario.application, est, DeadlineMetric(kind),
                  p.scenario.platform.processor_count());
  return p;
}

std::string context_of(MetricKind kind, std::uint64_t seed,
                       Shape shape = Shape::kNarrow) {
  return to_string(kind) + " seed=" + std::to_string(seed) +
         (shape == Shape::kWide ? " wide" : "");
}

// ---------------------------------------------------------------------------
// EDF list scheduler: append, insertion, and bus-contention placement.
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, ListAppendMatchesLegacyBitwise) {
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(kind, seed);
      SchedulerOptions options;  // append, abort_on_miss
      const EdfListScheduler scheduler(options);
      scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                         p.scenario.platform);
      expect_same_result(legacy::list_run(p.scenario.application, p.assignment,
                                          p.scenario.platform, options),
                         engine, "append " + context_of(kind, seed));
    }
  }
}

TEST(SchedulerEquivalence, ListAppendLatenessModeMatchesLegacyBitwise) {
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(kind, seed);
      SchedulerOptions options;
      options.abort_on_miss = false;  // run to completion, report lateness
      const EdfListScheduler scheduler(options);
      scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                         p.scenario.platform);
      expect_same_result(legacy::list_run(p.scenario.application, p.assignment,
                                          p.scenario.platform, options),
                         engine, "lateness " + context_of(kind, seed));
    }
  }
}

TEST(SchedulerEquivalence, ListInsertionMatchesLegacyBitwise) {
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(kind, seed);
      SchedulerOptions options;
      options.placement = PlacementPolicy::kInsertion;
      options.abort_on_miss = false;
      const EdfListScheduler scheduler(options);
      scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                         p.scenario.platform);
      expect_same_result(legacy::list_run(p.scenario.application, p.assignment,
                                          p.scenario.platform, options),
                         engine, "insertion " + context_of(kind, seed));
    }
  }
}

TEST(SchedulerEquivalence, ListBusContentionMatchesLegacyBitwise) {
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(kind, seed);
      SchedulerOptions options;
      options.simulate_bus_contention = true;
      options.abort_on_miss = false;
      const EdfListScheduler scheduler(options);
      scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                         p.scenario.platform);
      expect_same_result(legacy::list_run(p.scenario.application, p.assignment,
                                          p.scenario.platform, options),
                         engine, "bus " + context_of(kind, seed));
    }
  }
}

// ---------------------------------------------------------------------------
// Time-marching dispatcher: nominal and under injected faults.
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, DispatchNominalMatchesLegacyBitwise) {
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const Shape shape : {Shape::kNarrow, Shape::kWide}) {
    for (const MetricKind kind : kAllMetrics) {
      for (const std::uint64_t seed : kSeeds) {
        const Prepared p = prepare(kind, seed, shape);
        DispatchOptions options;
        options.abort_on_miss = false;
        const EdfDispatchScheduler scheduler(options);
        DispatchTelemetry engine_tel, legacy_tel;
        scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                           p.scenario.platform, nullptr, nullptr, &engine_tel);
        const SchedulerResult want = legacy::dispatch_run(
            p.scenario.application, p.assignment, p.scenario.platform,
            options, nullptr, nullptr, &legacy_tel);
        const std::string context = context_of(kind, seed, shape);
        expect_same_result(want, engine, "dispatch " + context);
        expect_same_telemetry(legacy_tel, engine_tel,
                              "dispatch telemetry " + context);
      }
    }
  }
}

TEST(SchedulerEquivalence, DispatchUnderFaultsMatchesLegacyBitwise) {
  // Overruns, delay spikes, and random processor failures all active: the
  // conditions exercise the wcet adjustment, the flattened arc factors, and
  // the failure/kill path of the engine.
  FaultSpec spec;
  spec.overrun_factor = 1.7;
  spec.overrun_probability = 0.5;
  spec.spike_probability = 0.3;
  spec.spike_factor = 4.0;
  spec.random_failure_probability = 0.4;
  spec.random_failure_window = Window{0.0, 40.0};

  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(kind, seed);
      spec.seed = seed * 977 + 13;
      const FaultTrace trace =
          FaultModel(spec).instantiate(p.scenario.application,
                                       p.scenario.platform);
      DispatchOptions options;
      options.abort_on_miss = false;
      const EdfDispatchScheduler scheduler(options);
      DispatchTelemetry engine_tel, legacy_tel;
      scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                         p.scenario.platform, &trace.conditions, nullptr,
                         &engine_tel);
      const SchedulerResult want = legacy::dispatch_run(
          p.scenario.application, p.assignment, p.scenario.platform, options,
          &trace.conditions, nullptr, &legacy_tel);
      expect_same_result(want, engine, "faults " + context_of(kind, seed));
      expect_same_telemetry(legacy_tel, engine_tel,
                            "faults telemetry " + context_of(kind, seed));
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized fault-trace fuzzing: the engine dispatcher must track the
// legacy rescan loop bit-for-bit through arbitrary interleavings of WCET
// overruns (including early completions), delay spikes, surprise processor
// halts, and — with a recovery control attached — window rewrites,
// migrations, shed optionals, and victim revivals.
// ---------------------------------------------------------------------------

FaultSpec fuzz_spec(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  FaultSpec spec;
  spec.seed = rng();
  spec.scope =
      unit(rng) < 0.5 ? OverrunScope::kUniform : OverrunScope::kHotSpot;
  spec.overrun_probability = unit(rng);
  spec.overrun_factor = 0.5 + 2.5 * unit(rng);  // <1 = early completions
  if (unit(rng) < 0.4) {
    spec.overrun_addend = 3.0 * unit(rng);
  }
  spec.hotspot_fraction = 0.1 + 0.8 * unit(rng);
  spec.spike_probability = 0.7 * unit(rng);
  spec.spike_factor = 1.0 + 6.0 * unit(rng);
  spec.random_failure_probability = 0.8 * unit(rng);
  spec.random_failure_window =
      Window{5.0 * unit(rng), 20.0 + 80.0 * unit(rng)};
  if (unit(rng) < 0.3) {
    // A deterministic early halt on processor 0 on top of the random ones:
    // multi-failure runs exercise repeated kill/strand paths.
    spec.failures.push_back(ProcessorFailure{0, 5.0 + 40.0 * unit(rng)});
  }
  return spec;
}

TEST(SchedulerEquivalence, DispatchFaultTraceFuzzMatchesLegacyBitwise) {
  // 24 narrow task sets, then 8 of the wide benchmark shape.
  std::mt19937_64 rng(0xD15F0A57u);
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (int it = 0; it < 32; ++it) {
    const MetricKind kind = kAllMetrics[it % 4];
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(it);
    const Shape shape = it < 24 ? Shape::kNarrow : Shape::kWide;
    const Prepared p = prepare(kind, seed, shape);
    const FaultTrace trace = FaultModel(fuzz_spec(rng))
                                 .instantiate(p.scenario.application,
                                              p.scenario.platform);
    DispatchOptions options;
    options.abort_on_miss = false;
    const EdfDispatchScheduler scheduler(options);
    DispatchTelemetry engine_tel, legacy_tel;
    scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                       p.scenario.platform, &trace.conditions, nullptr,
                       &engine_tel);
    const SchedulerResult want = legacy::dispatch_run(
        p.scenario.application, p.assignment, p.scenario.platform, options,
        &trace.conditions, nullptr, &legacy_tel);
    const std::string context =
        "fuzz it=" + std::to_string(it) + " " +
        context_of(kind, seed, shape) + " [" + trace.summary() + "]";
    expect_same_result(want, engine, context);
    expect_same_telemetry(legacy_tel, engine_tel, context);
  }
}

/// Like prepare(), but the workload carries optional parts so shed-capable
/// recovery policies have something to drop.
Prepared prepare_imprecise(MetricKind kind, std::uint64_t seed,
                           Shape shape) {
  GeneratorConfig cfg = equivalence_generator(seed, shape);
  cfg.workload.min_optional_fraction = 0.2;
  cfg.workload.max_optional_fraction = 0.6;
  Prepared p{generate_scenario(cfg, seed), {}};
  const auto est = estimate_wcets(p.scenario.application,
                                  WcetEstimation::kAverage);
  p.assignment =
      run_slicing(p.scenario.application, est, DeadlineMetric(kind),
                  p.scenario.platform.processor_count());
  return p;
}

TEST(SchedulerEquivalence, DispatchRecoveryFuzzMatchesLegacyBitwise) {
  // Every recovery policy over randomized fault traces on imprecise
  // workloads: on_completion re-slices rewrite windows mid-run,
  // on_processor_failure revives victims onto re-pinned processors, and the
  // shed policies flip degraded-mode flags — each must surface through the
  // engine exactly as it did through the legacy rescans. The controls
  // are stateful, so each side runs its own instance; identical inputs make
  // their decision streams identical as long as the dispatch states agree.
  // Five narrow task sets per policy (it 0–19), then two of the wide shape
  // per policy (it 20–27).
  constexpr RecoveryPolicy kPolicies[] = {
      RecoveryPolicy::kRedistributeSlack, RecoveryPolicy::kMigrate,
      RecoveryPolicy::kShedOptional, RecoveryPolicy::kDegradeThenMigrate};
  std::mt19937_64 rng(0xFA57BEEFu);
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (int it = 0; it < 28; ++it) {
    const Shape shape = it < 20 ? Shape::kNarrow : Shape::kWide;
    const RecoveryPolicy policy = kPolicies[it < 20 ? it / 5 : (it - 20) / 2];
    const MetricKind kind = kAllMetrics[it % 4];
    const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(it);
    const Prepared p = prepare_imprecise(kind, seed, shape);
    const FaultTrace trace = FaultModel(fuzz_spec(rng))
                                 .instantiate(p.scenario.application,
                                              p.scenario.platform);
    const auto est = estimate_wcets(p.scenario.application,
                                    WcetEstimation::kAverage);
    DispatchOptions options;
    options.abort_on_miss = false;
    const EdfDispatchScheduler scheduler(options);
    DispatchTelemetry engine_tel, legacy_tel;
    RecoveryEngine engine_control(policy, p.scenario.application, est);
    scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                       p.scenario.platform, &trace.conditions,
                       &engine_control, &engine_tel);
    RecoveryEngine legacy_control(policy, p.scenario.application, est);
    const SchedulerResult want = legacy::dispatch_run(
        p.scenario.application, p.assignment, p.scenario.platform, options,
        &trace.conditions, &legacy_control, &legacy_tel);
    const std::string context =
        "recovery fuzz policy=" + std::string(to_string(policy)) +
        " it=" + std::to_string(it) + " " + context_of(kind, seed, shape) +
        " [" + trace.summary() + "]";
    expect_same_result(want, engine, context);
    expect_same_telemetry(legacy_tel, engine_tel, context);
    SCOPED_TRACE(context);
    EXPECT_EQ(legacy_control.stats().reslices,
              engine_control.stats().reslices);
    EXPECT_EQ(legacy_control.stats().migrations,
              engine_control.stats().migrations);
    EXPECT_EQ(legacy_control.stats().revived,
              engine_control.stats().revived);
    EXPECT_EQ(legacy_control.stats().abandoned,
              engine_control.stats().abandoned);
    EXPECT_EQ(legacy_control.stats().shed, engine_control.stats().shed);
    EXPECT_EQ(legacy_control.stats().optional_dropped,
              engine_control.stats().optional_dropped);
  }
}

/// A deterministic control that moves arrivals of released tasks on every
/// callback, so the dispatcher's arrival bookkeeping must follow rewrites
/// the recovery policies make only by chance. On each completion it delays
/// the lowest-id released task that has already arrived and pulls the
/// highest-id released task that has not arrived halfway towards now. On a
/// processor failure it revives every victim and pins it, and one other
/// released task, to the lowest-id surviving processor it is eligible on.
class ShiftingControl final : public DispatchControl {
 public:
  void on_completion(const View& view, NodeId, bool,
                     std::vector<Window>& windows) override {
    const std::size_t n = windows.size();
    for (NodeId u = 0; u < n; ++u) {
      if (released(view, u) && windows[u].arrival <= view.now) {
        windows[u].arrival = view.now + 0.5 + static_cast<double>(moves % 3);
        ++moves;
        break;
      }
    }
    for (NodeId u = static_cast<NodeId>(n); u-- > 0;) {
      if (released(view, u) && windows[u].arrival > view.now) {
        windows[u].arrival = 0.5 * (view.now + windows[u].arrival);
        ++moves;
        break;
      }
    }
  }

  std::vector<NodeId> on_processor_failure(
      const View& view, ProcessorId, const std::vector<NodeId>& victims,
      std::vector<Window>&, std::vector<ProcessorId>& pinned) override {
    for (const NodeId v : victims) {
      pinned[v] = survivor(view, v);
      ++repins;
    }
    for (NodeId u = static_cast<NodeId>(pinned.size()); u-- > 0;) {
      if (released(view, u) &&
          std::find(victims.begin(), victims.end(), u) == victims.end()) {
        pinned[u] = survivor(view, u);
        ++repins;
        break;
      }
    }
    return victims;
  }

  std::size_t moves = 0;
  std::size_t repins = 0;

 private:
  static bool released(const View& view, NodeId u) {
    if (view.started[u] || view.done[u]) {
      return false;
    }
    for (const NodeId w : view.app.graph().predecessors(u)) {
      if (!view.done[w]) {
        return false;
      }
    }
    return true;
  }

  static ProcessorId survivor(const View& view, NodeId v) {
    for (ProcessorId q = 0; q < view.platform.processor_count(); ++q) {
      if (view.down_at[q] > view.now &&
          view.app.task(v).eligible(view.platform.class_of(q))) {
        return q;
      }
    }
    return kUnpinnedProcessor;
  }
};

TEST(SchedulerEquivalence, DispatchShiftingControlMatchesLegacyBitwise) {
  // Processors 0 and 1 halt at 40% and 70% of the nominal makespan, so each
  // run takes both callback paths several times.
  SchedulerWorkspace ws;
  SchedulerResult engine;
  std::size_t moves = 0;
  std::size_t repins = 0;
  for (const Shape shape : {Shape::kNarrow, Shape::kWide}) {
    for (const MetricKind kind : kAllMetrics) {
      for (const std::uint64_t seed : kSeeds) {
        const Prepared p = prepare(kind, seed, shape);
        DispatchOptions options;
        options.abort_on_miss = false;
        const Time makespan =
            legacy::dispatch_run(p.scenario.application, p.assignment,
                                 p.scenario.platform, options)
                .schedule.makespan();
        DispatchConditions conditions;
        conditions.processor_down_at.assign(
            p.scenario.platform.processor_count(), kTimeInfinity);
        conditions.processor_down_at[0] = 0.4 * makespan;
        conditions.processor_down_at[1] = 0.7 * makespan;

        const EdfDispatchScheduler scheduler(options);
        DispatchTelemetry engine_tel, legacy_tel;
        ShiftingControl engine_control, legacy_control;
        scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                           p.scenario.platform, &conditions, &engine_control,
                           &engine_tel);
        const SchedulerResult want = legacy::dispatch_run(
            p.scenario.application, p.assignment, p.scenario.platform,
            options, &conditions, &legacy_control, &legacy_tel);
        const std::string context = "shifting control " +
                                    context_of(kind, seed, shape);
        expect_same_result(want, engine, context);
        expect_same_telemetry(legacy_tel, engine_tel, context);
        EXPECT_EQ(legacy_control.moves, engine_control.moves) << context;
        EXPECT_EQ(legacy_control.repins, engine_control.repins) << context;
        moves += engine_control.moves;
        repins += engine_control.repins;
      }
    }
  }
  EXPECT_GT(moves, 0u);
  EXPECT_GT(repins, 0u);
}

TEST(SchedulerEquivalence, DispatchPlannedWindowsMatchLegacyBitwise) {
  // Planned availability windows make the dispatcher wait for a processor
  // to come up (known_from) and refuse work that would outlive one
  // (known_until); a LinkNetwork with asymmetric links takes the
  // non-shared-bus data-ready path. Each platform runs nominally and under
  // the shifting control with processor 1 halting mid-run.
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const Shape shape : {Shape::kNarrow, Shape::kWide}) {
    for (const MetricKind kind : kAllMetrics) {
      for (const std::uint64_t seed : kSeeds) {
        const Prepared p = prepare(kind, seed, shape);
        DispatchOptions options;
        options.abort_on_miss = false;
        const Time makespan =
            legacy::dispatch_run(p.scenario.application, p.assignment,
                                 p.scenario.platform, options)
                .schedule.makespan();
        const std::size_t m = p.scenario.platform.processor_count();
        std::vector<Processor> procs = p.scenario.platform.processors();
        procs[0].available_from = 0.3 * makespan;
        procs[m - 1].available_until = 0.8 * makespan;
        std::shared_ptr<const Interconnect> network;
        if (seed == kSeeds[0]) {
          network = std::make_shared<SharedBus>(1.0);
        } else {
          auto links = std::make_shared<LinkNetwork>(m, 1.0);
          links->set_link(0, static_cast<ProcessorId>(m - 1), 3.0);
          links->set_link(static_cast<ProcessorId>(m - 1), 0, 0.25);
          network = links;
        }
        const Platform platform(p.scenario.platform.classes(),
                                std::move(procs), network);
        DispatchConditions conditions;
        conditions.processor_down_at.assign(m, kTimeInfinity);
        conditions.processor_down_at[1] = 0.5 * makespan;

        const EdfDispatchScheduler scheduler(options);
        for (const bool controlled : {false, true}) {
          DispatchTelemetry engine_tel, legacy_tel;
          ShiftingControl engine_control, legacy_control;
          scheduler.run_into(engine, ws, p.scenario.application,
                             p.assignment, platform,
                             controlled ? &conditions : nullptr,
                             controlled ? &engine_control : nullptr,
                             &engine_tel);
          const SchedulerResult want = legacy::dispatch_run(
              p.scenario.application, p.assignment, platform, options,
              controlled ? &conditions : nullptr,
              controlled ? &legacy_control : nullptr, &legacy_tel);
          const std::string context =
              std::string(controlled ? "controlled " : "nominal ") +
              "planned windows " + context_of(kind, seed, shape);
          expect_same_result(want, engine, context);
          expect_same_telemetry(legacy_tel, engine_tel, context);
        }
      }
    }
  }
}

TEST(SchedulerEquivalence, DispatchWaitsForDataJustAfterArrival) {
  // a runs only on p0 and c only on p1. c's 0.5-item message reaches p1 at
  // 10.5, 0.3 after c's slice arrival, so the next instant after the
  // arrival is c's data-ready instant, proposed by no other source.
  ApplicationBuilder b;
  const NodeId a = b.add_task("a", {10.0, kIneligibleWcet});
  const NodeId c = b.add_task("c", {kIneligibleWcet, 5.0});
  b.add_precedence(a, c, 0.5);
  b.set_input_arrival(a, 0.0);
  b.set_ete_deadline(c, 40.0);
  const Application app = b.build(2);
  const Platform platform = Platform::shared_bus(
      {ProcessorClass{"c0", 1.0}, ProcessorClass{"c1", 1.0}}, {0, 1});
  DeadlineAssignment assignment;
  assignment.windows = {Window{0.0, 10.0}, Window{10.2, 40.0}};

  DispatchOptions options;
  options.abort_on_miss = false;
  SchedulerWorkspace ws;
  SchedulerResult engine;
  DispatchTelemetry engine_tel, legacy_tel;
  EdfDispatchScheduler(options).run_into(engine, ws, app, assignment,
                                         platform, nullptr, nullptr,
                                         &engine_tel);
  const SchedulerResult want = legacy::dispatch_run(
      app, assignment, platform, options, nullptr, nullptr, &legacy_tel);
  expect_same_result(want, engine, "data just after arrival");
  expect_same_telemetry(legacy_tel, engine_tel, "data just after arrival");
  ASSERT_TRUE(engine.schedule.placed(c));
  EXPECT_EQ(engine.schedule.entry(c).start, 10.5);
}

// ---------------------------------------------------------------------------
// Allocation behaviour: the warm path must not grow a single buffer.
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, WarmPathGrowsZeroBuffers) {
  SchedulerWorkspace ws;
  SchedulerResult result;

  const auto run_all_seeds = [&] {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(MetricKind::kAdaptL, seed);
      {
        SchedulerOptions options;
        EdfListScheduler(options).run_into(result, ws, p.scenario.application,
                                           p.assignment, p.scenario.platform);
      }
      {
        SchedulerOptions options;
        options.placement = PlacementPolicy::kInsertion;
        EdfListScheduler(options).run_into(result, ws, p.scenario.application,
                                           p.assignment, p.scenario.platform);
      }
      {
        SchedulerOptions options;
        options.simulate_bus_contention = true;
        options.abort_on_miss = false;
        EdfListScheduler(options).run_into(result, ws, p.scenario.application,
                                           p.assignment, p.scenario.platform);
      }
      {
        DispatchOptions options;
        options.abort_on_miss = false;
        EdfDispatchScheduler(options).run_into(result, ws,
                                               p.scenario.application,
                                               p.assignment,
                                               p.scenario.platform);
      }
    }
  };

  run_all_seeds();  // cold: sizes every buffer for the batch's largest scenario
  run_all_seeds();  // settle: result shells and timelines reach steady state
  const std::uint64_t warm = ws.grow_events();
  run_all_seeds();
  run_all_seeds();
  EXPECT_EQ(ws.grow_events(), warm)
      << "warm scheduler runs must not grow workspace buffers";
}

}  // namespace
}  // namespace dsslice
