#include "dsslice/robust/recovery.hpp"

#include <algorithm>
#include <cmath>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

std::string to_string(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kNone:
      return "none";
    case RecoveryPolicy::kRedistributeSlack:
      return "redistribute-slack";
    case RecoveryPolicy::kMigrate:
      return "migrate";
    case RecoveryPolicy::kShedOptional:
      return "shed-optional";
    case RecoveryPolicy::kDegradeThenMigrate:
      return "degrade-then-migrate";
  }
  return "unknown";
}

std::vector<Window> redistribute_slack(const Application& app,
                                       std::span<const double> est_wcet,
                                       const DispatchControl::View& view,
                                       const std::vector<Window>& windows) {
  const std::size_t n = app.task_count();
  DSSLICE_REQUIRE(est_wcet.size() == n && windows.size() == n,
                  "redistribute_slack size mismatch");
  // The re-slice path runs once per deadline miss / processor failure, so it
  // leans on the application's memoized analysis instead of recomputing the
  // topological order on every invocation.
  const TaskGraph& g = app.graph();
  const GraphAnalysis& analysis = app.analysis();
  const std::span<const NodeId> order = analysis.topological_order();

  std::vector<Window> out = windows;

  // Forward pass: estimated finish of every task given the actual state of
  // the run. Started work finishes at its known (non-preemptive) finish
  // time; unstarted work is assumed to start as early as its predecessors
  // allow, never before `now`, and to run for its estimated WCET.
  std::vector<Time> est_finish(n, kTimeZero);
  std::vector<Time> est_start(n, view.now);
  for (const NodeId v : order) {
    if (view.started[v] || view.done[v]) {
      est_finish[v] = view.finish[v];
      continue;
    }
    Time s = view.now;
    for (const NodeId u : g.predecessors(v)) {
      s = std::max(s, est_finish[u]);
    }
    est_start[v] = s;
    est_finish[v] = s + est_wcet[v];
  }

  // Backward pass: latest finish that still leaves every downstream task
  // its estimated WCET inside the residual E-T-E budget.
  std::vector<Time> lft(n, kTimeInfinity);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    Time l = app.has_ete_deadline(v) ? app.ete_deadline(v) : kTimeInfinity;
    for (const NodeId s : g.successors(v)) {
      l = std::min(l, lft[s] - est_wcet[s]);
    }
    lft[v] = l;
  }

  for (const NodeId v : order) {
    if (view.started[v] || view.done[v]) {
      continue;  // running/finished work keeps its window
    }
    out[v] = Window{est_start[v], lft[v]};
  }
  return out;
}

std::optional<ProcessorId> choose_migration_target(
    const Task& task, const Platform& platform,
    std::span<const Time> busy_until, std::span<const Time> down_at,
    Time now) {
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(busy_until.size() == m && down_at.size() == m,
                  "choose_migration_target size mismatch");
  std::optional<ProcessorId> best;
  Time best_load = kTimeInfinity;
  double best_wcet = kTimeInfinity;
  for (ProcessorId p = 0; p < m; ++p) {
    if (down_at[p] <= now + kTimeTolerance) {
      continue;  // already halted (or halting right now)
    }
    const ProcessorClassId e = platform.class_of(p);
    if (!task.eligible(e)) {
      continue;
    }
    const Time load = std::max(busy_until[p], now);
    const double c = task.wcet(e);
    const bool wins = !best.has_value() || load < best_load - kTimeTolerance ||
                      (load <= best_load + kTimeTolerance &&
                       (c < best_wcet - kTimeTolerance ||
                        (c <= best_wcet + kTimeTolerance && p < *best)));
    if (wins) {
      best = p;
      best_load = load;
      best_wcet = c;
    }
  }
  return best;
}

void RecoveryStats::merge(const RecoveryStats& other) {
  reslices += other.reslices;
  migrations += other.migrations;
  revived += other.revived;
  abandoned += other.abandoned;
  shed += other.shed;
  optional_dropped += other.optional_dropped;
}

RecoveryEngine::RecoveryEngine(RecoveryPolicy policy, const Application& app,
                               std::vector<double> est_wcet)
    : policy_(policy), app_(app), est_wcet_(std::move(est_wcet)),
      live_est_(est_wcet_) {
  DSSLICE_REQUIRE(est_wcet_.size() == app_.task_count(),
                  "estimate vector size mismatch");
}

void RecoveryEngine::shed_optionals(const View& view) {
  if (view.shed.empty()) {
    return;  // host provides no degraded-mode channel (legacy dispatch)
  }
  std::size_t count = 0;
  double dropped = 0.0;
  for (NodeId v = 0; v < app_.task_count(); ++v) {
    if (view.started[v] || view.done[v] || view.shed[v]) {
      continue;  // running / finished work keeps its optional part
    }
    const double f = app_.task(v).optional_fraction;
    if (f <= 0.0) {
      continue;
    }
    view.shed[v] = 1;
    live_est_[v] = est_wcet_[v] * (1.0 - f);
    dropped += est_wcet_[v] * f;
    ++count;
  }
  if (count > 0) {
    stats_.shed += count;
    stats_.optional_dropped += dropped;
    DSSLICE_COUNT("recovery.shed_tasks", count);
    DSSLICE_COUNT("recovery.optional_dropped", dropped);
  }
}

void RecoveryEngine::reslice(const View& view, std::vector<Window>& windows) {
  DSSLICE_SPAN("recovery.reslice");
  windows = redistribute_slack(app_, live_est_, view, windows);
  ++stats_.reslices;
  DSSLICE_COUNT("recovery.reslices", 1);
}

bool RecoveryEngine::migrate(const View& view, NodeId v,
                             std::vector<ProcessorId>& pinned) {
  const auto target = choose_migration_target(
      app_.task(v), view.platform, view.busy_until, view.down_at, view.now);
  if (!target.has_value()) {
    return false;
  }
  pinned[v] = *target;
  ++stats_.migrations;
  DSSLICE_COUNT("recovery.migrations", 1);
  return true;
}

void RecoveryEngine::rehome_stranded(const View& view, ProcessorId p,
                                     std::vector<ProcessorId>& pinned) {
  for (NodeId v = 0; v < app_.task_count(); ++v) {
    if (view.started[v] || view.done[v] || pinned[v] != p) {
      continue;
    }
    if (!migrate(view, v, pinned)) {
      pinned[v] = kUnpinnedProcessor;
    }
  }
}

void RecoveryEngine::migrate_or_abandon(const View& view, NodeId v,
                                        std::vector<ProcessorId>& pinned,
                                        std::vector<NodeId>& revived) {
  if (!migrate(view, v, pinned)) {
    ++stats_.abandoned;
    return;
  }
  ++stats_.revived;
  DSSLICE_COUNT("recovery.revived", 1);
  revived.push_back(v);
}

void RecoveryEngine::on_completion(const View& view, NodeId, bool missed,
                                   std::vector<Window>& windows) {
  if (!missed) {
    return;
  }
  switch (policy_) {
    case RecoveryPolicy::kNone:
    case RecoveryPolicy::kMigrate:
      return;
    case RecoveryPolicy::kShedOptional:
    case RecoveryPolicy::kDegradeThenMigrate:
      shed_optionals(view);
      break;  // fall through to the residual-budget re-slice
    case RecoveryPolicy::kRedistributeSlack:
      break;
  }
  reslice(view, windows);
}

std::vector<NodeId> RecoveryEngine::on_processor_failure(
    const View& view, ProcessorId p, const std::vector<NodeId>& victims,
    std::vector<Window>& windows, std::vector<ProcessorId>& pinned) {
  switch (policy_) {
    case RecoveryPolicy::kNone:
      stats_.abandoned += victims.size();
      return {};

    case RecoveryPolicy::kRedistributeSlack:
    case RecoveryPolicy::kShedOptional: {
      // Revive the victims (they are unstarted again in `view`) and re-run
      // the residual-budget distribution over the surviving suffix.
      // kShedOptional first reclaims the optional parts of unstarted tasks,
      // so the re-slice plans against the reduced (mandatory) demand.
      if (policy_ == RecoveryPolicy::kShedOptional) {
        shed_optionals(view);
      }
      reslice(view, windows);
      stats_.revived += victims.size();
      DSSLICE_COUNT("recovery.revived", victims.size());
      return victims;
    }

    case RecoveryPolicy::kMigrate: {
      // Unstarted tasks previously pinned to the dead processor must find a
      // new home too (cascading failures).
      rehome_stranded(view, p, pinned);
      std::vector<NodeId> revived;
      for (const NodeId v : victims) {
        migrate_or_abandon(view, v, pinned, revived);
      }
      return revived;
    }

    case RecoveryPolicy::kDegradeThenMigrate: {
      // Degrade first: reclaim the optional parts, then give the surviving
      // suffix the residual budget. Only when a victim's re-sliced window
      // still cannot fit its (now mandatory-only) demand does the policy
      // escalate to migration, pinning the task to the least-loaded
      // surviving processor of an eligible class.
      shed_optionals(view);
      reslice(view, windows);
      rehome_stranded(view, p, pinned);
      std::vector<NodeId> revived;
      for (const NodeId v : victims) {
        if (windows[v].fits(live_est_[v])) {
          // Shedding reclaimed enough slack: re-release the victim with no
          // placement restriction.
          pinned[v] = kUnpinnedProcessor;
          ++stats_.revived;
          DSSLICE_COUNT("recovery.revived", 1);
          revived.push_back(v);
          continue;
        }
        migrate_or_abandon(view, v, pinned, revived);
      }
      return revived;
    }
  }
  return {};
}

}  // namespace dsslice
