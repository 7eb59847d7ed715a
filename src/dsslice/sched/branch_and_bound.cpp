#include "dsslice/sched/branch_and_bound.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

std::string to_string(BnbStatus status) {
  switch (status) {
    case BnbStatus::kFeasible:
      return "feasible";
    case BnbStatus::kInfeasible:
      return "infeasible";
    case BnbStatus::kNodeLimit:
      return "node-limit";
  }
  return "unknown";
}

namespace {

struct SearchState {
  const Application& app;
  const DeadlineAssignment& assignment;
  const Platform& platform;
  const BnbOptions& options;
  const TaskGraph& g;
  const GraphAnalysis& ga;
  SchedulerWorkspace& ws;

  std::size_t remaining = 0;
  std::size_t nodes = 0;
  std::size_t depth = 0;
  bool node_limit_hit = false;

  SearchState(const Application& a, const DeadlineAssignment& da,
              const Platform& p, const BnbOptions& o, SchedulerWorkspace& w)
      : app(a),
        assignment(da),
        platform(p),
        options(o),
        g(a.graph()),
        ga(a.analysis()),
        ws(w),
        remaining(a.task_count()) {
    const std::size_t n = a.task_count();
    // min_wcet: fastest eligible class per task. estimate_wcets returns a
    // fresh vector; copy into the workspace buffer so repeated searches
    // reuse its capacity (one transient allocation per search, outside the
    // descent).
    const std::vector<double> est = estimate_wcets(a, WcetEstimation::kMin);
    ws.size(ws.min_wcet, n);
    std::copy(est.begin(), est.end(), ws.min_wcet.begin());
    ws.size(ws.preds_left, n);
    ws.fill(ws.bnb_scheduled, n, char{0});
    ws.fill(ws.bnb_finish, n, kTimeZero);
    ws.fill(ws.bnb_placed_on, n, ProcessorId{0});
    ws.fill(ws.bnb_avail, p.processor_count(), kTimeZero);
    ws.size(ws.lb_finish, n);
    // Per-depth buffer pools, sized up front: the descent never exceeds one
    // frame per task, and growing the pool mid-recursion would invalidate
    // the parent frames' references into it.
    ws.size(ws.bnb_ready_pool, n + 1);
    ws.size(ws.bnb_option_pool, n + 1);
    for (NodeId v = 0; v < n; ++v) {
      ws.preds_left[v] = g.predecessors(v).size();
    }
  }

  /// Optimistic feasibility bound: every unscheduled task must still be
  /// able to finish by its deadline ignoring processor contention, using
  /// its fastest class and the actual finish times of scheduled
  /// predecessors (with zero message cost — a valid lower bound).
  bool bound_ok() {
    for (const NodeId v : ga.topological_order()) {
      if (ws.bnb_scheduled[v]) {
        ws.lb_finish[v] = ws.bnb_finish[v];
        continue;
      }
      Time start = assignment.windows[v].arrival;
      for (const NodeId u : g.predecessors(v)) {
        start = std::max(start, ws.lb_finish[u]);
      }
      ws.lb_finish[v] = start + ws.min_wcet[v];
      if (ws.lb_finish[v] > assignment.windows[v].deadline + kTimeTolerance) {
        return false;
      }
    }
    return true;
  }

  bool dfs(BnbResult& result) {
    if (node_limit_hit) {
      return false;
    }
    if (++nodes > options.max_nodes) {
      node_limit_hit = true;
      return false;
    }
    if (remaining == 0) {
      // Commit the found schedule.
      for (NodeId v = 0; v < app.task_count(); ++v) {
        result.schedule.place(v, ws.bnb_placed_on[v],
                              ws.bnb_finish[v] - actual_wcet(v),
                              ws.bnb_finish[v]);
      }
      return true;
    }
    if (!bound_ok()) {
      return false;
    }

    // Per-depth buffer pools: each recursion level owns one ready list and
    // one option list, so the whole descent reuses at most `n` vectors for
    // the life of the workspace instead of allocating two per node.
    std::vector<NodeId>& ready = ws.bnb_ready_pool[depth];
    std::vector<BnbOption>& options_list = ws.bnb_option_pool[depth];

    // Ready tasks in EDF order (good first descent).
    ready.clear();
    for (NodeId v = 0; v < app.task_count(); ++v) {
      if (!ws.bnb_scheduled[v] && ws.preds_left[v] == 0) {
        ready.push_back(v);
      }
    }
    std::sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
      const Time da = assignment.windows[a].deadline;
      const Time db = assignment.windows[b].deadline;
      return da != db ? da < db : a < b;
    });

    for (const NodeId v : ready) {
      const Task& task = app.task(v);
      const auto preds = g.predecessors(v);
      const auto pitems = g.predecessor_items(v);
      // Distinct processor options: collapse symmetric processors.
      options_list.clear();
      for (ProcessorId p = 0; p < platform.processor_count(); ++p) {
        const ProcessorClassId e = platform.class_of(p);
        if (!task.eligible(e)) {
          continue;
        }
        Time bound = std::max(assignment.windows[v].arrival, ws.bnb_avail[p]);
        for (std::size_t k = 0; k < preds.size(); ++k) {
          bound = std::max(
              bound, ws.bnb_finish[preds[k]] +
                         platform.comm_delay(ws.bnb_placed_on[preds[k]], p,
                                             pitems[k]));
        }
        const Time end = bound + task.wcet(e);
        if (end > assignment.windows[v].deadline + kTimeTolerance) {
          continue;  // this placement misses — prune the branch
        }
        // Symmetry: identical (start, finish) options are interchangeable.
        const bool duplicate = std::any_of(
            options_list.begin(), options_list.end(), [&](const BnbOption& o) {
              return o.start == bound && o.finishing == end;
            });
        if (!duplicate) {
          options_list.push_back(BnbOption{p, bound, end});
        }
      }
      std::sort(options_list.begin(), options_list.end(),
                [](const BnbOption& a, const BnbOption& b) {
                  return a.finishing != b.finishing
                             ? a.finishing < b.finishing
                             : a.proc < b.proc;
                });
      for (const BnbOption& o : options_list) {
        // Apply.
        ws.bnb_scheduled[v] = 1;
        ws.bnb_finish[v] = o.finishing;
        ws.bnb_placed_on[v] = o.proc;
        const Time saved_avail = ws.bnb_avail[o.proc];
        ws.bnb_avail[o.proc] = o.finishing;
        for (const NodeId s : g.successors(v)) {
          --ws.preds_left[s];
        }
        --remaining;

        ++depth;
        const bool found = dfs(result);
        --depth;
        if (found) {
          return true;
        }

        // Undo.
        ws.bnb_scheduled[v] = 0;
        ws.bnb_avail[o.proc] = saved_avail;
        for (const NodeId s : g.successors(v)) {
          ++ws.preds_left[s];
        }
        ++remaining;
        if (node_limit_hit) {
          return false;
        }
      }
    }
    return false;
  }

  double actual_wcet(NodeId v) const {
    return app.task(v).wcet(platform.class_of(ws.bnb_placed_on[v]));
  }
};

}  // namespace

BnbResult branch_and_bound_schedule(const Application& app,
                                    const DeadlineAssignment& assignment,
                                    const Platform& platform,
                                    const BnbOptions& options,
                                    SchedulerWorkspace* ws) {
  DSSLICE_REQUIRE(assignment.windows.size() == app.task_count(),
                  "assignment size mismatch");
  DSSLICE_REQUIRE(options.max_nodes >= 1, "need a positive node budget");

  DSSLICE_SPAN("sched.bnb.run");
  BnbResult result(app.task_count(), platform.processor_count());
  SchedulerWorkspace local_ws;
  SearchState state(app, assignment, platform, options,
                    ws != nullptr ? *ws : local_ws);

  const bool found = state.dfs(result);
  result.nodes_explored = state.nodes;
  DSSLICE_COUNT("sched.bnb.runs", 1);
  DSSLICE_COUNT("sched.bnb.nodes", state.nodes);
  if (found) {
    result.status = BnbStatus::kFeasible;
  } else if (state.node_limit_hit) {
    result.status = BnbStatus::kNodeLimit;
  } else {
    result.status = BnbStatus::kInfeasible;
  }
  return result;
}

}  // namespace dsslice
