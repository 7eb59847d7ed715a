#include "dsslice/sched/planning_cycle.hpp"

#include <cmath>

#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

long long integral_period(const Task& t) {
  const double T = t.period;
  DSSLICE_REQUIRE(T > 0.0 && std::round(T) == T,
                  "task " + t.name + " needs a positive integral period");
  return static_cast<long long>(T);
}

}  // namespace

PlanningCycle compute_planning_cycle(const Application& app) {
  PlanningCycle cycle;
  long long lcm = 0;
  for (NodeId i = 0; i < app.task_count(); ++i) {
    const Task& t = app.task(i);
    if (!t.is_periodic()) {
      continue;
    }
    const long long T = integral_period(t);
    lcm = (lcm == 0) ? T : time_lcm(lcm, T);
  }
  cycle.hyperperiod = static_cast<Time>(lcm);
  for (const NodeId in : app.graph().input_nodes()) {
    cycle.max_arrival = std::max(cycle.max_arrival, app.input_arrival(in));
  }
  if (lcm == 0) {
    cycle.length = 0.0;
    return cycle;
  }
  // Identical arrivals: [0, L). Staggered arrivals: [0, a + 2L) (§3.3).
  cycle.length = cycle.max_arrival == 0.0
                     ? cycle.hyperperiod
                     : cycle.max_arrival + 2.0 * cycle.hyperperiod;
  return cycle;
}

ExpandedApplication expand_planning_cycle(const Application& app) {
  const TaskGraph& g = app.graph();
  const PlanningCycle cycle = compute_planning_cycle(app);
  DSSLICE_REQUIRE(cycle.hyperperiod > 0.0,
                  "expansion requires at least one periodic task");

  // Invocation-wise precedence needs equal periods along every arc.
  for (const Arc& a : g.arcs()) {
    DSSLICE_REQUIRE(app.task(a.from).period == app.task(a.to).period,
                    "arc between tasks of different periods: " +
                        app.task(a.from).name + " -> " + app.task(a.to).name);
  }

  // Number of invocations of each task within the cycle.
  std::vector<std::size_t> invocations(app.task_count(), 1);
  for (NodeId i = 0; i < app.task_count(); ++i) {
    const Task& t = app.task(i);
    if (t.is_periodic()) {
      invocations[i] = static_cast<std::size_t>(
          static_cast<long long>(cycle.hyperperiod) / integral_period(t));
    }
  }

  // Expanded node ids: first[i] .. first[i] + invocations[i] − 1.
  std::vector<NodeId> first(app.task_count());
  std::size_t total = 0;
  for (NodeId i = 0; i < app.task_count(); ++i) {
    first[i] = static_cast<NodeId>(total);
    total += invocations[i];
  }

  std::vector<Task> expanded_tasks(total);
  std::vector<ExpandedTask> origin(total);
  for (NodeId i = 0; i < app.task_count(); ++i) {
    const Task& t = app.task(i);
    for (std::size_t k = 0; k < invocations[i]; ++k) {
      const NodeId e = first[i] + static_cast<NodeId>(k);
      Task copy = t;
      copy.name = t.name + "#" + std::to_string(k + 1);
      copy.phasing = t.phasing + t.period * static_cast<Time>(k);
      copy.period = 0.0;  // each invocation is single-shot
      expanded_tasks[e] = std::move(copy);
      origin[e] = ExpandedTask{i, k};
    }
  }
  std::vector<Arc> expanded_arcs;
  for (const Arc& a : g.arcs()) {
    DSSLICE_CHECK(invocations[a.from] == invocations[a.to],
                  "equal periods imply equal invocation counts");
    for (std::size_t k = 0; k < invocations[a.from]; ++k) {
      expanded_arcs.push_back(Arc{first[a.from] + static_cast<NodeId>(k),
                                  first[a.to] + static_cast<NodeId>(k),
                                  a.message_items});
    }
  }
  TaskGraph expanded_graph(total, std::move(expanded_arcs));

  Application expanded(std::move(expanded_graph), std::move(expanded_tasks));
  for (const NodeId in : g.input_nodes()) {
    for (std::size_t k = 0; k < invocations[in]; ++k) {
      const NodeId e = first[in] + static_cast<NodeId>(k);
      expanded.set_input_arrival(e, expanded.task(e).phasing);
    }
  }
  for (const NodeId out : g.output_nodes()) {
    if (!app.has_ete_deadline(out)) {
      continue;
    }
    const Task& t = app.task(out);
    const Time relative = app.ete_deadline(out);
    if (t.is_periodic()) {
      DSSLICE_REQUIRE(relative - t.phasing <= t.period ||
                          !t.is_periodic(),
                      "task " + t.name + " violates d <= T");
    }
    for (std::size_t k = 0; k < invocations[out]; ++k) {
      const NodeId e = first[out] + static_cast<NodeId>(k);
      expanded.set_ete_deadline(e,
                                relative + t.period * static_cast<Time>(k));
    }
  }
  return ExpandedApplication{std::move(expanded), std::move(origin), cycle};
}

}  // namespace dsslice
