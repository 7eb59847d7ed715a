#include "dsslice/baselines/kao_garcia_molina.hpp"

#include <algorithm>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

std::string to_string(KaoStrategy strategy) {
  switch (strategy) {
    case KaoStrategy::kUltimateDeadline:
      return "UD";
    case KaoStrategy::kEffectiveDeadline:
      return "ED";
    case KaoStrategy::kEqualSlack:
      return "EQS";
    case KaoStrategy::kEqualFlexibility:
      return "EQF";
  }
  return "unknown";
}

std::vector<Time> governing_deadlines(const Application& app) {
  const TaskGraph& g = app.graph();
  const std::span<const NodeId> topo = app.analysis().topological_order();
  std::vector<Time> governing(g.node_count(), kTimeInfinity);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    if (g.is_output(v)) {
      DSSLICE_REQUIRE(app.has_ete_deadline(v),
                      "output task without an E-T-E deadline");
      governing[v] = app.ete_deadline(v);
      continue;
    }
    for (const NodeId w : g.successors(v)) {
      governing[v] = std::min(governing[v], governing[w]);
    }
  }
  return governing;
}

DeadlineAssignment distribute_kao(const Application& app,
                                  std::span<const double> est_wcet,
                                  KaoStrategy strategy) {
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  DSSLICE_REQUIRE(est_wcet.size() == n, "estimate vector size mismatch");
  const GraphAnalysis& analysis = app.analysis();
  const std::span<const NodeId> topo = analysis.topological_order();

  // Forward pass: communication-free earliest start EST_i.
  std::vector<Time> est(n, kTimeZero);
  for (const NodeId v : topo) {
    Time bound = g.is_input(v) ? app.input_arrival(v) : kTimeZero;
    for (const NodeId u : g.predecessors(v)) {
      bound = std::max(bound, est[u] + est_wcet[u]);
    }
    est[v] = bound;
  }

  // Backward passes: governing E-T-E deadline, then static level SL_i and
  // hop count of the chain realizing SL_i.
  const std::vector<Time> governing = governing_deadlines(app);
  std::vector<double> level(n, 0.0);
  std::vector<std::size_t> hops(n, 1);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    if (g.is_output(v)) {
      level[v] = est_wcet[v];
      hops[v] = 1;
      continue;
    }
    double best_level = 0.0;
    std::size_t best_hops = 0;
    for (const NodeId w : g.successors(v)) {
      if (level[w] > best_level) {
        best_level = level[w];
        best_hops = hops[w];
      }
    }
    level[v] = est_wcet[v] + best_level;
    hops[v] = 1 + best_hops;
  }

  DeadlineAssignment assignment;
  assignment.windows.resize(n);
  assignment.pass_of.assign(n, -1);
  for (NodeId v = 0; v < n; ++v) {
    const double c = est_wcet[v];
    const Time d_ete = governing[v];
    Time deadline = d_ete;
    switch (strategy) {
      case KaoStrategy::kUltimateDeadline:
        deadline = d_ete;
        break;
      case KaoStrategy::kEffectiveDeadline:
        deadline = d_ete - (level[v] - c);
        break;
      case KaoStrategy::kEqualSlack: {
        const double slack = d_ete - est[v] - level[v];
        deadline = est[v] + c + slack / static_cast<double>(hops[v]);
        break;
      }
      case KaoStrategy::kEqualFlexibility: {
        const double slack = d_ete - est[v] - level[v];
        const double share = level[v] > 0.0 ? c / level[v] : 1.0;
        deadline = est[v] + c + slack * share;
        break;
      }
    }
    assignment.windows[v] = Window{est[v], deadline};
  }
  return assignment;
}

}  // namespace dsslice
