#include "dsslice/baselines/bettati_liu.hpp"

#include <algorithm>

#include "dsslice/baselines/kao_garcia_molina.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

DeadlineAssignment distribute_bettati_liu(const Application& app,
                                          std::span<const double> est_wcet) {
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  DSSLICE_REQUIRE(est_wcet.size() == n, "estimate vector size mismatch");

  // Common origin: the earliest input arrival.
  Time origin = kTimeInfinity;
  for (const NodeId in : g.input_nodes()) {
    origin = std::min(origin, app.input_arrival(in));
  }
  DSSLICE_REQUIRE(origin < kTimeInfinity, "application has no input task");

  const std::vector<Time> governing = governing_deadlines(app);

  const auto levels = node_levels(g);
  const double depth = static_cast<double>(graph_depth(g));
  DSSLICE_CHECK(depth >= 1.0, "non-empty graph has depth >= 1");

  DeadlineAssignment assignment;
  assignment.windows.resize(n);
  assignment.pass_of.assign(n, -1);
  for (NodeId v = 0; v < n; ++v) {
    const double budget = governing[v] - origin;
    const double lo = static_cast<double>(levels[v]) / depth;
    const double hi = static_cast<double>(levels[v] + 1) / depth;
    assignment.windows[v] =
        Window{origin + lo * budget, origin + hi * budget};
  }
  return assignment;
}

}  // namespace dsslice
