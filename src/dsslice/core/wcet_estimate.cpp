#include "dsslice/core/wcet_estimate.hpp"

#include <algorithm>
#include <limits>

#include "dsslice/util/check.hpp"

namespace dsslice {

std::string to_string(WcetEstimation strategy) {
  switch (strategy) {
    case WcetEstimation::kAverage:
      return "WCET-AVG";
    case WcetEstimation::kMax:
      return "WCET-MAX";
    case WcetEstimation::kMin:
      return "WCET-MIN";
  }
  return "unknown";
}

double estimate_wcet(const Task& task, WcetEstimation strategy) {
  // Reads the class table directly: a class is eligible exactly when its
  // entry is >= 0 (Task::eligible), and then the entry is its WCET.
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t count = 0;
  for (const double c : task.wcet_by_class) {
    if (!(c >= 0.0)) {
      continue;
    }
    sum += c;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
    ++count;
  }
  DSSLICE_REQUIRE(count > 0,
                  "task " + task.name + " has no eligible class");
  switch (strategy) {
    case WcetEstimation::kAverage:
      return sum / static_cast<double>(count);
    case WcetEstimation::kMax:
      return hi;
    case WcetEstimation::kMin:
      return lo;
  }
  DSSLICE_CHECK(false, "unhandled WCET estimation strategy");
  return 0.0;
}

std::vector<double> estimate_wcets(const Application& app,
                                   WcetEstimation strategy) {
  std::vector<double> out;
  estimate_wcets_into(app, strategy, out);
  return out;
}

void estimate_wcets_into(const Application& app, WcetEstimation strategy,
                         std::vector<double>& out) {
  const std::vector<Task>& tasks = app.tasks();
  out.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out[i] = estimate_wcet(tasks[i], strategy);
  }
}

void mandatory_estimates_into(const Application& app,
                              std::span<const double> est_wcet,
                              std::vector<double>& out) {
  DSSLICE_REQUIRE(est_wcet.size() == app.task_count(),
                  "estimate vector size mismatch");
  out.resize(est_wcet.size());
  for (NodeId i = 0; i < app.task_count(); ++i) {
    const double f = app.task(i).optional_fraction;
    out[i] = f == 0.0 ? est_wcet[i] : est_wcet[i] * (1.0 - f);
  }
}

}  // namespace dsslice
