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
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t count = 0;
  for (ProcessorClassId e = 0;
       e < static_cast<ProcessorClassId>(task.wcet_by_class.size()); ++e) {
    if (!task.eligible(e)) {
      continue;
    }
    const double c = task.wcet(e);
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
  out.resize(app.task_count());
  for (NodeId i = 0; i < app.task_count(); ++i) {
    out[i] = estimate_wcet(app.task(i), strategy);
  }
}

std::vector<double> mandatory_estimates(const Application& app,
                                        std::span<const double> est_wcet) {
  std::vector<double> out;
  mandatory_estimates_into(app, est_wcet, out);
  return out;
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
