#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/util/check.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

TEST(WcetEstimate, StrategiesOnMultiClassTask) {
  const Task t{"t", {10.0, 20.0, 30.0}, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(estimate_wcet(t, WcetEstimation::kAverage), 20.0);
  EXPECT_DOUBLE_EQ(estimate_wcet(t, WcetEstimation::kMax), 30.0);
  EXPECT_DOUBLE_EQ(estimate_wcet(t, WcetEstimation::kMin), 10.0);
}

TEST(WcetEstimate, IgnoresIneligibleClasses) {
  const Task t{"t", {10.0, kIneligibleWcet, 30.0}, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(estimate_wcet(t, WcetEstimation::kAverage), 20.0);
  EXPECT_DOUBLE_EQ(estimate_wcet(t, WcetEstimation::kMax), 30.0);
  EXPECT_DOUBLE_EQ(estimate_wcet(t, WcetEstimation::kMin), 10.0);
}

TEST(WcetEstimate, SingleClassAllStrategiesAgree) {
  const Task t{"t", {17.0}, 0.0, 0.0};
  for (const auto s : {WcetEstimation::kAverage, WcetEstimation::kMax,
                       WcetEstimation::kMin}) {
    EXPECT_DOUBLE_EQ(estimate_wcet(t, s), 17.0);
  }
}

TEST(WcetEstimate, FullyIneligibleTaskThrows) {
  const Task t{"t", {kIneligibleWcet, kIneligibleWcet}, 0.0, 0.0};
  EXPECT_THROW(estimate_wcet(t, WcetEstimation::kAverage), ConfigError);
}

TEST(WcetEstimate, VectorVariantCoversAllTasks) {
  const Application app = testing::make_chain(3, 12.0, 100.0);
  const auto est = estimate_wcets(app, WcetEstimation::kMax);
  ASSERT_EQ(est.size(), 3u);
  for (const double c : est) {
    EXPECT_DOUBLE_EQ(c, 12.0);
  }
}

TEST(WcetEstimate, MinLeMeanLeMaxAlways) {
  const Scenario sc =
      generate_scenario_at(testing::paper_generator(5), 0);
  const auto avg = estimate_wcets(sc.application, WcetEstimation::kAverage);
  const auto mx = estimate_wcets(sc.application, WcetEstimation::kMax);
  const auto mn = estimate_wcets(sc.application, WcetEstimation::kMin);
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_LE(mn[i], avg[i] + 1e-12);
    EXPECT_LE(avg[i], mx[i] + 1e-12);
  }
}

/// The estimate as Task::eligible / Task::wcet define it, class by class.
double reference_estimate(const Task& task, WcetEstimation strategy) {
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t count = 0;
  for (ProcessorClassId e = 0; e < task.wcet_by_class.size(); ++e) {
    if (task.eligible(e)) {
      const double c = task.wcet(e);
      sum += c;
      lo = std::min(lo, c);
      hi = std::max(hi, c);
      ++count;
    }
  }
  switch (strategy) {
    case WcetEstimation::kAverage:
      return sum / static_cast<double>(count);
    case WcetEstimation::kMax:
      return hi;
    case WcetEstimation::kMin:
      return lo;
  }
  return 0.0;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// estimate_wcets_into stages c̄ for both the batch kernel and its scalar
/// reference, so the kernel tests cannot see it drift. Pin it bit for bit
/// against the per-task estimate and the class-by-class definition, on
/// ineligible classes in every position and on generated scenarios.
TEST(WcetEstimate, VectorIntoMatchesPerTaskBitForBit) {
  ApplicationBuilder b;
  b.add_task("first_out", {kIneligibleWcet, 7.5, 2.25});
  b.add_task("middle_out", {10.0, kIneligibleWcet, 30.0});
  b.add_task("last_out", {1.0 / 3.0, 0.1, kIneligibleWcet});
  b.add_task("one_left", {kIneligibleWcet, kIneligibleWcet, 0.7});
  b.add_task("all_in", {0.1, 0.2, 0.3});
  b.add_task("zero_cost", {0.0, kIneligibleWcet, 4.0});
  std::vector<Application> apps{b.build(3)};
  for (std::uint64_t k = 0; k < 4; ++k) {
    apps.push_back(
        generate_scenario_at(testing::paper_generator(11), k).application);
  }
  for (const WcetEstimation strategy :
       {WcetEstimation::kAverage, WcetEstimation::kMax, WcetEstimation::kMin}) {
    for (const Application& app : apps) {
      std::vector<double> out(app.task_count() + 3, -1.0);
      estimate_wcets_into(app, strategy, out);
      ASSERT_EQ(out.size(), app.task_count());
      for (NodeId i = 0; i < app.task_count(); ++i) {
        SCOPED_TRACE(to_string(strategy) + " task " + app.task(i).name);
        EXPECT_EQ(bits(out[i]), bits(estimate_wcet(app.task(i), strategy)));
        EXPECT_EQ(bits(out[i]),
                  bits(reference_estimate(app.task(i), strategy)));
      }
    }
  }
}

TEST(WcetEstimate, VectorIntoThrowsOnTaskWithoutEligibleClass) {
  ApplicationBuilder b;
  b.add_task("ok", {3.0, 4.0});
  b.add_task("stranded", {kIneligibleWcet, kIneligibleWcet});
  const Application app = b.build(2);
  std::vector<double> out;
  for (const WcetEstimation strategy :
       {WcetEstimation::kAverage, WcetEstimation::kMax, WcetEstimation::kMin}) {
    EXPECT_THROW(estimate_wcets_into(app, strategy, out), ConfigError);
  }
}

TEST(WcetEstimate, Names) {
  EXPECT_EQ(to_string(WcetEstimation::kAverage), "WCET-AVG");
  EXPECT_EQ(to_string(WcetEstimation::kMax), "WCET-MAX");
  EXPECT_EQ(to_string(WcetEstimation::kMin), "WCET-MIN");
}

}  // namespace
}  // namespace dsslice
