// Closed-form tests of the four critical-path metrics (Eqs. 2–8).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "dsslice/core/metrics.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "dsslice/util/check.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

// DeadlineMetric::slices_into into a fresh vector.
std::vector<double> slices(const DeadlineMetric& metric, Time window,
                           std::span<const double> path_weights) {
  std::vector<double> d;
  metric.slices_into(window, path_weights, d);
  return d;
}

// DeadlineMetric::adaptive_slices_into into a fresh vector.
std::vector<double> adaptive_slices(const DeadlineMetric& metric, Time window,
                                    std::span<const double> path_weights,
                                    std::span<const double> path_est) {
  std::vector<double> d;
  metric.adaptive_slices_into(window, path_weights, path_est, d);
  return d;
}

TEST(Metrics, NamesAndRegistry) {
  EXPECT_EQ(to_string(MetricKind::kPure), "PURE");
  EXPECT_EQ(to_string(MetricKind::kNorm), "NORM");
  EXPECT_EQ(to_string(MetricKind::kAdaptG), "ADAPT-G");
  EXPECT_EQ(to_string(MetricKind::kAdaptL), "ADAPT-L");
  EXPECT_EQ(all_metric_kinds().size(), 4u);
  EXPECT_TRUE(DeadlineMetric(MetricKind::kAdaptG).is_adaptive());
  EXPECT_TRUE(DeadlineMetric(MetricKind::kAdaptL).is_adaptive());
  EXPECT_FALSE(DeadlineMetric(MetricKind::kPure).is_adaptive());
  EXPECT_FALSE(DeadlineMetric(MetricKind::kNorm).is_adaptive());
}

TEST(Metrics, PathValueClosedForms) {
  const DeadlineMetric pure(MetricKind::kPure);
  const DeadlineMetric norm(MetricKind::kNorm);
  // Window 100, Σc = 60, n = 4.
  EXPECT_DOUBLE_EQ(pure.path_value(100.0, 60.0, 4), 10.0);   // (100-60)/4
  EXPECT_DOUBLE_EQ(norm.path_value(100.0, 60.0, 4), 40.0 / 60.0);
  // Negative laxity propagates sign.
  EXPECT_DOUBLE_EQ(pure.path_value(40.0, 60.0, 4), -5.0);
  EXPECT_DOUBLE_EQ(norm.path_value(40.0, 60.0, 4), -20.0 / 60.0);
}

TEST(Metrics, PathValueDegenerateInputs) {
  const DeadlineMetric pure(MetricKind::kPure);
  const DeadlineMetric norm(MetricKind::kNorm);
  EXPECT_TRUE(std::isinf(pure.path_value(10.0, 5.0, 0)));
  EXPECT_TRUE(std::isinf(norm.path_value(10.0, 0.0, 3)));
  EXPECT_GT(norm.path_value(10.0, 0.0, 3), 0.0);
  EXPECT_LT(norm.path_value(-1.0, 0.0, 3), 0.0);
}

TEST(Metrics, PureSlicesEqualShare) {
  const DeadlineMetric pure(MetricKind::kPure);
  const std::vector<double> c{10.0, 20.0, 30.0};
  const auto d = slices(pure, 90.0, c);
  // R = (90-60)/3 = 10 → d = c + 10.
  EXPECT_DOUBLE_EQ(d[0], 20.0);
  EXPECT_DOUBLE_EQ(d[1], 30.0);
  EXPECT_DOUBLE_EQ(d[2], 40.0);
  EXPECT_DOUBLE_EQ(std::accumulate(d.begin(), d.end(), 0.0), 90.0);
}

TEST(Metrics, NormSlicesProportional) {
  const DeadlineMetric norm(MetricKind::kNorm);
  const std::vector<double> c{10.0, 20.0, 30.0};
  const auto d = slices(norm, 90.0, c);
  // d_i = c_i (1 + R), R = 30/60 = 0.5.
  EXPECT_DOUBLE_EQ(d[0], 15.0);
  EXPECT_DOUBLE_EQ(d[1], 30.0);
  EXPECT_DOUBLE_EQ(d[2], 45.0);
}

TEST(Metrics, SlicesTileWindowExactlyEvenWhenNegative) {
  for (const MetricKind kind : all_metric_kinds()) {
    const DeadlineMetric metric(kind);
    const std::vector<double> c{10.0, 25.0, 5.0};
    for (const double window : {100.0, 40.0, 20.0}) {
      const auto d = slices(metric, window, c);
      EXPECT_NEAR(std::accumulate(d.begin(), d.end(), 0.0), window, 1e-9)
          << to_string(kind) << " window " << window;
    }
  }
}

TEST(Metrics, NormZeroWeightFallsBackToEqualSplit) {
  const DeadlineMetric norm(MetricKind::kNorm);
  const std::vector<double> zero{0.0, 0.0};
  const auto d = slices(norm, 10.0, zero);
  EXPECT_DOUBLE_EQ(d[0], 5.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
}

TEST(Metrics, EffectiveThreshold) {
  MetricParams params;
  params.threshold_factor = 1.0;
  const DeadlineMetric m(MetricKind::kAdaptG, params);
  const std::vector<double> est{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(m.effective_threshold(est), 20.0);
  MetricParams abs;
  abs.threshold_override = 7.5;
  EXPECT_DOUBLE_EQ(DeadlineMetric(MetricKind::kAdaptG, abs)
                       .effective_threshold(est),
                   7.5);
}

TEST(Metrics, AdaptGWeightsFollowEquation6) {
  // Diamond with known ξ: weights below/above threshold behave per Eq. 6.
  const Application app = testing::make_diamond(10.0, 30.0, 30.0, 10.0, 200.0);
  const std::vector<double> est{10.0, 30.0, 30.0, 10.0};
  MetricParams params;
  params.k_global = 1.5;
  params.threshold_factor = 1.0;  // threshold = mean = 20
  const DeadlineMetric metric(MetricKind::kAdaptG, params);
  const std::size_t m = 2;
  const auto w = testing::weights(metric, app, est, m);
  const double xi = average_parallelism(app.graph(), est);  // 80/50 = 1.6
  EXPECT_DOUBLE_EQ(xi, 1.6);
  const double surplus = 1.0 + 1.5 * xi / static_cast<double>(m);
  EXPECT_DOUBLE_EQ(w[0], 10.0);               // below threshold: untouched
  EXPECT_DOUBLE_EQ(w[1], 30.0 * surplus);     // above threshold: inflated
  EXPECT_DOUBLE_EQ(w[2], 30.0 * surplus);
  EXPECT_DOUBLE_EQ(w[3], 10.0);
}

TEST(Metrics, AdaptLWeightsFollowEquation8) {
  const Application app = testing::make_diamond(10.0, 30.0, 30.0, 10.0, 200.0);
  const std::vector<double> est{10.0, 30.0, 30.0, 10.0};
  MetricParams params;
  params.k_local = 0.2;
  const DeadlineMetric metric(MetricKind::kAdaptL, params);
  const std::size_t m = 2;
  const auto w = testing::weights(metric, app, est, m);
  // Parallel sets: src/sink have |Ψ|=0; mids have |Ψ|=1.
  EXPECT_DOUBLE_EQ(w[0], 10.0);
  EXPECT_DOUBLE_EQ(w[1], 30.0 * (1.0 + 0.2 * 1.0 / 2.0));
  EXPECT_DOUBLE_EQ(w[2], w[1]);
  EXPECT_DOUBLE_EQ(w[3], 10.0);
}

TEST(Metrics, NonAdaptiveWeightsAreTheEstimates) {
  const Application app = testing::make_chain(3, 10.0, 100.0);
  const std::vector<double> est{10.0, 10.0, 10.0};
  for (const MetricKind kind : {MetricKind::kPure, MetricKind::kNorm}) {
    const auto w = testing::weights(DeadlineMetric(kind), app, est, 4);
    EXPECT_EQ(w, est);
  }
}

TEST(Metrics, AdaptiveSlicesThreeRegimes) {
  MetricParams params;
  const DeadlineMetric metric(MetricKind::kAdaptG, params);
  const std::vector<double> est{10.0, 20.0};
  const std::vector<double> inflated{10.0, 40.0};  // extra E = 20

  // Regime 1: surplus (70-30=40) >= E (20) → paper formula ĉ + R.
  {
    const auto d = adaptive_slices(metric, 70.0, inflated, est);
    // R = (70 - 50)/2 = 10.
    EXPECT_DOUBLE_EQ(d[0], 20.0);
    EXPECT_DOUBLE_EQ(d[1], 50.0);
  }
  // Regime 2: 0 < surplus (10) < E (20) → scaled inflation, no one starves.
  {
    const auto d = adaptive_slices(metric, 40.0, inflated, est);
    EXPECT_DOUBLE_EQ(d[0], 10.0);               // est + 0·scale
    EXPECT_DOUBLE_EQ(d[1], 30.0);               // est + 20·(10/20)
    EXPECT_GE(d[0], est[0]);
    EXPECT_GE(d[1], est[1]);
  }
  // Regime 3: surplus <= 0 → PURE on real estimates.
  {
    const auto d = adaptive_slices(metric, 20.0, inflated, est);
    EXPECT_DOUBLE_EQ(d[0], 5.0);   // 10 + (20-30)/2
    EXPECT_DOUBLE_EQ(d[1], 15.0);  // 20 + (20-30)/2
  }
  // All regimes tile the window.
  for (const double window : {70.0, 40.0, 20.0, -5.0}) {
    const auto d = adaptive_slices(metric, window, inflated, est);
    EXPECT_NEAR(d[0] + d[1], window, 1e-9);
  }
}

TEST(Metrics, AdaptiveSlicesDelegateForNonAdaptiveKinds) {
  const DeadlineMetric pure(MetricKind::kPure);
  const std::vector<double> c{10.0, 20.0};
  const auto via_slices = slices(pure, 50.0, c);
  const auto via_adaptive = adaptive_slices(pure, 50.0, c, c);
  EXPECT_EQ(via_slices, via_adaptive);
}

TEST(Metrics, ParamsValidation) {
  MetricParams bad;
  bad.k_global = -1.0;
  EXPECT_THROW(DeadlineMetric(MetricKind::kAdaptG, bad), ConfigError);
  bad = MetricParams{};
  bad.threshold_factor = -0.1;
  EXPECT_THROW(DeadlineMetric(MetricKind::kAdaptL, bad), ConfigError);
  EXPECT_THROW(slices(DeadlineMetric(MetricKind::kPure), 10.0, {}),
               ConfigError);
}

}  // namespace
}  // namespace dsslice
