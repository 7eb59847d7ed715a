#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "dsslice/sim/sweeps.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

// Figure pins: every paper figure sweep at 16 graphs per point, paper
// defaults, fixed seed. The digest covers each cell's exact success count
// and the bit pattern of its mean min-laxity, the two numbers a figure
// prints per point, so any change to how figures are evaluated that moves a
// single count or the last bit of a mean fails here.
constexpr std::size_t kPinGraphs = 16;

ExperimentConfig pin_base() {
  ExperimentConfig c;
  c.generator.graph_count = kPinGraphs;
  c.generator.base_seed = 20250707;
  return c;
}

std::uint64_t figure_digest(const SweepResult& sweep) {
  std::string text;
  for (const Series& s : sweep.series) {
    for (std::size_t j = 0; j < sweep.x.size(); ++j) {
      char line[160];
      std::snprintf(
          line, sizeof line, "%s %g %lld %016llx\n", s.name.c_str(), sweep.x[j],
          static_cast<long long>(std::llround(
              s.success_ratio[j] * static_cast<double>(kPinGraphs))),
          static_cast<unsigned long long>(
              std::bit_cast<std::uint64_t>(s.mean_min_laxity[j])));
      text += line;
    }
  }
  return testing::fnv1a(text);
}

TEST(Sweeps, PaperFiguresMatchPinnedDigests) {
  ThreadPool pool(2);
  ExperimentConfig wcet_base = pin_base();
  wcet_base.technique = DistributionTechnique::kSlicingAdaptL;
  const std::vector<double> olrs = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                                    1.1, 1.2, 1.3, 1.4, 1.5};
  const std::vector<double> etds = {0.0, 0.25, 0.5, 0.75, 1.0};
  EXPECT_EQ(figure_digest(
                sweep_system_size(pin_base(), {2, 3, 4, 5, 6, 7, 8}, pool)),
            0x94d94455c45243ecULL)
      << "Fig. 2";
  EXPECT_EQ(figure_digest(sweep_olr(pin_base(), olrs, pool)),
            0x8d37f16586602a10ULL)
      << "Fig. 3";
  EXPECT_EQ(figure_digest(sweep_etd(pin_base(), etds, pool)),
            0x5011cb11a291fffcULL)
      << "Fig. 4";
  EXPECT_EQ(figure_digest(sweep_wcet_olr(
                wcet_base, {0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}, pool)),
            0xed40d86e05d9c9d1ULL)
      << "Fig. 5";
  EXPECT_EQ(figure_digest(sweep_wcet_etd(wcet_base, etds, pool)),
            0x83939149c1cd12cbULL)
      << "Fig. 6";
}

ExperimentConfig tiny_base() {
  ExperimentConfig c;
  c.generator = testing::small_generator(11);
  c.generator.graph_count = 12;
  return c;
}

TEST(Sweeps, RunSweepShapesResult) {
  ThreadPool pool(4);
  const ExperimentConfig base = tiny_base();
  const std::vector<SeriesSpec> specs{
      {"A", [base](double x) {
         ExperimentConfig c = base;
         c.generator.workload.olr = x;
         return c;
       }},
      {"B", [base](double x) {
         ExperimentConfig c = base;
         c.generator.workload.olr = x;
         c.technique = DistributionTechnique::kSlicingPure;
         return c;
       }},
  };
  const SweepResult r = run_sweep("OLR", {0.5, 1.0}, specs, pool);
  EXPECT_EQ(r.x_label, "OLR");
  ASSERT_EQ(r.x.size(), 2u);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].name, "A");
  ASSERT_EQ(r.series[0].success_ratio.size(), 2u);
  ASSERT_EQ(r.series[0].ci95.size(), 2u);
  // Looser OLR cannot hurt (same seeds, monotone budget).
  EXPECT_LE(r.series[0].success_ratio[0],
            r.series[0].success_ratio[1] + 1e-9);
  EXPECT_EQ(&r.find("B"), &r.series[1]);
  EXPECT_THROW(r.find("missing"), ConfigError);
}

TEST(Sweeps, RejectsEmptyInputs) {
  ThreadPool pool(1);
  const std::vector<SeriesSpec> specs{
      {"A", [](double) { return tiny_base(); }}};
  EXPECT_THROW(run_sweep("x", {}, specs, pool), ConfigError);
  EXPECT_THROW(run_sweep("x", {1.0}, {}, pool), ConfigError);
}

TEST(Sweeps, MetricSeriesCoversFourMetrics) {
  const auto specs = metric_series(tiny_base());
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "PURE");
  EXPECT_EQ(specs[3].name, "ADAPT-L");
  const ExperimentConfig c = specs[3].factory(0.0);
  EXPECT_EQ(c.technique, DistributionTechnique::kSlicingAdaptL);
}

TEST(Sweeps, WcetSeriesCoversThreeStrategies) {
  const auto specs = wcet_series(tiny_base());
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "WCET-AVG");
  EXPECT_EQ(specs[1].factory(0.0).wcet_strategy, WcetEstimation::kMax);
}

TEST(Sweeps, SystemSizeSweepSetsProcessorCount) {
  ThreadPool pool(4);
  const SweepResult r =
      sweep_system_size(tiny_base(), {2, 4}, pool);
  EXPECT_EQ(r.x_label, "m");
  ASSERT_EQ(r.x.size(), 2u);
  EXPECT_DOUBLE_EQ(r.x[0], 2.0);
  ASSERT_EQ(r.series.size(), 4u);
}

TEST(Sweeps, CellsInParallelMatchSequentialBitForBit) {
  ThreadPool one(1);
  ThreadPool four(4);
  const SweepResult serial = sweep_system_size(tiny_base(), {2, 3, 4}, one);
  const SweepResult parallel = sweep_system_size(tiny_base(), {2, 3, 4}, four);
  EXPECT_EQ(parallel.scenarios, serial.scenarios);
  ASSERT_EQ(parallel.series.size(), serial.series.size());
  for (std::size_t s = 0; s < serial.series.size(); ++s) {
    const Series& a = serial.series[s];
    const Series& b = parallel.series[s];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.success_ratio, a.success_ratio) << a.name;
    EXPECT_EQ(b.ci95, a.ci95) << a.name;
    ASSERT_EQ(b.mean_min_laxity.size(), a.mean_min_laxity.size());
    for (std::size_t j = 0; j < a.mean_min_laxity.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.mean_min_laxity[j]),
                std::bit_cast<std::uint64_t>(a.mean_min_laxity[j]))
          << a.name << " x=" << serial.x[j];
    }
  }
}

TEST(Sweeps, OlrAndEtdSweepsProduceSeries) {
  ThreadPool pool(4);
  const SweepResult olr = sweep_olr(tiny_base(), {0.6, 1.0}, pool);
  EXPECT_EQ(olr.series.size(), 4u);
  const SweepResult etd = sweep_etd(tiny_base(), {0.0, 0.5}, pool);
  EXPECT_EQ(etd.series.size(), 4u);
  const SweepResult w_olr = sweep_wcet_olr(tiny_base(), {0.6, 1.0}, pool);
  EXPECT_EQ(w_olr.series.size(), 3u);
  const SweepResult w_etd = sweep_wcet_etd(tiny_base(), {0.0, 0.5}, pool);
  EXPECT_EQ(w_etd.series.size(), 3u);
}

}  // namespace
}  // namespace dsslice
