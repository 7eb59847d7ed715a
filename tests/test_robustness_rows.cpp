// Robustness batches against their per-scenario definition: every cell of
// sweep_degradation and sweep_overrun_factor equals run_robustness on that
// cell's config, and run_robustness equals a hand fold of
// evaluate_robust_scenario over the harness's seeds — doubles compared by
// bit pattern, on pools of 1 and 3 workers. The grid carries a processor
// failure, so kills, restarts and migrations are part of what must match.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dsslice/gen/rng.hpp"
#include "dsslice/robust/robustness_harness.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

const std::vector<DistributionTechnique> kTechniques = {
    DistributionTechnique::kSlicingAdaptL,  // batch slicing kernel
    DistributionTechnique::kKaoEQS,         // direct distribution
};
const std::vector<RecoveryPolicy> kPolicies = {RecoveryPolicy::kMigrate,
                                               RecoveryPolicy::kShedOptional};
const std::vector<double> kFactors = {1.0, 2.0};
const std::vector<double> kFractions = {0.0, 0.5};

RobustnessConfig grid_base() {
  RobustnessConfig config;
  config.base.generator = testing::small_generator(31);
  config.base.generator.graph_count = 4;
  config.faults.scope = OverrunScope::kUniform;
  config.faults.overrun_probability = 0.4;
  config.faults.seed = 0xF00D;
  config.faults.failures = {ProcessorFailure{0, 40.0}};
  config.seed_replicates = 2;
  return config;
}

RobustnessConfig cell_config(const RobustnessConfig& base,
                             DistributionTechnique technique,
                             RecoveryPolicy policy, double fraction,
                             double factor) {
  RobustnessConfig config = base;
  config.base.technique = technique;
  config.policy = policy;
  config.base.generator.workload.min_optional_fraction = fraction;
  config.base.generator.workload.max_optional_fraction = fraction;
  config.faults.overrun_factor = factor;
  return config;
}

void expect_same_stats(const RunningStats& a, const RunningStats& b,
                       const std::string& what) {
  const RunningStatsState x = a.state();
  const RunningStatsState y = b.state();
  EXPECT_EQ(x.n, y.n) << what;
  EXPECT_EQ(bits(x.mean), bits(y.mean)) << what;
  EXPECT_EQ(bits(x.m2), bits(y.m2)) << what;
  EXPECT_EQ(bits(x.sum), bits(y.sum)) << what;
  EXPECT_EQ(bits(x.min), bits(y.min)) << what;
  EXPECT_EQ(bits(x.max), bits(y.max)) << what;
}

void expect_same_result(const RobustnessResult& a, const RobustnessResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.ete_met.successes(), b.ete_met.successes()) << where;
  EXPECT_EQ(a.ete_met.trials(), b.ete_met.trials()) << where;
  expect_same_stats(a.graph_miss_ratio, b.graph_miss_ratio,
                    where + " graph_miss_ratio");
  expect_same_stats(a.slice_misses, b.slice_misses, where + " slice_misses");
  expect_same_stats(a.quality, b.quality, where + " quality");
  EXPECT_EQ(a.killed, b.killed) << where;
  EXPECT_EQ(a.unfinished, b.unfinished) << where;
  EXPECT_EQ(bits(a.optional_demand), bits(b.optional_demand)) << where;
  EXPECT_EQ(bits(a.optional_completed), bits(b.optional_completed)) << where;
  EXPECT_EQ(a.degraded_completions, b.degraded_completions) << where;
  EXPECT_EQ(a.recovery.reslices, b.recovery.reslices) << where;
  EXPECT_EQ(a.recovery.migrations, b.recovery.migrations) << where;
  EXPECT_EQ(a.recovery.revived, b.recovery.revived) << where;
  EXPECT_EQ(a.recovery.abandoned, b.recovery.abandoned) << where;
  EXPECT_EQ(a.recovery.shed, b.recovery.shed) << where;
  EXPECT_EQ(bits(a.recovery.optional_dropped),
            bits(b.recovery.optional_dropped))
      << where;
}

/// run_robustness spelled out: replicate r > 0 derives its workload and
/// fault base seeds with the harness's replicate tag, graph k uses
/// derive_seed(base, k) of each, and outcomes fold replicate-major.
RobustnessResult hand_fold(const RobustnessConfig& config) {
  constexpr std::uint64_t kReplicateTag = 0x5EED'0DE6'4ADEULL;
  RobustnessResult result;
  for (std::size_t r = 0; r < config.seed_replicates; ++r) {
    const std::uint64_t workload_base =
        r == 0 ? config.base.generator.base_seed
               : derive_seed(config.base.generator.base_seed,
                             kReplicateTag + r);
    const std::uint64_t fault_base =
        r == 0 ? config.faults.seed
               : derive_seed(config.faults.seed, kReplicateTag + r);
    for (std::size_t k = 0; k < config.base.generator.graph_count; ++k) {
      result.add(evaluate_robust_scenario(config, derive_seed(workload_base, k),
                                          derive_seed(fault_base, k)));
    }
  }
  return result;
}

std::string cell_name(DistributionTechnique technique, RecoveryPolicy policy,
                      double fraction, double factor) {
  return to_string(technique) + "/" + to_string(policy) +
         " f=" + std::to_string(fraction) + " x=" + std::to_string(factor);
}

TEST(RobustnessRows, RunRobustnessMatchesHandFoldBitwise) {
  const RobustnessConfig base = grid_base();
  std::size_t killed = 0;
  std::size_t revived = 0;
  std::size_t migrations = 0;
  std::size_t shed = 0;
  for (const std::size_t workers : {1u, 3u}) {
    ThreadPool pool(workers);
    for (const DistributionTechnique technique : kTechniques) {
      for (const RecoveryPolicy policy : kPolicies) {
        for (const double fraction : kFractions) {
          for (const double factor : kFactors) {
            const RobustnessConfig config =
                cell_config(base, technique, policy, fraction, factor);
            const RobustnessResult batch = run_robustness(config, pool);
            expect_same_result(batch, hand_fold(config),
                               cell_name(technique, policy, fraction, factor) +
                                   " workers " + std::to_string(workers));
            killed += batch.killed;
            revived += batch.recovery.revived;
            migrations += batch.recovery.migrations;
            shed += batch.recovery.shed;
          }
        }
      }
    }
  }
  // The grid exercises what it claims to: the failure kills running tasks,
  // the policies restart and migrate them, and shedding degrades some.
  EXPECT_GT(killed, 0u);
  EXPECT_GT(revived, 0u);
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(shed, 0u);
}

TEST(RobustnessRows, DegradationCellsMatchRunRobustnessBitwise) {
  const RobustnessConfig base = grid_base();
  for (const std::size_t workers : {1u, 3u}) {
    ThreadPool pool(workers);
    const DegradationSurface surface = sweep_degradation(
        base, kTechniques, kPolicies, kFactors, kFractions, pool);
    ASSERT_EQ(surface.series.size(), kTechniques.size() * kPolicies.size());
    EXPECT_EQ(surface.scenarios, surface.series.size() * kFractions.size() *
                                     kFactors.size() *
                                     base.base.generator.graph_count *
                                     base.seed_replicates);
    std::size_t s = 0;
    for (const DistributionTechnique technique : kTechniques) {
      for (const RecoveryPolicy policy : kPolicies) {
        const DegradationSeries& series = surface.series[s++];
        EXPECT_EQ(series.name, to_string(technique) + "/" + to_string(policy));
        ASSERT_EQ(series.cells.size(), kFractions.size() * kFactors.size());
        for (std::size_t fi = 0; fi < kFractions.size(); ++fi) {
          for (std::size_t xi = 0; xi < kFactors.size(); ++xi) {
            const std::string where =
                cell_name(technique, policy, kFractions[fi], kFactors[xi]) +
                " workers " + std::to_string(workers);
            const RobustnessResult expected = run_robustness(
                cell_config(base, technique, policy, kFractions[fi],
                            kFactors[xi]),
                pool);
            const DegradationCell& cell =
                series.cells[fi * kFactors.size() + xi];
            EXPECT_EQ(bits(cell.overrun_factor), bits(kFactors[xi])) << where;
            EXPECT_EQ(bits(cell.optional_fraction), bits(kFractions[fi]))
                << where;
            EXPECT_EQ(bits(cell.success_ratio), bits(expected.ete_met.ratio()))
                << where;
            EXPECT_EQ(bits(cell.ci95),
                      bits(expected.ete_met.ci95_halfwidth()))
                << where;
            EXPECT_EQ(bits(cell.quality), bits(expected.quality.mean()))
                << where;
            EXPECT_EQ(cell.shed_tasks, expected.recovery.shed) << where;
            EXPECT_EQ(cell.degraded_completions,
                      expected.degraded_completions)
                << where;
          }
        }
      }
    }
  }
}

TEST(RobustnessRows, OverrunSweepCellsMatchRunRobustnessBitwise) {
  RobustnessConfig base = grid_base();
  base.base.generator.workload.min_optional_fraction = 0.5;
  base.base.generator.workload.max_optional_fraction = 0.5;
  for (const std::size_t workers : {1u, 3u}) {
    ThreadPool pool(workers);
    const SweepResult sweep =
        sweep_overrun_factor(base, kTechniques, kPolicies, kFactors, pool);
    EXPECT_EQ(sweep.x_label, "overrun-factor");
    EXPECT_EQ(sweep.x, kFactors);
    ASSERT_EQ(sweep.series.size(), kTechniques.size() * kPolicies.size());
    EXPECT_EQ(sweep.scenarios, sweep.series.size() * kFactors.size() *
                                   base.base.generator.graph_count *
                                   base.seed_replicates);
    std::size_t s = 0;
    for (const DistributionTechnique technique : kTechniques) {
      for (const RecoveryPolicy policy : kPolicies) {
        const Series& series = sweep.series[s++];
        EXPECT_EQ(series.name, to_string(technique) + "/" + to_string(policy));
        ASSERT_EQ(series.success_ratio.size(), kFactors.size());
        ASSERT_EQ(series.ci95.size(), kFactors.size());
        ASSERT_EQ(series.mean_min_laxity.size(), kFactors.size());
        for (std::size_t xi = 0; xi < kFactors.size(); ++xi) {
          const std::string where =
              cell_name(technique, policy, 0.5, kFactors[xi]) + " workers " +
              std::to_string(workers);
          const RobustnessResult expected = run_robustness(
              cell_config(base, technique, policy, 0.5, kFactors[xi]), pool);
          EXPECT_EQ(bits(series.success_ratio[xi]),
                    bits(expected.ete_met.ratio()))
              << where;
          EXPECT_EQ(bits(series.ci95[xi]),
                    bits(expected.ete_met.ci95_halfwidth()))
              << where;
          EXPECT_EQ(bits(series.mean_min_laxity[xi]),
                    bits(expected.slice_misses.mean()))
              << where;
        }
      }
    }
  }
}

// The run_robustness references above share dispatch_faulted with the
// batch path, so a change to what that function is handed (windows,
// estimates, scratch) would move both sides alike. This pin does not: an
// FNV-1a digest over every cell's bits of a small surface with all three
// migrating or shedding policies, on pools of 1 and 3 workers.
TEST(RobustnessRows, DegradationSurfaceMatchesPinnedDigest) {
  const RobustnessConfig base = grid_base();
  const std::vector<RecoveryPolicy> policies = {
      RecoveryPolicy::kMigrate, RecoveryPolicy::kShedOptional,
      RecoveryPolicy::kDegradeThenMigrate};
  for (const std::size_t workers : {1u, 3u}) {
    ThreadPool pool(workers);
    const DegradationSurface surface = sweep_degradation(
        base, kTechniques, policies, kFactors, kFractions, pool);
    std::string bytes = std::to_string(surface.scenarios) + "\n";
    for (const DegradationSeries& series : surface.series) {
      bytes += series.name + "\n";
      for (const DegradationCell& cell : series.cells) {
        for (const double x : {cell.overrun_factor, cell.optional_fraction,
                               cell.success_ratio, cell.ci95, cell.quality}) {
          bytes += std::to_string(bits(x)) + " ";
        }
        bytes += std::to_string(cell.shed_tasks) + " " +
                 std::to_string(cell.degraded_completions) + "\n";
      }
    }
    EXPECT_EQ(testing::fnv1a(bytes), 0x0767eba46c580640ULL) << "workers " << workers;
  }
}

}  // namespace
}  // namespace dsslice
