// Robustness study (beyond the paper's figures; docs/ROBUSTNESS.md): the
// four metrics dispatched under injected execution-time overruns, with and
// without degraded-mode recovery.
//
// Part 1 sweeps the overrun factor and reports, per metric × policy, the
// fraction of E-T-E deadlines met plus the breakdown overrun factor — the
// largest overrun each configuration tolerates before its E-T-E miss ratio
// exceeds the threshold. The printed verdict checks the headline claim:
// redistribute-slack recovery never loses to the do-nothing baseline at
// equal fault intensity.
//
// Part 2 is a processor-failure table: one processor halts mid-run and the
// migrate policy is compared against no recovery.
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "fig_robustness",
      "Robustness: E-T-E deadlines met under injected faults, per metric "
      "and recovery policy");
  cli.add_flag("miss-threshold", "0.1",
               "E-T-E miss ratio defining the breakdown factor");
  cli.add_flag("overrun-probability", "0.35",
               "per-task probability of an execution-time overrun");
  cli.add_flag("replicates", "5",
               "independent seed replicates averaged into every point");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  ThreadPool pool = bench::make_pool(cli);
  const bool verbose = cli.get_bool("verbose");
  const double threshold = cli.get_double("miss-threshold");

  RobustnessConfig base;
  base.base = bench::base_config(cli);
  // The full 1024-graph batch over a 9-point sweep × 8 series is heavy for
  // a dispatch-time simulation; a quarter batch keeps the CI tight enough.
  // Every point additionally averages over --replicates independent seed
  // replicates, so no row reflects one fixed-seed batch; the per-replicate
  // batch shrinks to keep the total cost flat.
  base.seed_replicates = std::max<std::size_t>(1, cli.get_count("replicates"));
  base.base.generator.graph_count = std::max<std::size_t>(
      1, base.base.generator.graph_count / (4 * base.seed_replicates));
  base.base.generator.platform.processor_count = 3;
  base.faults.scope = OverrunScope::kUniform;
  base.faults.overrun_probability = cli.get_double("overrun-probability");
  base.faults.seed = 0x0B0B57;

  const std::vector<DistributionTechnique> techniques = {
      DistributionTechnique::kSlicingPure,
      DistributionTechnique::kSlicingNorm,
      DistributionTechnique::kSlicingAdaptG,
      DistributionTechnique::kSlicingAdaptL,
  };
  const std::vector<RecoveryPolicy> policies = {
      RecoveryPolicy::kNone, RecoveryPolicy::kRedistributeSlack};
  const std::vector<double> factors = {1.0,  1.25, 1.5,  1.75, 2.0,
                                       2.25, 2.5,  2.75, 3.0};

  const SweepResult sweep = sweep_overrun_factor(base, techniques, policies,
                                                 factors, pool, verbose);
  bench::report(
      "Robustness — E-T-E deadlines met vs execution-time overrun factor "
      "(m=3, per-task overrun probability " +
          format_fixed(base.faults.overrun_probability, 2) + ")",
      sweep, cli);

  std::fputs(
      format_breakdown_table(breakdown_overrun_factors(sweep, threshold),
                             threshold)
          .c_str(),
      stdout);

  // Headline verdict: at every swept intensity, redistribute-slack must
  // meet at least as many E-T-E deadlines as no recovery — strictly more
  // somewhere — for every metric.
  bool redistribute_dominates = true;
  bool strictly_better_somewhere = false;
  for (const DistributionTechnique t : techniques) {
    const Series& none = sweep.find(to_string(t) + "/none");
    const Series& redis = sweep.find(to_string(t) + "/redistribute-slack");
    for (std::size_t i = 0; i < sweep.x.size(); ++i) {
      if (redis.success_ratio[i] < none.success_ratio[i] - 1e-12) {
        redistribute_dominates = false;
        std::printf("  !! %s: recovery LOSES at overrun factor %.2f "
                    "(%.4f < %.4f)\n",
                    to_string(t).c_str(), sweep.x[i], redis.success_ratio[i],
                    none.success_ratio[i]);
      }
      if (redis.success_ratio[i] > none.success_ratio[i] + 1e-12) {
        strictly_better_somewhere = true;
      }
    }
  }
  std::printf("\nverdict: redistribute-slack %s the no-recovery baseline "
              "(%s strict improvement observed)\n",
              redistribute_dominates ? "dominates" : "does NOT dominate",
              strictly_better_somewhere ? "with" : "without");

  // Part 2: one unforeseen processor failure, migrate vs none. The failure
  // instant is drawn per graph inside the busy part of the horizon.
  std::printf("\n== Processor failure: migrate vs no recovery ==\n");
  std::printf("   (one of %zu processors fails with p=0.75 during [5, 60); "
              "%zu graphs)\n\n",
              base.base.generator.platform.processor_count,
              base.base.generator.graph_count);
  RobustnessConfig fail_base = base;
  fail_base.faults = FaultSpec{};
  fail_base.faults.seed = 0xFA11;
  fail_base.faults.random_failure_probability = 0.25;
  fail_base.faults.random_failure_window = Window{5.0, 60.0};
  for (const DistributionTechnique t : techniques) {
    fail_base.base.technique = t;
    for (const RecoveryPolicy policy :
         {RecoveryPolicy::kNone, RecoveryPolicy::kMigrate}) {
      fail_base.policy = policy;
      const RobustnessResult result = run_robustness(fail_base, pool);
      std::printf("%s\n",
                  result.summary(to_string(t) + "/" + to_string(policy))
                      .c_str());
    }
  }
  return 0;
}
