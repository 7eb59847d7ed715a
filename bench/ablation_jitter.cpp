// Ablation A9: release jitter — quantifying the paper's claim I2.
//
// Under precedence-driven release, a task's release time floats between a
// best case (fast classes, co-location) and a worst case (slow classes,
// worst message routes); the spread is the release jitter that any
// fixed-point schedulability analysis must absorb [14]. Slicing pins every
// release to the window arrival — jitter zero by construction. This bench
// measures the per-task jitter the paper-default workloads would suffer
// *without* slicing, as a function of ETD (heterogeneity spread) and CCR
// (message weight).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "ablation_jitter",
      "A9: precedence-induced release jitter eliminated by slicing (I2)");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  const auto graphs = cli.get_count("graphs");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("== A9 — release jitter without slicing "
              "(mean/max over %zu graphs; sliced jitter is 0 by I2) ==\n\n",
              graphs);
  Table table({"ETD", "CCR", "mean jitter", "max jitter",
               "mean jitter / c_mean"});
  for (const double etd : {0.0, 0.25, 0.5, 1.0}) {
    for (const double ccr : {0.1, 0.5}) {
      GeneratorConfig gen;
      gen.workload.etd = etd;
      gen.workload.ccr = ccr;
      gen.graph_count = graphs;
      gen.base_seed = seed;
      RunningStats mean_jitter;
      RunningStats max_jitter;
      for (std::size_t k = 0; k < graphs; ++k) {
        const Scenario sc = generate_scenario_at(gen, k);
        const auto bounds =
            precedence_release_jitter(sc.application, sc.platform);
        const JitterSummary s = summarize_jitter(bounds);
        mean_jitter.add(s.mean_jitter);
        max_jitter.add(s.max_jitter);
        // Sanity: slicing always yields zero jitter (claim I2).
        const auto est =
            estimate_wcets(sc.application, WcetEstimation::kAverage);
        const auto windows = run_slicing(
            sc.application, est, DeadlineMetric(MetricKind::kAdaptL),
            sc.platform.processor_count());
        const auto sliced = sliced_release_jitter(sc.application, windows);
        for (const JitterBound& b : sliced) {
          if (b.jitter() != 0.0) {
            std::fprintf(stderr, "I2 violated!\n");
            return 1;
          }
        }
      }
      table.add_row({format_fixed(etd, 2), format_fixed(ccr, 2),
                     format_fixed(mean_jitter.mean(), 1),
                     format_fixed(max_jitter.mean(), 1),
                     format_fixed(mean_jitter.mean() /
                                      gen.workload.mean_execution_time,
                                  2)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\n(jitter grows with heterogeneity and message weight; a mean "
      "jitter comparable to c_mean means a task's release floats by a "
      "full execution time — slicing removes all of it)\n\n");
  return 0;
}
