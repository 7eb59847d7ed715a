// Ablation A11: simulated-annealing mapping optimization vs greedy EDF.
//
// For tightly-constrained workloads, how many task sets that the greedy
// list scheduler fails on become schedulable when the task→processor
// mapping is annealed ([15]-style search)? And how much extra lateness
// margin does annealing buy on already-feasible sets?
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "ablation_annealing", "A11: annealed mapping vs greedy EDF placement");
  cli.add_flag("olr", "0.6", "overall laxity ratio (tight region)");
  cli.add_flag("iterations", "800", "annealing iterations per task set");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  const auto graphs = cli.get_count("graphs");

  GeneratorConfig gen;
  gen.platform.processor_count = 3;
  gen.workload.olr = cli.get_double("olr");
  gen.graph_count = graphs;
  gen.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  AnnealingOptions anneal;
  anneal.iterations = cli.get_count("iterations");

  std::printf("== A11 — annealed mapping vs greedy EDF "
              "(m=3, OLR=%.2f, %zu graphs, %zu iterations) ==\n\n",
              gen.workload.olr, graphs, anneal.iterations);
  Table table({"metric", "greedy", "annealed", "repaired",
               "mean margin gain"});
  for (const MetricKind kind :
       {MetricKind::kNorm, MetricKind::kAdaptL}) {
    SuccessCounter greedy_ok;
    SuccessCounter annealed_ok;
    std::size_t repaired = 0;
    RunningStats margin_gain;
    for (std::size_t k = 0; k < graphs; ++k) {
      const Scenario sc = generate_scenario_at(gen, k);
      const auto est =
          estimate_wcets(sc.application, WcetEstimation::kAverage);
      const auto a = run_slicing(sc.application, est, DeadlineMetric(kind),
                                 sc.platform.processor_count());
      SchedulerOptions lateness_mode;
      lateness_mode.abort_on_miss = false;
      const auto greedy = EdfListScheduler(lateness_mode)
                              .run(sc.application, a, sc.platform);
      const double greedy_energy = max_lateness(greedy.schedule, a);
      AnnealingOptions options = anneal;
      options.seed = derive_seed(gen.base_seed, k);
      const AnnealingResult annealed =
          anneal_schedule(sc.application, a, sc.platform, options);
      const bool g_ok = greedy_energy <= 0.0;
      const bool a_ok = annealed.energy <= 0.0;
      greedy_ok.add(g_ok);
      annealed_ok.add(a_ok);
      repaired += (!g_ok && a_ok) ? 1 : 0;
      margin_gain.add(greedy_energy - annealed.energy);
    }
    table.add_row({to_string(kind), format_percent(greedy_ok.ratio(), 1),
                   format_percent(annealed_ok.ratio(), 1),
                   std::to_string(repaired),
                   format_fixed(margin_gain.mean(), 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\n('repaired' = task sets infeasible under greedy placement "
              "but feasible after annealing the mapping; margin gain is the "
              "max-lateness improvement in time units)\n\n");
  return 0;
}
