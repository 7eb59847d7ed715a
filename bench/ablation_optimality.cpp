// Ablation A10: how much success ratio does the heuristic EDF scheduler
// leave on the table?
//
// On small instances (where exact search is tractable) we compare, per
// metric, the greedy EDF list scheduler against the branch-and-bound
// feasibility oracle operating on the *same* windows. The gap separates
// two failure causes the success-ratio figures conflate: windows that are
// genuinely infeasible (a deadline-distribution problem) vs windows the
// greedy scheduler merely fails to exploit (a scheduling problem).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "ablation_optimality",
      "A10: greedy EDF vs branch-and-bound feasibility oracle");
  cli.add_flag("tasks", "12", "tasks per small instance");
  cli.add_flag("olr", "0.6", "overall laxity ratio (tight region)");
  cli.add_flag("max-nodes", "200000", "branch-and-bound node budget");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  const auto graphs = cli.get_count("graphs");
  const auto tasks = cli.get_count("tasks");

  GeneratorConfig gen;
  gen.workload.min_tasks = tasks;
  gen.workload.max_tasks = tasks;
  gen.workload.min_depth = std::max<std::size_t>(2, tasks / 3);
  gen.workload.max_depth = std::max<std::size_t>(2, tasks / 3);
  gen.workload.olr = cli.get_double("olr");
  gen.platform.processor_count = 3;
  gen.graph_count = graphs;
  gen.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  BnbOptions bnb;
  bnb.max_nodes = cli.get_count("max-nodes");

  std::printf("== A10 — greedy EDF vs exact feasibility on %zu-task "
              "instances (m=3, OLR=%.2f, %zu graphs) ==\n\n",
              tasks, gen.workload.olr, graphs);
  Table table({"metric", "greedy", "exact", "scheduler gap", "undecided"});
  for (const MetricKind kind : all_metric_kinds()) {
    SuccessCounter greedy;
    SuccessCounter exact;
    std::size_t undecided = 0;
    for (std::size_t k = 0; k < graphs; ++k) {
      const Scenario sc = generate_scenario_at(gen, k);
      const auto est =
          estimate_wcets(sc.application, WcetEstimation::kAverage);
      const auto a = run_slicing(sc.application, est, DeadlineMetric(kind),
                                 sc.platform.processor_count());
      greedy.add(
          EdfListScheduler().run(sc.application, a, sc.platform).success);
      const auto r =
          branch_and_bound_schedule(sc.application, a, sc.platform, bnb);
      if (r.status == BnbStatus::kNodeLimit) {
        ++undecided;
      }
      exact.add(r.status == BnbStatus::kFeasible);
    }
    table.add_row({to_string(kind), format_percent(greedy.ratio(), 1),
                   format_percent(exact.ratio(), 1),
                   format_percent(exact.ratio() - greedy.ratio(), 1),
                   std::to_string(undecided)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\n('scheduler gap' = window sets feasible in principle that greedy "
      "EDF fails to schedule; 'undecided' hit the node budget and count as "
      "exact-infeasible)\n\n");
  return 0;
}
