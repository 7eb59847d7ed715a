// Ablation A13: multi-rate periodic workloads over a planning cycle (§3.3).
//
// Two independent randomly-generated applications run at different rates on
// one platform: component A at period T, component B at period 3T/2
// (hyperperiod 3T → three invocations of A, two of B). The planning-cycle
// expander unrolls the invocations; slicing then distributes each
// invocation's deadline and the EDF baseline schedules the whole cycle.
// Compared: PURE vs ADAPT-L success over the planning cycle, and the
// single-shot success of component A alone (the figure experiments'
// setting) as a reference for how much the rate mixing costs.
#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "ablation_periodic",
      "A13: multi-rate periodic workloads over one planning cycle");
  cli.add_flag("olr", "0.8", "overall laxity ratio per component");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  const auto graphs = cli.get_count("graphs");

  GeneratorConfig gen;
  gen.platform.processor_count = 4;  // two interleaved apps need headroom
  gen.workload.olr = cli.get_double("olr");
  gen.workload.min_tasks = 20;  // two components ≈ one paper-size workload
  gen.workload.max_tasks = 30;
  gen.workload.min_depth = 5;
  gen.workload.max_depth = 6;
  gen.graph_count = graphs;
  gen.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("== A13 — planning-cycle success over multi-rate workloads "
              "(m=%zu, OLR=%.2f, %zu cycles) ==\n\n",
              gen.platform.processor_count, gen.workload.olr, graphs);
  Table table({"metric", "single-shot A", "planning cycle A+B",
               "mean invocations"});
  struct Row {
    const char* label;
    MetricKind kind;
    bool temporal;
  };
  const Row rows[] = {
      {"PURE", MetricKind::kPure, false},
      {"ADAPT-L", MetricKind::kAdaptL, false},
      {"ADAPT-LT (temporal)", MetricKind::kAdaptL, true},
  };
  for (const Row& row : rows) {
    const MetricKind kind = row.kind;
    MetricParams params;
    params.temporal_parallel_sets = row.temporal;
    SuccessCounter single;
    SuccessCounter cycle;
    RunningStats invocations;
    for (std::size_t k = 0; k < graphs; ++k) {
      const Scenario sc = generate_scenario_at(gen, k);
      Xoshiro256 rng(derive_seed(gen.base_seed ^ 0x9E10D1C, k));
      Application comp_b = generate_application(gen.workload, sc.platform,
                                                rng);

      // Single-shot reference: component A alone.
      {
        const auto est =
            estimate_wcets(sc.application, WcetEstimation::kAverage);
        const auto a =
            run_slicing(sc.application, est, DeadlineMetric(kind, params),
                        sc.platform.processor_count());
        single.add(EdfListScheduler()
                       .run(sc.application, a, sc.platform)
                       .success);
      }

      // Multi-rate composition: T_A rounded so T_B = 3/2·T_A is integral
      // and both exceed the components' E-T-E deadlines (d <= T).
      Application comp_a = sc.application;  // copy for period annotation
      const Time d_a =
          comp_a.ete_deadline(comp_a.graph().output_nodes().front());
      const Time d_b =
          comp_b.ete_deadline(comp_b.graph().output_nodes().front());
      const Time base = std::max(d_a, d_b);
      const auto t_a = static_cast<Time>(
          2 * static_cast<long long>(std::ceil(base / 2.0) + 1));
      const Time t_b = 1.5 * t_a;
      for (NodeId v = 0; v < comp_a.task_count(); ++v) {
        comp_a.mutable_task(v).period = t_a;
      }
      for (NodeId v = 0; v < comp_b.task_count(); ++v) {
        comp_b.mutable_task(v).period = t_b;
      }
      const Application merged = merge_applications(comp_a, comp_b);
      const ExpandedApplication expanded = expand_planning_cycle(merged);
      invocations.add(static_cast<double>(expanded.app.task_count()) /
                      static_cast<double>(merged.task_count()));

      const auto est =
          estimate_wcets(expanded.app, WcetEstimation::kAverage);
      const auto a =
          run_slicing(expanded.app, est, DeadlineMetric(kind, params),
                      sc.platform.processor_count());
      cycle.add(
          EdfListScheduler().run(expanded.app, a, sc.platform).success);
    }
    table.add_row({row.label, format_percent(single.ratio(), 1),
                   format_percent(cycle.ratio(), 1),
                   format_fixed(invocations.mean(), 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\n(three invocations of A interleave with two of B per "
              "hyperperiod; the cycle column schedules every invocation "
              "within one planning cycle)\n\n");
  return 0;
}
