// Ablation A12: shared-resource constraints (§7.3 future work).
//
// Workloads gain exclusive shared resources (each task requires each of R
// resources with probability ρ). Three configurations are compared as ρ
// grows:
//  * ADAPT-L windows, resource-blind (slices ignore resources; the
//    scheduler still enforces them) — the naive application of the paper;
//  * ADAPT-LR windows (resource-aware virtual times: conflicting parallel
//    tasks add k_R each);
//  * PURE windows as the non-adaptive reference.
// Shape expectation: resource-aware windows retain schedulability longer as
// contention for the serial resources grows.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "ablation_resources",
      "A12: shared-resource contention and the ADAPT-LR extension");
  cli.add_flag("resources", "3", "number of exclusive shared resources");
  cli.add_flag("olr", "0.8", "overall laxity ratio");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  const auto graphs = cli.get_count("graphs");
  const auto resource_count = cli.get_count("resources");

  GeneratorConfig gen;
  gen.platform.processor_count = 3;
  gen.workload.olr = cli.get_double("olr");
  gen.graph_count = graphs;
  gen.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("== A12 — shared resources: success ratio vs requirement "
              "probability (m=3, OLR=%.2f, R=%zu, %zu graphs) ==\n\n",
              gen.workload.olr, resource_count, graphs);
  Table table({"P(require)", "PURE", "ADAPT-L (blind)", "ADAPT-LR (aware)"});
  for (const double rho : {0.0, 0.05, 0.1, 0.2, 0.3, 0.4}) {
    SuccessCounter pure_ok;
    SuccessCounter blind_ok;
    SuccessCounter aware_ok;
    for (std::size_t k = 0; k < graphs; ++k) {
      const Scenario sc = generate_scenario_at(gen, k);
      Xoshiro256 rng(derive_seed(gen.base_seed ^ 0x5E50uL, k));
      const ResourceModel model =
          generate_resources(sc.application, resource_count, rho, rng);
      const auto est =
          estimate_wcets(sc.application, WcetEstimation::kAverage);
      const auto schedule_ok = [&](const DeadlineAssignment& a) {
        return EdfListScheduler()
            .run(sc.application, a, sc.platform, &model)
            .success;
      };
      pure_ok.add(schedule_ok(
          run_slicing(sc.application, est, DeadlineMetric(MetricKind::kPure),
                      sc.platform.processor_count())));
      blind_ok.add(schedule_ok(run_slicing(
          sc.application, est, DeadlineMetric(MetricKind::kAdaptL),
          sc.platform.processor_count())));
      SlicingOptions options;
      options.resources = &model;
      aware_ok.add(schedule_ok(run_slicing(
          sc.application, est, DeadlineMetric(MetricKind::kAdaptL),
          sc.platform.processor_count(), nullptr, options)));
    }
    table.add_row({format_fixed(rho, 2), format_percent(pure_ok.ratio(), 1),
                   format_percent(blind_ok.ratio(), 1),
                   format_percent(aware_ok.ratio(), 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\n(the scheduler enforces resource exclusivity in every "
              "column; only the window derivation differs)\n\n");
  return 0;
}
