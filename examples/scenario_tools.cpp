// Scenario tooling: generate/save/load/analyze workload scenarios through
// the serialization format — the workflow for reproducing and reporting a
// failing task set.
//
//   scenario_tools --mode generate --seed 7 --out scenario.txt
//   scenario_tools --mode analyze --in scenario.txt
//   scenario_tools --mode hunt --metric adapt-g --olr 0.6 --out fail.txt
//
// "hunt" scans seeds for the first scenario the selected metric fails to
// schedule and dumps it for offline inspection.
#include <cstdio>

#include "dsslice/dsslice.hpp"

namespace {

using namespace dsslice;

MetricKind parse_metric(const std::string& name) {
  if (name == "pure") {
    return MetricKind::kPure;
  }
  if (name == "norm") {
    return MetricKind::kNorm;
  }
  if (name == "adapt-g") {
    return MetricKind::kAdaptG;
  }
  if (name == "adapt-l") {
    return MetricKind::kAdaptL;
  }
  throw ConfigError("unknown metric: " + name +
                    " (pure|norm|adapt-g|adapt-l)");
}

GeneratorConfig config_from(const CliParser& cli) {
  GeneratorConfig gen;
  gen.platform.processor_count = cli.get_count("processors");
  gen.workload.olr = cli.get_double("olr");
  gen.workload.etd = cli.get_double("etd");
  gen.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  return gen;
}

int analyze(const Scenario& sc) {
  const Application& app = sc.application;
  std::printf("scenario: %zu tasks, %zu arcs, depth %zu on %zu processors "
              "(%zu classes)\n\n",
              app.task_count(), app.graph().arc_count(),
              graph_depth(app.graph()), sc.platform.processor_count(),
              sc.platform.class_count());
  const auto est = estimate_wcets(app, WcetEstimation::kAverage);
  Table table({"metric", "schedulable", "min laxity", "passes"});
  for (const MetricKind kind : all_metric_kinds()) {
    SlicingStats stats;
    const auto windows = run_slicing(app, est, DeadlineMetric(kind),
                                     sc.platform.processor_count(), &stats);
    const auto result = EdfListScheduler().run(app, windows, sc.platform);
    table.add_row({to_string(kind), result.success ? "yes" : "no",
                   format_fixed(stats.min_laxity, 1),
                   std::to_string(stats.passes)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("scenario_tools",
                "generate / save / load / analyze workload scenarios");
  cli.add_flag("mode", "generate", "generate | analyze | hunt");
  cli.add_flag("seed", "1", "generation seed (generate/hunt start)");
  cli.add_flag("processors", "3", "system size m");
  cli.add_flag("olr", "0.8", "overall laxity ratio");
  cli.add_flag("etd", "0.25", "execution time distribution");
  cli.add_flag("metric", "adapt-l", "metric for hunt mode");
  cli.add_flag("max-seeds", "512", "hunt: seeds to scan");
  cli.add_flag("out", "scenario.txt", "output path (generate/hunt)");
  cli.add_flag("in", "scenario.txt", "input path (analyze)");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  const std::string mode = cli.get_string("mode");
  try {
    if (mode == "generate") {
      const Scenario sc = generate_scenario(
          config_from(cli), static_cast<std::uint64_t>(cli.get_int("seed")));
      save_scenario(sc, cli.get_string("out"));
      std::printf("wrote %zu-task scenario to %s\n",
                  sc.application.task_count(),
                  cli.get_string("out").c_str());
      return 0;
    }
    if (mode == "analyze") {
      return analyze(load_scenario(cli.get_string("in")));
    }
    if (mode == "hunt") {
      const MetricKind kind = parse_metric(cli.get_string("metric"));
      const GeneratorConfig gen = config_from(cli);
      const auto max_seeds = cli.get_count("max-seeds");
      for (std::size_t k = 0; k < max_seeds; ++k) {
        const Scenario sc = generate_scenario_at(gen, k);
        const auto est =
            estimate_wcets(sc.application, WcetEstimation::kAverage);
        const auto windows =
            run_slicing(sc.application, est, DeadlineMetric(kind),
                        sc.platform.processor_count());
        const auto result =
            EdfListScheduler().run(sc.application, windows, sc.platform);
        if (!result.success) {
          save_scenario(sc, cli.get_string("out"));
          std::printf("scenario %zu fails under %s (%s); dumped to %s\n", k,
                      to_string(kind).c_str(),
                      result.failure_reason.c_str(),
                      cli.get_string("out").c_str());
          return analyze(sc);
        }
      }
      std::printf("no failing scenario found in %zu seeds\n", max_seeds);
      return 0;
    }
    std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
