// experiment_runner: the GAST-style batch evaluator as a command-line tool.
// Runs one experiment configuration (any technique × scheduler × workload
// knobs) over a seeded batch and prints the aggregate — the building block
// every figure bench composes, exposed directly.
//
//   experiment_runner --technique adapt-l --processors 3 --olr 0.8
//   experiment_runner --technique kao-eqf --graphs 4096 --etd 0.5
//   experiment_runner --technique adapt-l --algorithm dispatch --csv out.csv
#include <chrono>
#include <cstdio>

#include "dsslice/dsslice.hpp"

namespace {

using namespace dsslice;

DistributionTechnique parse_technique(const std::string& name) {
  for (const DistributionTechnique t : all_distribution_techniques()) {
    std::string tag = to_string(t);
    for (char& c : tag) {
      c = (c == '/') ? '-' : static_cast<char>(std::tolower(c));
    }
    // Accept both "slice-adapt-l" and the shorthand "adapt-l".
    if (tag == name || tag == "slice-" + name) {
      return t;
    }
  }
  throw ConfigError("unknown technique: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("experiment_runner",
                "run one deadline-distribution experiment batch");
  cli.add_flag("technique", "adapt-l",
               "pure|norm|adapt-g|adapt-l|kao-ud|kao-ed|kao-eqs|kao-eqf|"
               "bettati-liu|iterative");
  cli.add_flag("wcet", "avg", "WCET estimation: avg|max|min");
  cli.add_flag("algorithm", "list", "scheduler: list|dispatch");
  cli.add_flag("placement", "append", "list placement: append|insertion");
  cli.add_flag("processors", "3", "system size m");
  cli.add_flag("olr", "0.8", "overall laxity ratio");
  cli.add_flag("etd", "0.25", "execution time distribution");
  cli.add_flag("ccr", "0.1", "communication-to-computation ratio");
  cli.add_flag("graphs", "1024", "task graphs in the batch");
  cli.add_flag("seed", "20250707", "base seed");
  cli.add_flag("k-global", "1.5", "ADAPT-G adaptivity factor");
  cli.add_flag("k-local", "0.2", "ADAPT-L adaptivity factor");
  cli.add_bool_flag("bus-contention", "simulate shared-bus contention");
  cli.add_bool_flag("lateness", "run to completion and report lateness");
  obs::ObsCli::register_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  obs::ObsCli obs_session(cli);

  try {
    ExperimentConfig config;
    config.technique = parse_technique(cli.get_string("technique"));
    config.generator.platform.processor_count = cli.get_count("processors");
    config.generator.workload.olr = cli.get_double("olr");
    config.generator.workload.etd = cli.get_double("etd");
    config.generator.workload.ccr = cli.get_double("ccr");
    config.generator.graph_count = cli.get_count("graphs");
    config.generator.base_seed =
        static_cast<std::uint64_t>(cli.get_int("seed"));
    config.metric_params.k_global = cli.get_double("k-global");
    config.metric_params.k_local = cli.get_double("k-local");
    if (cli.get_string("wcet") == "max") {
      config.wcet_strategy = WcetEstimation::kMax;
    } else if (cli.get_string("wcet") == "min") {
      config.wcet_strategy = WcetEstimation::kMin;
    }
    if (cli.get_string("algorithm") == "dispatch") {
      config.algorithm = SchedulerAlgorithm::kDispatchEdf;
    }
    if (cli.get_string("placement") == "insertion") {
      config.scheduler.placement = PlacementPolicy::kInsertion;
    }
    config.scheduler.simulate_bus_contention =
        cli.get_bool("bus-contention");
    config.scheduler.abort_on_miss = !cli.get_bool("lateness");

    // One experiment is one sweep shard, evaluated on the calling thread.
    const auto t0 = std::chrono::steady_clock::now();
    const SweepAggregate result = run_experiment(config);
    const double wall_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();

    std::printf("%s\n", result.summary(config.display_label()).c_str());
    std::printf("  graphs           %llu\n",
                static_cast<unsigned long long>(result.success.trials()));
    std::printf("  success ratio    %s ±%s\n",
                format_percent(result.success_ratio(), 2).c_str(),
                format_percent(result.success.ci95_halfwidth(), 2).c_str());
    std::printf("  mean min laxity  %s\n",
                format_fixed(result.min_laxity.mean(), 2).c_str());
    if (result.max_lateness.count() > 0) {
      std::printf("  mean max lateness %s over %zu complete schedules\n",
                  format_fixed(result.max_lateness.mean(), 2).c_str(),
                  result.max_lateness.count());
    }
    if (result.makespan.count() > 0) {
      std::printf("  mean makespan    %s (successful schedules)\n",
                  format_fixed(result.makespan.mean(), 1).c_str());
    }
    std::printf("  mean tasks/graph %s, slicing passes %s\n",
                format_fixed(result.task_count.mean(), 1).c_str(),
                format_fixed(result.slicing_passes.mean(), 1).c_str());
    std::printf("  wall time        %ss\n",
                format_fixed(wall_seconds, 2).c_str());
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
