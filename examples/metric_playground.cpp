// Interactive-ish explorer for the paper's experiment space: generate one
// random scenario from the paper's workload model (all knobs exposed as
// flags), run every distribution technique on it, and inspect the outcome —
// including the task graph in Graphviz DOT form if requested.
#include <cstdio>

#include "dsslice/dsslice.hpp"

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli("metric_playground",
                "explore one random scenario under every technique");
  cli.add_flag("processors", "3", "system size m");
  cli.add_flag("olr", "0.8", "overall laxity ratio");
  cli.add_flag("etd", "0.25", "execution time distribution (0..1)");
  cli.add_flag("ccr", "0.1", "communication-to-computation ratio");
  cli.add_flag("seed", "1", "scenario seed");
  cli.add_flag("wcet", "avg", "WCET estimation: avg|max|min");
  cli.add_bool_flag("dot", "print the task graph in Graphviz DOT form");
  cli.add_bool_flag("gantt", "print the ADAPT-L schedule as a Gantt chart");
  cli.add_bool_flag("trace", "print the ADAPT-L slicing decision trace");
  cli.add_bool_flag("diagnose",
                    "diagnose the first failing technique's deadline miss");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  GeneratorConfig gen;
  gen.platform.processor_count = cli.get_count("processors");
  gen.workload.olr = cli.get_double("olr");
  gen.workload.etd = cli.get_double("etd");
  gen.workload.ccr = cli.get_double("ccr");
  const Scenario sc =
      generate_scenario(gen, static_cast<std::uint64_t>(cli.get_int("seed")));
  const Application& app = sc.application;
  const Platform& platform = sc.platform;

  WcetEstimation strategy = WcetEstimation::kAverage;
  if (cli.get_string("wcet") == "max") {
    strategy = WcetEstimation::kMax;
  } else if (cli.get_string("wcet") == "min") {
    strategy = WcetEstimation::kMin;
  }
  const auto est = estimate_wcets(app, strategy);

  std::printf("scenario: %zu tasks, %zu arcs, depth %zu, parallelism %.2f\n",
              app.task_count(), app.graph().arc_count(),
              graph_depth(app.graph()),
              average_parallelism(app.graph(), est));
  std::printf("platform: m=%zu, %zu classes, %s; E-T-E deadline %.0f "
              "(%s estimates)\n\n",
              platform.processor_count(), platform.class_count(),
              platform.network().name().c_str(),
              app.ete_deadline(app.graph().output_nodes().front()),
              to_string(strategy).c_str());

  if (cli.get_bool("dot")) {
    DotOptions options;
    options.node_label = [&](NodeId v) {
      return app.task(v).name + "\\n" + format_fixed(est[v], 0);
    };
    std::fputs(to_dot(app.graph(), options).c_str(), stdout);
    std::fputs("\n", stdout);
  }

  Table table({"technique", "schedulable", "min laxity", "max lateness",
               "slicing passes"});
  for (const DistributionTechnique t : all_distribution_techniques()) {
    SlicingStats stats;
    DeadlineAssignment windows;
    if (is_slicing(t)) {
      windows = run_slicing(app, est, DeadlineMetric(metric_of(t)),
                            platform.processor_count(), &stats);
    } else {
      windows = distribute(t, app, est, platform);
    }
    SchedulerOptions options;
    options.abort_on_miss = false;
    const auto result = EdfListScheduler(options).run(app, windows, platform);
    const QualityReport q = assess_quality(windows, est, result.schedule);
    table.add_row({to_string(t), q.all_deadlines_met ? "yes" : "no",
                   format_fixed(q.min_laxity, 1),
                   format_fixed(q.max_lateness, 1),
                   is_slicing(t) ? std::to_string(stats.passes) : "-"});
  }
  std::fputs(table.to_string().c_str(), stdout);

  if (cli.get_bool("trace")) {
    SlicingTrace trace;
    SlicingOptions options;
    options.trace = &trace;
    (void)run_slicing(app, est, DeadlineMetric(MetricKind::kAdaptL),
                      platform.processor_count(), nullptr, options);
    std::printf("\nADAPT-L slicing trace:\n%s", trace.to_string(app).c_str());
  }

  if (cli.get_bool("diagnose")) {
    for (const DistributionTechnique t : all_distribution_techniques()) {
      const auto windows = distribute(t, app, est, platform);
      const auto result = EdfListScheduler().run(app, windows, platform);
      if (!result.success && result.failed_task.has_value()) {
        const MissDiagnosis d =
            diagnose_failure(app, platform, windows, result);
        std::printf("\n%s fails — [%s] %s\n", to_string(t).c_str(),
                    to_string(d.cause).c_str(), d.summary.c_str());
        break;
      }
    }
  }

  if (cli.get_bool("gantt")) {
    const auto windows = run_slicing(app, est,
                                     DeadlineMetric(MetricKind::kAdaptL),
                                     platform.processor_count());
    const auto result = EdfListScheduler().run(app, windows, platform);
    if (result.success) {
      std::printf("\nADAPT-L schedule:\n%s",
                  result.schedule.to_gantt(72).c_str());
    } else {
      std::printf("\nADAPT-L could not schedule this scenario: %s\n",
                  result.failure_reason.c_str());
    }
  }
  return 0;
}
