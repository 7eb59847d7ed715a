#include "dsslice/sim/experiment.hpp"

#include <limits>

#include "dsslice/core/quality.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/obs/trace.hpp"

namespace dsslice {

std::string ExperimentConfig::display_label() const {
  return label.empty() ? to_string(technique) : label;
}

std::span<const double> ScenarioScratch::estimate(const Application& app,
                                                  WcetEstimation strategy) {
  est_growth.size(est, app.task_count());
  estimate_wcets_into(app, strategy, est);
  return est;
}

// A null scratch means a fresh ScenarioScratch for the call: each public
// entry point forwards to itself with a local one, so every engine below
// runs through run_into on one set of buffers.

DeadlineAssignment distribute_for_config(const ExperimentConfig& config,
                                         const Application& app,
                                         const Platform& platform,
                                         std::span<const double> est_wcet,
                                         std::size_t* slicing_passes,
                                         ScenarioScratch* scratch) {
  if (scratch == nullptr) {
    ScenarioScratch local;
    return distribute_for_config(config, app, platform, est_wcet,
                                 slicing_passes, &local);
  }
  if (slicing_passes != nullptr) {
    *slicing_passes = 0;
  }
  // Imprecise workloads plan against *mandatory* demand: each optional part
  // is recoverable slack a degraded-mode policy may reclaim at run time, so
  // baking it into the windows would double-book that time. Precise
  // workloads (no optional parts anywhere) skip the scaling entirely and
  // keep the estimate vector bit-identical.
  if (app.has_optional_work()) {
    scratch->est_growth.size(scratch->mandatory_est, app.task_count());
    mandatory_estimates_into(app, est_wcet, scratch->mandatory_est);
    est_wcet = scratch->mandatory_est;
  }
  if (is_slicing(config.technique)) {
    SlicingStats stats;
    const DeadlineMetric metric(metric_of(config.technique),
                                config.metric_params);
    SlicingOptions options;
    options.workspace = &scratch->slicing;
    DeadlineAssignment assignment = run_slicing(
        app, est_wcet, metric, platform.processor_count(), &stats, options);
    if (slicing_passes != nullptr) {
      *slicing_passes = stats.passes;
    }
    return assignment;
  }
  return distribute(config.technique, app, est_wcet, platform,
                    config.metric_params);
}

GraphOutcome evaluate_generated(const ExperimentConfig& config,
                                const Scenario& scenario,
                                ScenarioScratch* scratch) {
  if (scratch == nullptr) {
    ScenarioScratch local;
    return evaluate_generated(config, scenario, &local);
  }
  DSSLICE_SPAN("sim.scenario");
  const std::span<const double> est =
      scratch->estimate(scenario.application, config.wcet_strategy);
  std::size_t slicing_passes = 0;
  const DeadlineAssignment assignment =
      distribute_for_config(config, scenario.application, scenario.platform,
                            est, &slicing_passes, scratch);
  return evaluate_scheduled(config, scenario, assignment,
                            min_laxity(assignment, est), slicing_passes,
                            scratch);
}

GraphOutcome evaluate_scheduled(const ExperimentConfig& config,
                                const Scenario& scenario,
                                const DeadlineAssignment& assignment,
                                double pre_min_laxity,
                                std::size_t slicing_passes,
                                ScenarioScratch* scratch) {
  if (scratch == nullptr) {
    ScenarioScratch local;
    return evaluate_scheduled(config, scenario, assignment, pre_min_laxity,
                              slicing_passes, &local);
  }
  const Application& app = scenario.application;
  const Platform& platform = scenario.platform;

  GraphOutcome outcome;
  outcome.task_count = app.task_count();
  outcome.slicing_passes = slicing_passes;
  outcome.min_laxity = pre_min_laxity;

  if (config.algorithm == SchedulerAlgorithm::kPreemptiveEdf) {
    // The preemptive simulator has its own trace-based result shape.
    PreemptiveOptions options;
    options.abort_on_miss = config.scheduler.abort_on_miss;
    PreemptiveResult& pre = scratch->pre_result;
    PreemptiveEdfScheduler(options).run_into(pre, scratch->sched, app,
                                             assignment, platform);
    outcome.scheduled = pre.success;
    if (pre.success || !config.scheduler.abort_on_miss) {
      double worst = -std::numeric_limits<double>::infinity();
      Time makespan = kTimeZero;
      for (NodeId v = 0; v < app.task_count(); ++v) {
        worst = std::max(worst,
                         pre.completion[v] - assignment.windows[v].deadline);
        makespan = std::max(makespan, pre.completion[v]);
      }
      outcome.max_lateness = worst;
      outcome.lateness_valid = true;
      if (pre.success) {
        outcome.makespan = makespan;
      }
    }
    return outcome;
  }

  SchedulerResult& sched = scratch->sched_result;
  if (config.algorithm == SchedulerAlgorithm::kDispatchEdf) {
    DispatchOptions options;
    options.abort_on_miss = config.scheduler.abort_on_miss;
    EdfDispatchScheduler(options).run_into(sched, scratch->sched, app,
                                           assignment, platform);
  } else {
    EdfListScheduler(config.scheduler)
        .run_into(sched, scratch->sched, app, assignment, platform);
  }
  outcome.scheduled = sched.success;
  if (sched.schedule.complete()) {
    outcome.max_lateness = max_lateness(sched.schedule, assignment);
    outcome.lateness_valid = true;
  }
  if (sched.success) {
    outcome.makespan = sched.schedule.makespan();
  }
  return outcome;
}

}  // namespace dsslice
