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

DeadlineAssignment distribute_for_config(const ExperimentConfig& config,
                                         const Application& app,
                                         const Platform& platform,
                                         std::span<const double> est_wcet,
                                         std::size_t* slicing_passes,
                                         ScenarioScratch* scratch) {
  if (slicing_passes != nullptr) {
    *slicing_passes = 0;
  }
  // Imprecise workloads plan against *mandatory* demand: each optional part
  // is recoverable slack a degraded-mode policy may reclaim at run time, so
  // baking it into the windows would double-book that time. Precise
  // workloads (no optional parts anywhere) skip the scaling entirely and
  // keep the estimate vector bit-identical.
  if (app.has_optional_work()) {
    if (scratch != nullptr) {
      mandatory_estimates_into(app, est_wcet, scratch->mandatory_est);
      est_wcet = scratch->mandatory_est;
    } else {
      thread_local std::vector<double> buffer;
      mandatory_estimates_into(app, est_wcet, buffer);
      est_wcet = buffer;
    }
  }
  if (is_slicing(config.technique)) {
    SlicingStats stats;
    const DeadlineMetric metric(metric_of(config.technique),
                                config.metric_params);
    SlicingOptions options;
    if (scratch != nullptr) {
      options.workspace = &scratch->slicing;
    }
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

GraphOutcome evaluate_scenario(const ExperimentConfig& config,
                               std::uint64_t seed, ScenarioScratch* scratch) {
  const Scenario scenario = generate_scenario(config.generator, seed);
  return evaluate_generated(config, scenario, scratch);
}

GraphOutcome evaluate_generated(const ExperimentConfig& config,
                                const Scenario& scenario,
                                ScenarioScratch* scratch) {
  DSSLICE_SPAN("sim.scenario");
  const Application& app = scenario.application;
  const Platform& platform = scenario.platform;

  std::vector<double> local_est;
  std::vector<double>& est_buf =
      scratch != nullptr ? scratch->est : local_est;
  estimate_wcets_into(app, config.wcet_strategy, est_buf);
  std::span<const double> est = est_buf;

  std::size_t slicing_passes = 0;
  const DeadlineAssignment assignment = distribute_for_config(
      config, app, platform, est, &slicing_passes, scratch);
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
    const PreemptiveEdfScheduler scheduler(options);
    PreemptiveResult local_pre;
    PreemptiveResult& pre = scratch != nullptr ? scratch->pre_result : local_pre;
    if (scratch != nullptr) {
      scheduler.run_into(pre, scratch->sched, app, assignment, platform);
    } else {
      pre = scheduler.run(app, assignment, platform);
    }
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

  SchedulerResult local_sched;
  SchedulerResult& sched =
      scratch != nullptr ? scratch->sched_result : local_sched;
  if (config.algorithm == SchedulerAlgorithm::kDispatchEdf) {
    DispatchOptions options;
    options.abort_on_miss = config.scheduler.abort_on_miss;
    const EdfDispatchScheduler scheduler(options);
    if (scratch != nullptr) {
      scheduler.run_into(sched, scratch->sched, app, assignment, platform);
    } else {
      sched = scheduler.run(app, assignment, platform);
    }
  } else {
    const EdfListScheduler scheduler(config.scheduler);
    if (scratch != nullptr) {
      scheduler.run_into(sched, scratch->sched, app, assignment, platform);
    } else {
      sched = scheduler.run(app, assignment, platform);
    }
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
