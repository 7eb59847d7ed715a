// Experiment definitions for the evaluation framework — the reproduction's
// stand-in for the paper's GAST environment [19].
//
// One experiment = one workload/platform scenario family (GeneratorConfig)
// × one deadline-distribution technique × one WCET estimation strategy ×
// one scheduler configuration, evaluated over `generator.graph_count`
// independently seeded task graphs. The primary result is the success ratio
// (§4.2); secondary quality measures and algorithm diagnostics are
// aggregated alongside (SweepAggregate, sweep/aggregate.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dsslice/baselines/distribution_registry.hpp"
#include "dsslice/core/metrics.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/generator_config.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/sched/dispatch_scheduler.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"
#include "dsslice/sched/preemptive_scheduler.hpp"
#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/growth.hpp"

namespace dsslice {

struct ExperimentConfig {
  GeneratorConfig generator;
  DistributionTechnique technique = DistributionTechnique::kSlicingAdaptL;
  MetricParams metric_params;
  WcetEstimation wcet_strategy = WcetEstimation::kAverage;
  SchedulerOptions scheduler;
  /// Scheduling engine: the constructive list scheduler (paper baseline) or
  /// the on-line time-marching dispatcher. The dispatcher honours
  /// scheduler.abort_on_miss but ignores scheduler.placement.
  SchedulerAlgorithm algorithm = SchedulerAlgorithm::kListEdf;
  /// Display label; defaults to the technique name when empty.
  std::string label;

  std::string display_label() const;
};

/// Outcome of one task set (one generated graph) under one configuration.
struct GraphOutcome {
  bool scheduled = false;     ///< every task placed and no deadline missed
  double min_laxity = 0.0;    ///< min_i (d_i − c̄_i) after distribution
  double max_lateness = 0.0;  ///< only meaningful when the schedule completed
  bool lateness_valid = false;
  double makespan = 0.0;      ///< only for successful schedules
  std::size_t slicing_passes = 0;  ///< 0 for non-slicing techniques
  std::size_t task_count = 0;
};

/// Reusable per-worker scratch for batch evaluation. Passing one instance to
/// consecutive evaluate_* calls on the same thread keeps both the slicing
/// and the scheduling hot paths allocation-free: buffers (including the
/// scheduler result shells below) are recycled between scenarios and only
/// grow when a scenario exceeds every previous shape. Every entry point
/// below treats a null scratch as a fresh one for that call, so results
/// never depend on whether (or which) scratch is passed.
struct ScenarioScratch {
  SlicingWorkspace slicing;
  SchedulerWorkspace sched;
  SchedulerResult sched_result;
  PreemptiveResult pre_result;
  std::vector<double> mandatory_est;  // mandatory-demand estimate buffer
  std::vector<double> est;            // estimated-WCET buffer
  GrowthCounter est_growth;           // growths of the two estimate buffers

  /// Fills `est` with the WCET estimates of `app` under `strategy` and
  /// returns it.
  std::span<const double> estimate(const Application& app,
                                   WcetEstimation strategy);
};

/// Runs the configured deadline-distribution technique (slicing or direct)
/// over one scenario. When `slicing_passes` is non-null it receives the
/// slicer's pass count (0 for non-slicing techniques). The scalar
/// distribution of evaluate_generated, of distribute_arena_scenario without
/// the batch kernel and of evaluate_robust_scenario.
DeadlineAssignment distribute_for_config(const ExperimentConfig& config,
                                         const Application& app,
                                         const Platform& platform,
                                         std::span<const double> est_wcet,
                                         std::size_t* slicing_passes = nullptr,
                                         ScenarioScratch* scratch = nullptr);

/// Evaluates one already-generated scenario under the configuration (the
/// per-graph unit of work) — the consumer side of the batched sweep
/// pipeline (gen/scenario_batch.hpp produces, this evaluates). The scenario
/// of `seed` is generate_scenario(config.generator, seed).
GraphOutcome evaluate_generated(const ExperimentConfig& config,
                                const Scenario& scenario,
                                ScenarioScratch* scratch = nullptr);

/// Scheduling half of evaluate_generated: runs the configured scheduler over
/// an already-distributed scenario and assembles the outcome. The deadline
/// distribution's contributions (`min_laxity` over the original estimates,
/// the slicer's pass count) are passed in. evaluate_generated ≡
/// distribution + evaluate_scheduled; the batch sweep path computes the
/// distribution through BatchSliceKernel and joins back here.
GraphOutcome evaluate_scheduled(const ExperimentConfig& config,
                                const Scenario& scenario,
                                const DeadlineAssignment& assignment,
                                double pre_min_laxity,
                                std::size_t slicing_passes,
                                ScenarioScratch* scratch = nullptr);

}  // namespace dsslice
