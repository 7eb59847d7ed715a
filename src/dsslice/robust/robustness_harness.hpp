// Robustness evaluation harness (docs/ROBUSTNESS.md).
//
// Couples the batch experiment machinery (sim/) with run-time fault
// injection (robust/fault_model) and degraded-mode recovery
// (robust/recovery): each task set is sliced exactly as in the nominal
// experiments, then *dispatched* under a FaultSpec realization with a
// RecoveryPolicy reacting on-line. The primary outcome is the fraction of
// E-T-E deadlines met under faults; sweeping the fault intensity yields the
// breakdown overrun factor — the largest intensity a metric tolerates
// before its E-T-E miss ratio exceeds a threshold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsslice/robust/fault_model.hpp"
#include "dsslice/robust/recovery.hpp"
#include "dsslice/sim/experiment.hpp"
#include "dsslice/sim/sweeps.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {

struct RobustnessConfig {
  /// Workload family, distribution technique and WCET strategy. The
  /// dispatcher is always the on-line EdfDispatchScheduler with
  /// abort_on_miss disabled (a robustness run must observe every miss, not
  /// stop at the first); base.algorithm and base.scheduler.abort_on_miss
  /// are ignored.
  ExperimentConfig base;
  FaultSpec faults;
  RecoveryPolicy policy = RecoveryPolicy::kNone;

  /// Independent seed replicates averaged into every batch: the run covers
  /// graph_count × seed_replicates faulted task sets, replicate r drawing
  /// its workload and fault realizations from seeds derived off the base
  /// seeds with a replicate tag. 1 (the default) reproduces the original
  /// single-replicate batches bit-identically.
  std::size_t seed_replicates = 1;

  /// Display label; "<technique>/<policy>" when empty.
  std::string label;

  std::string display_label() const;
};

/// Outcome of dispatching one faulted task set.
struct RobustnessOutcome {
  std::size_t deadline_outputs = 0;  ///< outputs carrying an E-T-E deadline
  std::size_t ete_misses = 0;        ///< of those, finished late or never
  std::size_t slice_misses = 0;      ///< per-task window misses observed
  std::size_t killed = 0;            ///< tasks killed by processor failures
  std::size_t unfinished = 0;        ///< tasks never completed
  /// Imprecise-computation quality accounting (estimated-time units): total
  /// optional demand of the task set, and the optional work that actually
  /// ran (tasks completed at full precision get full credit; degraded or
  /// unfinished tasks get none).
  double optional_demand = 0.0;
  double optional_completed = 0.0;
  std::size_t degraded_completions = 0;  ///< tasks finished without optional
  RecoveryStats recovery;

  double ete_miss_ratio() const;

  /// Fraction of optional work completed — the imprecise-scheduling quality
  /// measure. 1 for fully precise task sets (no optional demand).
  double quality_ratio() const;
};

/// Aggregate over a batch of faulted task sets.
struct RobustnessResult {
  SuccessCounter ete_met;        ///< per-output E-T-E deadline success
  RunningStats graph_miss_ratio; ///< per-graph E-T-E miss ratio
  RunningStats slice_misses;     ///< per-graph window-miss count
  RunningStats quality;          ///< per-graph optional-completed ratio
  std::size_t killed = 0;
  std::size_t unfinished = 0;
  double optional_demand = 0.0;     ///< summed over the batch (est units)
  double optional_completed = 0.0;
  std::size_t degraded_completions = 0;
  RecoveryStats recovery;
  double wall_seconds = 0.0;

  void add(const RobustnessOutcome& outcome);

  /// One-line human-readable summary.
  std::string summary(const std::string& label) const;
};

/// The per-graph unit of work and the batches' scalar reference: generate
/// scenario `workload_seed`, distribute it through distribute_for_config
/// (run_slicing for slicing techniques), realize the fault spec under
/// `fault_seed`, dispatch with the configured recovery policy. Exposed for
/// tests and custom drivers.
RobustnessOutcome evaluate_robust_scenario(const RobustnessConfig& config,
                                           std::uint64_t workload_seed,
                                           std::uint64_t fault_seed);

/// Runs base.generator.graph_count faulted task sets per seed replicate on
/// the figure-row driver (sim/figure_rows.hpp: each task set generated once
/// into a worker's sweep arena, slicing techniques distributed by its batch
/// kernel) and folds the outcomes replicate by replicate in graph order, so
/// the result does not depend on the pool size. Graph k uses
/// derive_seed(generator.base_seed, k) for the workload (the scenario
/// run_experiment evaluates as graph k) and derive_seed(faults.seed, k) for
/// the fault realization; replicate r > 0 first derives both base seeds
/// with a replicate tag. Outcomes equal evaluate_robust_scenario's bit for
/// bit.
RobustnessResult run_robustness(const RobustnessConfig& config,
                                ThreadPool& pool);

/// Sweeps the execution-time overrun factor for every technique × policy
/// pair. Each series is named "<TECHNIQUE>/<policy>"; success_ratio is the
/// fraction of E-T-E deadlines met at that intensity (mean_min_laxity
/// carries the mean per-graph slice-miss count as a secondary measure).
/// Every cell equals run_robustness on its config; all cells run in one
/// figure-row call, so each task set is generated once per seed replicate,
/// and wall_seconds is that call's wall time.
SweepResult sweep_overrun_factor(const RobustnessConfig& base,
                                 const std::vector<DistributionTechnique>& techniques,
                                 const std::vector<RecoveryPolicy>& policies,
                                 const std::vector<double>& factors,
                                 ThreadPool& pool, bool verbose = false);

/// One series' breakdown factor.
struct BreakdownPoint {
  std::string series;
  /// Largest swept x whose E-T-E miss ratio stays within `miss_threshold`,
  /// linearly interpolated at the threshold crossing; clamped to the sweep
  /// range (first x when even the lowest intensity breaks, last x when the
  /// series never breaks).
  double factor = 0.0;
  bool broke = false;  ///< false when the series survived the whole sweep
};

/// Breakdown overrun factor per series of an overrun sweep.
std::vector<BreakdownPoint> breakdown_overrun_factors(
    const SweepResult& sweep, double miss_threshold);

/// Aligned table of breakdown points for bench output.
std::string format_breakdown_table(const std::vector<BreakdownPoint>& points,
                                   double miss_threshold);

/// One (overrun-factor × optional-fraction) point of a degradation surface.
struct DegradationCell {
  double overrun_factor = 0.0;
  double optional_fraction = 0.0;
  double success_ratio = 0.0;  ///< fraction of E-T-E deadlines met
  double ci95 = 0.0;
  double quality = 0.0;        ///< mean per-graph optional-completed ratio
  std::size_t shed_tasks = 0;
  std::size_t degraded_completions = 0;
};

/// One technique × policy series over the whole surface. Cells are stored
/// fraction-major: cells[fi * factors.size() + xi] is
/// (factors[xi], fractions[fi]).
struct DegradationSeries {
  std::string name;  ///< "<TECHNIQUE>/<policy>"
  std::vector<DegradationCell> cells;
};

/// Success-ratio + quality-ratio surface over breakdown-overrun-factor ×
/// optional-fraction (docs/ROBUSTNESS.md, "Graceful degradation").
struct DegradationSurface {
  std::vector<double> factors;    ///< overrun factors swept (x)
  std::vector<double> fractions;  ///< generator optional fractions swept (y)
  std::vector<DegradationSeries> series;
  std::size_t scenarios = 0;
  double wall_seconds = 0.0;
};

/// Sweeps overrun factor × optional fraction for every technique × policy
/// pair. Each fraction re-generates the workloads with
/// min_optional_fraction = max_optional_fraction = fraction (0 = the
/// precise baseline), so graph structure, WCETs and deadlines stay fixed
/// per seed while the sheddable share varies. Every cell equals
/// run_robustness on its config; all cells run in one figure-row call, so
/// each task set is generated once per (fraction, seed replicate), and
/// wall_seconds is that call's wall time.
DegradationSurface sweep_degradation(
    const RobustnessConfig& base,
    const std::vector<DistributionTechnique>& techniques,
    const std::vector<RecoveryPolicy>& policies,
    const std::vector<double>& factors, const std::vector<double>& fractions,
    ThreadPool& pool, bool verbose = false);

/// Projects one optional-fraction row of the surface onto a SweepResult
/// (series ordered as in the surface), so breakdown_overrun_factors and the
/// sweep plotting helpers apply unchanged.
SweepResult degradation_row_as_sweep(const DegradationSurface& surface,
                                     std::size_t fraction_index);

/// Aligned success/quality table of the whole surface for bench output.
std::string format_degradation_table(const DegradationSurface& surface);

}  // namespace dsslice
