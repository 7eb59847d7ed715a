// Parameter sweeps: the shape behind every figure in the paper.
//
// A sweep evaluates a family of experiment configurations over a shared
// x-axis (system size, OLR, ETD, ...) producing one success-ratio series
// per configuration family — exactly the data behind Figs. 2–6.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sim/runner.hpp"

namespace dsslice {

struct Series {
  std::string name;
  std::vector<double> success_ratio;   // one entry per x value
  std::vector<double> ci95;            // Wald 95% half-width per point
  std::vector<double> mean_min_laxity; // secondary measure per point
};

struct SweepResult {
  std::string x_label;
  std::vector<double> x;
  std::vector<Series> series;
  /// Aggregate throughput bookkeeping: scenario evaluations summed over
  /// every cell, and the wall time of the whole sweep. Filled by run_sweep
  /// (and the robustness sweep); benches report scenarios/sec.
  std::size_t scenarios = 0;
  double wall_seconds = 0.0;

  /// Series lookup by name; throws when absent.
  const Series& find(const std::string& name) const;

  /// Evaluated scenarios per second of sweep wall time (0 when unknown).
  double scenarios_per_second() const;
};

/// Builds an experiment configuration for one (x, series) cell.
using ConfigFactory = std::function<ExperimentConfig(double x)>;

struct SeriesSpec {
  std::string name;
  ConfigFactory factory;
};

/// Evaluates |xs| × |specs| (series, x) cells on the pool. Every cell's
/// config is built and validated up front on the calling thread (the
/// factories are never called concurrently), then all cells run through the
/// figure-row driver (sim/figure_rows.hpp): cells with exactly equal
/// GeneratorConfigs share one generated scenario stream. Each cell's
/// aggregate is bit-identical to run_experiment(cell config) at any pool
/// size.
SweepResult run_sweep(const std::string& x_label, std::vector<double> xs,
                      const std::vector<SeriesSpec>& specs, ThreadPool& pool,
                      bool verbose = false);

// ---------------------------------------------------------------------
// Pre-packaged sweeps matching the paper's figures. Each takes the shared
// defaults (graph count, base seed) via `base` and applies the figure's
// sweep on top.
// ---------------------------------------------------------------------

/// Fig. 2: success ratio vs system size (m = sizes[i]) per metric.
SweepResult sweep_system_size(const ExperimentConfig& base,
                              const std::vector<std::size_t>& sizes,
                              ThreadPool& pool, bool verbose = false);

/// Fig. 3: success ratio vs OLR per metric (fixed system size).
SweepResult sweep_olr(const ExperimentConfig& base,
                      const std::vector<double>& olrs, ThreadPool& pool,
                      bool verbose = false);

/// Fig. 4: success ratio vs ETD per metric (fixed system size and OLR).
SweepResult sweep_etd(const ExperimentConfig& base,
                      const std::vector<double>& etds, ThreadPool& pool,
                      bool verbose = false);

/// Fig. 5: ADAPT-L success ratio vs OLR per WCET estimation strategy.
SweepResult sweep_wcet_olr(const ExperimentConfig& base,
                           const std::vector<double>& olrs, ThreadPool& pool,
                           bool verbose = false);

/// Fig. 6: ADAPT-L success ratio vs ETD per WCET estimation strategy.
SweepResult sweep_wcet_etd(const ExperimentConfig& base,
                           const std::vector<double>& etds, ThreadPool& pool,
                           bool verbose = false);

/// The four paper metrics as series specs over a shared base config.
std::vector<SeriesSpec> metric_series(const ExperimentConfig& base);

/// The three WCET strategies as series specs over a shared base config.
std::vector<SeriesSpec> wcet_series(const ExperimentConfig& base);

}  // namespace dsslice
