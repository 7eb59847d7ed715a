#include "dsslice/robust/robustness_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/rng.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/sim/figure_rows.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

std::string RobustnessConfig::display_label() const {
  if (!label.empty()) {
    return label;
  }
  return base.display_label() + "/" + to_string(policy);
}

double RobustnessOutcome::ete_miss_ratio() const {
  return deadline_outputs == 0
             ? 0.0
             : static_cast<double>(ete_misses) /
                   static_cast<double>(deadline_outputs);
}

double RobustnessOutcome::quality_ratio() const {
  return optional_demand > 0.0 ? optional_completed / optional_demand : 1.0;
}

void RobustnessResult::add(const RobustnessOutcome& outcome) {
  ete_met.add_many(
      static_cast<std::uint64_t>(outcome.deadline_outputs - outcome.ete_misses),
      static_cast<std::uint64_t>(outcome.deadline_outputs));
  graph_miss_ratio.add(outcome.ete_miss_ratio());
  slice_misses.add(static_cast<double>(outcome.slice_misses));
  quality.add(outcome.quality_ratio());
  killed += outcome.killed;
  unfinished += outcome.unfinished;
  optional_demand += outcome.optional_demand;
  optional_completed += outcome.optional_completed;
  degraded_completions += outcome.degraded_completions;
  recovery.merge(outcome.recovery);
}

std::string RobustnessResult::summary(const std::string& label) const {
  std::ostringstream os;
  os << pad_right(label, 24) << " ete-met "
     << pad_left(format_percent(ete_met.ratio(), 1), 7) << "  slice-misses "
     << format_fixed(slice_misses.mean(), 2);
  if (killed > 0 || unfinished > 0) {
    os << "  killed " << killed << "  unfinished " << unfinished;
  }
  if (recovery.reslices > 0 || recovery.migrations > 0) {
    os << "  reslices " << recovery.reslices << "  migrations "
       << recovery.migrations;
  }
  if (optional_demand > 0.0) {
    os << "  quality " << format_percent(quality.mean(), 1) << "  shed "
       << recovery.shed;
  }
  return os.str();
}

namespace {

/// Tag mixed into the base seeds of replicate r > 0, so every replicate
/// draws an independent workload + fault stream while replicate 0 keeps the
/// original single-replicate seeds bit-identically.
constexpr std::uint64_t kReplicateTag = 0x5EED'0DE6'4ADEULL;

std::uint64_t replicate_base(std::uint64_t base, std::size_t replicate) {
  return replicate == 0 ? base : derive_seed(base, kReplicateTag + replicate);
}

/// Realizes the fault spec under `fault_seed`, dispatches the distributed
/// scenario with the configured recovery policy and scores the run.
RobustnessOutcome dispatch_faulted(const RobustnessConfig& config,
                                   const Scenario& scenario,
                                   const DeadlineAssignment& assignment,
                                   std::span<const double> est,
                                   std::uint64_t fault_seed,
                                   ScenarioScratch& scratch) {
  const Application& app = scenario.application;
  const Platform& platform = scenario.platform;

  FaultSpec spec = config.faults;
  spec.seed = fault_seed;
  const FaultTrace trace = FaultModel(spec).instantiate(app, platform);

  RecoveryEngine engine(config.policy, app,
                        std::vector<double>(est.begin(), est.end()));
  DispatchTelemetry telemetry;
  DispatchOptions options;
  options.abort_on_miss = false;
  const EdfDispatchScheduler scheduler(options);
  scheduler.run_into(scratch.sched_result, scratch.sched, app, assignment,
                     platform, &trace.conditions, &engine, &telemetry);

  RobustnessOutcome outcome;
  for (NodeId v = 0; v < app.task_count(); ++v) {
    if (!app.has_ete_deadline(v)) {
      continue;
    }
    ++outcome.deadline_outputs;
    if (telemetry.completion[v] > app.ete_deadline(v) + kTimeTolerance) {
      ++outcome.ete_misses;  // finished late, or never (completion = ∞)
    }
  }
  outcome.slice_misses = telemetry.misses.size();
  outcome.killed = telemetry.killed.size();
  outcome.unfinished = telemetry.unfinished.size();
  outcome.degraded_completions = telemetry.degraded.size();
  outcome.recovery = engine.stats();

  // Quality accounting (imprecise-computation measure): a task that
  // completed at full precision earns its whole optional part; a degraded
  // or never-finished task earns nothing for it.
  if (app.has_optional_work()) {
    std::vector<char> degraded(app.task_count(), 0);
    for (const NodeId v : telemetry.degraded) {
      degraded[v] = 1;
    }
    for (NodeId v = 0; v < app.task_count(); ++v) {
      const double f = app.task(v).optional_fraction;
      if (f <= 0.0) {
        continue;
      }
      const double opt = est[v] * f;
      outcome.optional_demand += opt;
      const bool completed = telemetry.completion[v] < kTimeInfinity;
      if (completed && degraded[v] == 0) {
        outcome.optional_completed += opt;
      }
    }
  }
  return outcome;
}

/// Runs every config's faulted batch in one figure-row call
/// (sim/figure_rows.hpp). Config i becomes seed_replicates cells: replicate
/// r draws workload stream replicate_base(base_seed, r) and, for graph k,
/// fault seed derive_seed(replicate_base(faults.seed, r), k); its cells fold
/// replicate-major into results[i]. Cells that draw the same workload
/// stream share its generated task sets. Every config must have the same
/// seed_replicates; every result carries the whole call's wall time.
std::vector<RobustnessResult> run_robustness_cells(
    const std::vector<RobustnessConfig>& configs, ThreadPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t replicates =
      configs.empty() ? 1 : configs.front().seed_replicates;
  std::vector<RobustnessConfig> cells;
  std::vector<GeneratorConfig> streams;
  for (const RobustnessConfig& config : configs) {
    config.base.generator.validate();
    config.faults.validate();
    DSSLICE_REQUIRE(config.seed_replicates >= 1, "need >= 1 seed replicate");
    DSSLICE_CHECK(config.seed_replicates == replicates,
                  "robustness cells need equal seed replicates");
    for (std::size_t r = 0; r < replicates; ++r) {
      RobustnessConfig cell = config;
      cell.base.generator.base_seed =
          replicate_base(config.base.generator.base_seed, r);
      cell.faults.seed = replicate_base(config.faults.seed, r);
      streams.push_back(cell.base.generator);
      cells.push_back(std::move(cell));
    }
  }

  std::vector<RobustnessResult> results =
      detail::run_figure_rows<RobustnessResult>(
          streams, replicates, pool, [&](std::size_t cell, std::size_t k) {
            const RobustnessConfig& config = cells[cell];
            const ArenaDistribution arena =
                distribute_arena_scenario(config.base);
            // The batch kernel route hands out no estimates.
            const std::span<const double> est =
                arena.est.empty()
                    ? arena.scratch.estimate(arena.scenario.application,
                                             config.base.wcet_strategy)
                    : arena.est;
            return dispatch_faulted(config, arena.scenario, arena.assignment,
                                    est, derive_seed(config.faults.seed, k),
                                    arena.scratch);
          });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  for (RobustnessResult& result : results) {
    result.wall_seconds = wall;
  }
  return results;
}

/// Runs the technique × policy × fraction × factor grid over `base` as one
/// batch, results in that order. An empty `fractions` keeps base's optional
/// fractions. Otherwise each fraction fixes the per-task split (the
/// generator draws uniform(f, f) = f), so structure, WCETs and deadlines
/// stay identical per seed while the sheddable share varies.
std::vector<RobustnessResult> run_grid(
    const RobustnessConfig& base,
    const std::vector<DistributionTechnique>& techniques,
    const std::vector<RecoveryPolicy>& policies,
    const std::vector<double>& fractions, const std::vector<double>& factors,
    ThreadPool& pool, bool verbose) {
  std::vector<RobustnessConfig> configs;
  std::vector<std::string> labels;
  for (const DistributionTechnique technique : techniques) {
    for (const RecoveryPolicy policy : policies) {
      RobustnessConfig config = base;
      config.base.technique = technique;
      config.base.label.clear();
      config.policy = policy;
      const std::string name = to_string(technique) + "/" + to_string(policy);
      for (std::size_t fi = 0; fi < std::max<std::size_t>(1, fractions.size());
           ++fi) {
        std::string row = name;
        if (!fractions.empty()) {
          config.base.generator.workload.min_optional_fraction = fractions[fi];
          config.base.generator.workload.max_optional_fraction = fractions[fi];
          row += " f=" + format_fixed(fractions[fi], 2);
        }
        for (const double factor : factors) {
          config.faults.overrun_factor = factor;
          configs.push_back(config);
          labels.push_back(row + " x=" + format_fixed(factor, 2));
        }
      }
    }
  }
  const std::vector<RobustnessResult> results =
      run_robustness_cells(configs, pool);
  for (std::size_t i = 0; verbose && i < results.size(); ++i) {
    std::fputs((results[i].summary(labels[i]) + "\n").c_str(), stderr);
  }
  return results;
}

}  // namespace

RobustnessOutcome evaluate_robust_scenario(const RobustnessConfig& config,
                                           std::uint64_t workload_seed,
                                           std::uint64_t fault_seed) {
  const Scenario scenario =
      generate_scenario(config.base.generator, workload_seed);
  ScenarioScratch scratch;
  const std::span<const double> est =
      scratch.estimate(scenario.application, config.base.wcet_strategy);
  const DeadlineAssignment assignment =
      distribute_for_config(config.base, scenario.application,
                            scenario.platform, est, nullptr, &scratch);
  return dispatch_faulted(config, scenario, assignment, est, fault_seed,
                          scratch);
}

RobustnessResult run_robustness(const RobustnessConfig& config,
                                ThreadPool& pool) {
  return run_robustness_cells({config}, pool).front();
}

SweepResult sweep_overrun_factor(
    const RobustnessConfig& base,
    const std::vector<DistributionTechnique>& techniques,
    const std::vector<RecoveryPolicy>& policies,
    const std::vector<double>& factors, ThreadPool& pool, bool verbose) {
  const std::vector<RobustnessResult> results =
      run_grid(base, techniques, policies, {}, factors, pool, verbose);
  SweepResult sweep;
  sweep.x_label = "overrun-factor";
  sweep.x = factors;
  sweep.scenarios = results.size() * base.base.generator.graph_count *
                    base.seed_replicates;
  sweep.wall_seconds = results.empty() ? 0.0 : results.front().wall_seconds;
  auto result = results.begin();
  for (const DistributionTechnique technique : techniques) {
    for (const RecoveryPolicy policy : policies) {
      Series series;
      series.name = to_string(technique) + "/" + to_string(policy);
      for (std::size_t xi = 0; xi < factors.size(); ++xi, ++result) {
        series.success_ratio.push_back(result->ete_met.ratio());
        series.ci95.push_back(result->ete_met.ci95_halfwidth());
        series.mean_min_laxity.push_back(result->slice_misses.mean());
      }
      sweep.series.push_back(std::move(series));
    }
  }
  return sweep;
}

std::vector<BreakdownPoint> breakdown_overrun_factors(const SweepResult& sweep,
                                                      double miss_threshold) {
  DSSLICE_REQUIRE(miss_threshold >= 0.0 && miss_threshold <= 1.0,
                  "miss_threshold must be in [0, 1]");
  std::vector<BreakdownPoint> points;
  for (const Series& series : sweep.series) {
    DSSLICE_CHECK(series.success_ratio.size() == sweep.x.size(),
                  "series/x size mismatch");
    BreakdownPoint point;
    point.series = series.name;
    point.factor = sweep.x.empty() ? 0.0 : sweep.x.back();
    for (std::size_t i = 0; i < sweep.x.size(); ++i) {
      const double miss = 1.0 - series.success_ratio[i];
      if (miss <= miss_threshold + kTimeTolerance) {
        point.factor = sweep.x[i];
        continue;
      }
      point.broke = true;
      if (i == 0) {
        point.factor = sweep.x[0];
        break;
      }
      // Interpolate the crossing between grid points i-1 (within) and i.
      const double prev_miss = 1.0 - series.success_ratio[i - 1];
      const double span = miss - prev_miss;
      const double t =
          span > kTimeTolerance ? (miss_threshold - prev_miss) / span : 0.0;
      point.factor = sweep.x[i - 1] + t * (sweep.x[i] - sweep.x[i - 1]);
      break;
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::string format_breakdown_table(const std::vector<BreakdownPoint>& points,
                                   double miss_threshold) {
  std::ostringstream os;
  os << "breakdown overrun factor (E-T-E miss ratio > "
     << format_percent(miss_threshold, 0) << ")\n";
  for (const BreakdownPoint& point : points) {
    os << "  " << pad_right(point.series, 28) << " "
       << format_fixed(point.factor, 3)
       << (point.broke ? "" : "  (never broke in sweep range)") << "\n";
  }
  return os.str();
}

DegradationSurface sweep_degradation(
    const RobustnessConfig& base,
    const std::vector<DistributionTechnique>& techniques,
    const std::vector<RecoveryPolicy>& policies,
    const std::vector<double>& factors, const std::vector<double>& fractions,
    ThreadPool& pool, bool verbose) {
  const std::vector<RobustnessResult> results =
      run_grid(base, techniques, policies, fractions, factors, pool, verbose);
  DegradationSurface surface;
  surface.factors = factors;
  surface.fractions = fractions;
  surface.scenarios = results.size() * base.base.generator.graph_count *
                      base.seed_replicates;
  surface.wall_seconds = results.empty() ? 0.0 : results.front().wall_seconds;
  auto result = results.begin();
  for (const DistributionTechnique technique : techniques) {
    for (const RecoveryPolicy policy : policies) {
      DegradationSeries series;
      series.name = to_string(technique) + "/" + to_string(policy);
      for (const double fraction : fractions) {
        for (const double factor : factors) {
          DegradationCell& cell = series.cells.emplace_back();
          cell.overrun_factor = factor;
          cell.optional_fraction = fraction;
          cell.success_ratio = result->ete_met.ratio();
          cell.ci95 = result->ete_met.ci95_halfwidth();
          cell.quality = result->quality.mean();
          cell.shed_tasks = result->recovery.shed;
          cell.degraded_completions = result->degraded_completions;
          ++result;
        }
      }
      surface.series.push_back(std::move(series));
    }
  }
  return surface;
}

SweepResult degradation_row_as_sweep(const DegradationSurface& surface,
                                     std::size_t fraction_index) {
  DSSLICE_REQUIRE(fraction_index < surface.fractions.size(),
                  "fraction index out of range");
  SweepResult sweep;
  sweep.x_label = "overrun-factor";
  sweep.x = surface.factors;
  const std::size_t stride = surface.factors.size();
  for (const DegradationSeries& series : surface.series) {
    DSSLICE_CHECK(series.cells.size() == stride * surface.fractions.size(),
                  "degradation surface shape mismatch");
    Series row;
    row.name = series.name;
    for (std::size_t xi = 0; xi < stride; ++xi) {
      const DegradationCell& cell = series.cells[fraction_index * stride + xi];
      row.success_ratio.push_back(cell.success_ratio);
      row.ci95.push_back(cell.ci95);
      row.mean_min_laxity.push_back(cell.quality);
    }
    sweep.series.push_back(std::move(row));
  }
  return sweep;
}

std::string format_degradation_table(const DegradationSurface& surface) {
  std::ostringstream os;
  os << "degradation surface: E-T-E success (quality) per overrun factor\n";
  for (const DegradationSeries& series : surface.series) {
    os << series.name << "\n";
    const std::size_t stride = surface.factors.size();
    std::ostringstream head;
    head << "  " << pad_right("opt-frac \\ x", 14);
    for (const double factor : surface.factors) {
      head << pad_left(format_fixed(factor, 2), 18);
    }
    os << head.str() << "\n";
    for (std::size_t fi = 0; fi < surface.fractions.size(); ++fi) {
      os << "  " << pad_right(format_fixed(surface.fractions[fi], 2), 14);
      for (std::size_t xi = 0; xi < stride; ++xi) {
        const DegradationCell& cell = series.cells[fi * stride + xi];
        os << pad_left(format_percent(cell.success_ratio, 1) + " (" +
                           format_percent(cell.quality, 0) + ")",
                       18);
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace dsslice
