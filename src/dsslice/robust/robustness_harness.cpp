#include "dsslice/robust/robustness_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/rng.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

namespace {

constexpr double kEps = 1e-9;

}  // namespace

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

double RobustnessResult::ete_miss_ratio() const {
  return ete_met.trials() == 0 ? 0.0 : 1.0 - ete_met.ratio();
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

RobustnessOutcome evaluate_robust_scenario(const RobustnessConfig& config,
                                           std::uint64_t workload_seed,
                                           std::uint64_t fault_seed,
                                           ScenarioScratch* scratch) {
  const Scenario scenario = generate_scenario(config.base.generator,
                                              workload_seed);
  const Application& app = scenario.application;
  const Platform& platform = scenario.platform;

  const std::vector<double> est = estimate_wcets(app, config.base.wcet_strategy);
  const DeadlineAssignment assignment =
      distribute_for_config(config.base, app, platform, est, nullptr, scratch);

  FaultSpec spec = config.faults;
  spec.seed = fault_seed;
  const FaultTrace trace = FaultModel(spec).instantiate(app, platform);

  RecoveryEngine engine(config.policy, app, est);
  DispatchTelemetry telemetry;
  DispatchOptions options;
  options.abort_on_miss = false;
  const EdfDispatchScheduler scheduler(options);
  if (scratch != nullptr) {
    scheduler.run_into(scratch->sched_result, scratch->sched, app, assignment,
                       platform, &trace.conditions, &engine, &telemetry);
  } else {
    scheduler.run(app, assignment, platform, &trace.conditions, &engine,
                  &telemetry);
  }

  RobustnessOutcome outcome;
  for (NodeId v = 0; v < app.task_count(); ++v) {
    if (!app.has_ete_deadline(v)) {
      continue;
    }
    ++outcome.deadline_outputs;
    if (telemetry.completion[v] > app.ete_deadline(v) + kEps) {
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
    for (NodeId v = 0; v < app.task_count(); ++v) {
      const double f = app.task(v).optional_fraction;
      if (f <= 0.0) {
        continue;
      }
      const double opt = est[v] * f;
      outcome.optional_demand += opt;
      const bool completed = telemetry.completion[v] < kTimeInfinity;
      const bool degraded =
          std::find(telemetry.degraded.begin(), telemetry.degraded.end(), v) !=
          telemetry.degraded.end();
      if (completed && !degraded) {
        outcome.optional_completed += opt;
      }
    }
  }
  return outcome;
}

namespace {

/// Tag mixed into the base seeds of replicate r > 0, so every replicate
/// draws an independent workload + fault stream while replicate 0 keeps the
/// original single-replicate seeds bit-identically.
constexpr std::uint64_t kReplicateTag = 0x5EED'0DE6'4ADEULL;

RobustnessResult run_robustness_batch(const RobustnessConfig& config,
                                      ThreadPool* pool) {
  config.base.generator.validate();
  config.faults.validate();
  DSSLICE_REQUIRE(config.seed_replicates >= 1, "need >= 1 seed replicate");
  const std::size_t count = config.base.generator.graph_count;
  const std::size_t replicates = config.seed_replicates;
  const std::size_t total = count * replicates;
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<RobustnessOutcome> outcomes(total);
  // Chunked: each worker keeps one ScenarioScratch, so the slicing and
  // scheduling buffers are recycled across every faulted scenario it
  // evaluates.
  const auto evaluate_range = [&](std::size_t begin, std::size_t end) {
    thread_local ScenarioScratch scratch;
    for (std::size_t j = begin; j < end; ++j) {
      const std::size_t r = j / count;
      const std::size_t k = j % count;
      const std::uint64_t workload_base =
          r == 0 ? config.base.generator.base_seed
                 : derive_seed(config.base.generator.base_seed,
                               kReplicateTag + r);
      const std::uint64_t fault_base =
          r == 0 ? config.faults.seed
                 : derive_seed(config.faults.seed, kReplicateTag + r);
      outcomes[j] = evaluate_robust_scenario(
          config, derive_seed(workload_base, k), derive_seed(fault_base, k),
          &scratch);
    }
  };
  if (pool != nullptr) {
    const std::size_t grain = std::clamp<std::size_t>(
        total / (8 * std::max<std::size_t>(1, pool->size())), 1, 64);
    parallel_for(*pool, total, grain, evaluate_range);
  } else {
    evaluate_range(0, total);
  }

  RobustnessResult result;
  for (const RobustnessOutcome& outcome : outcomes) {
    result.add(outcome);
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace

RobustnessResult run_robustness(const RobustnessConfig& config,
                                ThreadPool& pool) {
  return run_robustness_batch(config, &pool);
}

RobustnessResult run_robustness_serial(const RobustnessConfig& config) {
  return run_robustness_batch(config, nullptr);
}

SweepResult sweep_overrun_factor(
    const RobustnessConfig& base,
    const std::vector<DistributionTechnique>& techniques,
    const std::vector<RecoveryPolicy>& policies,
    const std::vector<double>& factors, ThreadPool& pool, bool verbose) {
  SweepResult sweep;
  sweep.x_label = "overrun-factor";
  sweep.x = factors;
  for (const DistributionTechnique technique : techniques) {
    for (const RecoveryPolicy policy : policies) {
      RobustnessConfig config = base;
      config.base.technique = technique;
      config.base.label.clear();
      config.policy = policy;
      Series series;
      series.name = to_string(technique) + "/" + to_string(policy);
      for (const double factor : factors) {
        config.faults.overrun_factor = factor;
        const RobustnessResult result = run_robustness(config, pool);
        sweep.scenarios +=
            config.base.generator.graph_count * config.seed_replicates;
        sweep.wall_seconds += result.wall_seconds;
        series.success_ratio.push_back(result.ete_met.ratio());
        series.ci95.push_back(result.ete_met.ci95_halfwidth());
        series.mean_min_laxity.push_back(result.slice_misses.mean());
        if (verbose) {
          std::ostringstream os;
          os << series.name << " x=" << format_fixed(factor, 2);
          std::fputs((result.summary(os.str()) + "\n").c_str(), stderr);
        }
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
      if (miss <= miss_threshold + kEps) {
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
          span > kEps ? (miss_threshold - prev_miss) / span : 0.0;
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
  DegradationSurface surface;
  surface.factors = factors;
  surface.fractions = fractions;
  for (const DistributionTechnique technique : techniques) {
    for (const RecoveryPolicy policy : policies) {
      RobustnessConfig config = base;
      config.base.technique = technique;
      config.base.label.clear();
      config.policy = policy;
      DegradationSeries series;
      series.name = to_string(technique) + "/" + to_string(policy);
      series.cells.reserve(fractions.size() * factors.size());
      for (const double fraction : fractions) {
        // A fixed per-task split: the generator draws uniform(f, f) = f, so
        // structure, WCETs and deadlines stay identical per seed while the
        // sheddable share varies across rows.
        config.base.generator.workload.min_optional_fraction = fraction;
        config.base.generator.workload.max_optional_fraction = fraction;
        for (const double factor : factors) {
          config.faults.overrun_factor = factor;
          const RobustnessResult result = run_robustness(config, pool);
          surface.scenarios +=
              config.base.generator.graph_count * config.seed_replicates;
          surface.wall_seconds += result.wall_seconds;
          DegradationCell cell;
          cell.overrun_factor = factor;
          cell.optional_fraction = fraction;
          cell.success_ratio = result.ete_met.ratio();
          cell.ci95 = result.ete_met.ci95_halfwidth();
          cell.quality = result.quality.mean();
          cell.shed_tasks = result.recovery.shed;
          cell.degraded_completions = result.degraded_completions;
          series.cells.push_back(cell);
          if (verbose) {
            std::ostringstream os;
            os << series.name << " f=" << format_fixed(fraction, 2)
               << " x=" << format_fixed(factor, 2);
            std::fputs((result.summary(os.str()) + "\n").c_str(), stderr);
          }
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
