#include "dsslice/sim/sweeps.hpp"

#include <chrono>
#include <cstdio>

#include "dsslice/util/check.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

const Series& SweepResult::find(const std::string& name) const {
  for (const Series& s : series) {
    if (s.name == name) {
      return s;
    }
  }
  throw ConfigError("no series named " + name);
}

double SweepResult::scenarios_per_second() const {
  return wall_seconds > 0.0 ? static_cast<double>(scenarios) / wall_seconds
                            : 0.0;
}

SweepResult run_sweep(const std::string& x_label, std::vector<double> xs,
                      const std::vector<SeriesSpec>& specs, ThreadPool& pool,
                      bool verbose) {
  DSSLICE_REQUIRE(!xs.empty(), "sweep needs at least one x value");
  DSSLICE_REQUIRE(!specs.empty(), "sweep needs at least one series");
  SweepResult result;
  result.x_label = x_label;
  result.x = std::move(xs);
  const std::size_t nx = result.x.size();
  std::vector<SweepAggregate> cells(specs.size() * nx);
  const auto t0 = std::chrono::steady_clock::now();
  // Cell i is (series i / nx, x i % nx). Each cell is one sweep shard run
  // on the worker that claims it; run_experiment takes no pool, so running
  // cells on pool workers never nests a submission into the same pool.
  parallel_for(pool, cells.size(), [&](std::size_t i) {
    const SeriesSpec& spec = specs[i / nx];
    const double x = result.x[i % nx];
    cells[i] = run_experiment(spec.factory(x));
    if (verbose) {
      std::fprintf(stderr, "  %s %s=%g: %s\n", spec.name.c_str(),
                   x_label.c_str(), x,
                   format_percent(cells[i].success_ratio(), 1).c_str());
    }
  });
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  result.series.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    Series series;
    series.name = specs[s].name;
    for (std::size_t j = 0; j < nx; ++j) {
      const SweepAggregate& r = cells[s * nx + j];
      result.scenarios += r.scenarios();
      series.success_ratio.push_back(r.success_ratio());
      series.ci95.push_back(r.success.ci95_halfwidth());
      series.mean_min_laxity.push_back(r.min_laxity.mean());
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

std::vector<SeriesSpec> metric_series(const ExperimentConfig& base) {
  std::vector<SeriesSpec> specs;
  const DistributionTechnique techniques[] = {
      DistributionTechnique::kSlicingPure,
      DistributionTechnique::kSlicingNorm,
      DistributionTechnique::kSlicingAdaptG,
      DistributionTechnique::kSlicingAdaptL,
  };
  for (const DistributionTechnique t : techniques) {
    specs.push_back(SeriesSpec{
        to_string(metric_of(t)), [base, t](double) {
          ExperimentConfig c = base;
          c.technique = t;
          return c;
        }});
  }
  return specs;
}

std::vector<SeriesSpec> wcet_series(const ExperimentConfig& base) {
  std::vector<SeriesSpec> specs;
  const WcetEstimation strategies[] = {
      WcetEstimation::kAverage, WcetEstimation::kMax, WcetEstimation::kMin};
  for (const WcetEstimation s : strategies) {
    specs.push_back(SeriesSpec{to_string(s), [base, s](double) {
                                 ExperimentConfig c = base;
                                 c.wcet_strategy = s;
                                 return c;
                               }});
  }
  return specs;
}

namespace {

/// Rebinds each series factory so the swept x mutates the config.
std::vector<SeriesSpec> apply_x(
    const std::vector<SeriesSpec>& specs,
    const std::function<void(ExperimentConfig&, double)>& mutate) {
  std::vector<SeriesSpec> out;
  out.reserve(specs.size());
  for (const SeriesSpec& spec : specs) {
    out.push_back(SeriesSpec{spec.name, [spec, mutate](double x) {
                               ExperimentConfig c = spec.factory(x);
                               mutate(c, x);
                               return c;
                             }});
  }
  return out;
}

}  // namespace

SweepResult sweep_system_size(const ExperimentConfig& base,
                              const std::vector<std::size_t>& sizes,
                              ThreadPool& pool, bool verbose) {
  std::vector<double> xs;
  for (const std::size_t m : sizes) {
    xs.push_back(static_cast<double>(m));
  }
  const auto specs =
      apply_x(metric_series(base), [](ExperimentConfig& c, double x) {
        c.generator.platform.processor_count = static_cast<std::size_t>(x);
      });
  return run_sweep("m", std::move(xs), specs, pool, verbose);
}

SweepResult sweep_olr(const ExperimentConfig& base,
                      const std::vector<double>& olrs, ThreadPool& pool,
                      bool verbose) {
  const auto specs =
      apply_x(metric_series(base), [](ExperimentConfig& c, double x) {
        c.generator.workload.olr = x;
      });
  return run_sweep("OLR", olrs, specs, pool, verbose);
}

SweepResult sweep_etd(const ExperimentConfig& base,
                      const std::vector<double>& etds, ThreadPool& pool,
                      bool verbose) {
  const auto specs =
      apply_x(metric_series(base), [](ExperimentConfig& c, double x) {
        c.generator.workload.etd = x;
      });
  return run_sweep("ETD", etds, specs, pool, verbose);
}

SweepResult sweep_wcet_olr(const ExperimentConfig& base,
                           const std::vector<double>& olrs, ThreadPool& pool,
                           bool verbose) {
  const auto specs =
      apply_x(wcet_series(base), [](ExperimentConfig& c, double x) {
        c.generator.workload.olr = x;
      });
  return run_sweep("OLR", olrs, specs, pool, verbose);
}

SweepResult sweep_wcet_etd(const ExperimentConfig& base,
                           const std::vector<double>& etds, ThreadPool& pool,
                           bool verbose) {
  const auto specs =
      apply_x(wcet_series(base), [](ExperimentConfig& c, double x) {
        c.generator.workload.etd = x;
      });
  return run_sweep("ETD", etds, specs, pool, verbose);
}

}  // namespace dsslice
