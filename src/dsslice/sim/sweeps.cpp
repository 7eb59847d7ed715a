#include "dsslice/sim/sweeps.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "dsslice/obs/trace.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
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

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The row key: cells share one generated scenario stream only when every
// generator field is equal, doubles by bit pattern (so -0.0 and 0.0 differ).
// The structured bindings stop compiling when a field is added, so the key
// cannot silently ignore one.
bool same_stream(const PlatformConfig& a, const PlatformConfig& b) {
  const auto& [m, min_classes, max_classes, bus, deviation, model] = a;
  return m == b.processor_count && min_classes == b.min_class_count &&
         max_classes == b.max_class_count &&
         same_bits(bus, b.bus_delay_per_item) &&
         same_bits(deviation, b.class_deviation) && model == b.class_model;
}

bool same_stream(const WorkloadConfig& a, const WorkloadConfig& b) {
  const auto& [min_tasks, max_tasks, min_depth, max_depth, min_degree,
               max_degree, locality, mean_c, etd, inel, olr, spread, ccr,
               min_opt, max_opt, integral] = a;
  return min_tasks == b.min_tasks && max_tasks == b.max_tasks &&
         min_depth == b.min_depth && max_depth == b.max_depth &&
         min_degree == b.min_degree && max_degree == b.max_degree &&
         locality == b.edge_locality &&
         same_bits(mean_c, b.mean_execution_time) && same_bits(etd, b.etd) &&
         same_bits(inel, b.ineligible_probability) && same_bits(olr, b.olr) &&
         same_bits(spread, b.olr_spread) && same_bits(ccr, b.ccr) &&
         same_bits(min_opt, b.min_optional_fraction) &&
         same_bits(max_opt, b.max_optional_fraction) &&
         integral == b.integral_messages;
}

bool same_stream(const GeneratorConfig& a, const GeneratorConfig& b) {
  const auto& [platform, workload, graph_count, base_seed] = a;
  return same_stream(platform, b.platform) &&
         same_stream(workload, b.workload) && graph_count == b.graph_count &&
         base_seed == b.base_seed;
}

/// Graphs per (row, graph chunk) work item: small enough that a figure
/// with fewer rows than workers still spreads over the pool, large enough
/// that dispatch is noise next to the row's evaluations.
constexpr std::size_t kRowChunk = 16;

}  // namespace

SweepResult run_sweep(const std::string& x_label, std::vector<double> xs,
                      const std::vector<SeriesSpec>& specs, ThreadPool& pool,
                      bool verbose) {
  DSSLICE_REQUIRE(!xs.empty(), "sweep needs at least one x value");
  DSSLICE_REQUIRE(!specs.empty(), "sweep needs at least one series");
  SweepResult result;
  result.x_label = x_label;
  result.x = std::move(xs);
  const std::size_t nx = result.x.size();
  const auto t0 = std::chrono::steady_clock::now();

  // Cell i is (series i / nx, x i % nx).
  std::vector<ExperimentConfig> configs;
  configs.reserve(specs.size() * nx);
  for (const SeriesSpec& spec : specs) {
    for (const double x : result.x) {
      configs.push_back(spec.factory(x));
      configs.back().generator.validate();
    }
  }

  // A row is the cells that draw the same scenario stream: each of its
  // scenarios is generated (and analysed) once and evaluated per cell.
  std::vector<std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto row = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
      return same_stream(configs[r.front()].generator, configs[i].generator);
    });
    if (row == rows.end()) {
      rows.push_back({i});
    } else {
      row->push_back(i);
    }
  }

  struct WorkItem {
    std::size_t row;
    std::size_t first;
    std::size_t last;
  };
  std::vector<WorkItem> items;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t graphs = configs[rows[r].front()].generator.graph_count;
    for (std::size_t first = 0; first < graphs; first += kRowChunk) {
      items.push_back({r, first, std::min(first + kRowChunk, graphs)});
    }
  }

  // outcomes[i][k] is cell i's outcome on scenario k. Every work item writes
  // its own slots, so workers never share one.
  std::vector<std::vector<GraphOutcome>> outcomes(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    outcomes[i].resize(configs[i].generator.graph_count);
  }
  parallel_for(pool, items.size(), [&](std::size_t w) {
    DSSLICE_SPAN("sim.figure.row_chunk");
    const WorkItem& item = items[w];
    const std::vector<std::size_t>& row = rows[item.row];
    for (std::size_t k = item.first; k < item.last; ++k) {
      generate_arena_scenario(configs[row.front()].generator, k);
      for (const std::size_t cell : row) {
        outcomes[cell][k] = evaluate_arena_scenario(configs[cell]);
      }
    }
  });

  // Each cell folds its outcomes in scenario order, as run_experiment's
  // single shard does, so the aggregates match it bit for bit at any
  // thread count.
  std::vector<SweepAggregate> cells(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (const GraphOutcome& outcome : outcomes[i]) {
      cells[i].add(outcome);
    }
    if (verbose) {
      std::fprintf(stderr, "  %s %s=%g: %s\n", specs[i / nx].name.c_str(),
                   x_label.c_str(), result.x[i % nx],
                   format_percent(cells[i].success_ratio(), 1).c_str());
    }
  }
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
