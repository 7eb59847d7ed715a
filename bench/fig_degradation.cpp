// Graceful-degradation study (docs/ROBUSTNESS.md): the four metrics
// dispatched under execution-time overruns on *imprecise* workloads, where
// every task carries an optional part a degraded-mode policy may shed.
//
// Sweeps overrun factor × optional fraction for every metric × recovery
// policy and reports the success-ratio + quality-ratio surface: at each
// point, the fraction of E-T-E deadlines met and the fraction of optional
// work that still ran at full precision (the imprecise-scheduling quality
// measure). The printed verdict checks the headline claim: on workloads
// with optional parts there is an overrun range where shed-optional meets
// strictly more E-T-E deadlines than both the do-nothing baseline and
// migrate — graceful quality loss buys hard-deadline survival.
//
// Every row averages over --replicates independent seed replicates (≥5 by
// default) so no cell reflects a single fixed-seed batch. --json writes the
// surface as BENCH_degradation.json-style provenance-stamped JSON.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace dsslice;

std::string json_num(double v) {
  return std::isfinite(v) ? format_fixed(v, 6) : "null";
}

std::string to_json(const DegradationSurface& surface,
                    const RobustnessConfig& base, double threshold,
                    std::size_t threads) {
  std::string out = "{\n";
  out += "  \"bench\": \"fig_degradation\",\n";
  out += "  \"machine\": " + bench::machine_json(threads) + ",\n";
  out += "  \"config\": {\"graphs\": " +
         std::to_string(base.base.generator.graph_count) +
         ", \"replicates\": " + std::to_string(base.seed_replicates) +
         ", \"overrun_probability\": " +
         json_num(base.faults.overrun_probability) +
         ", \"miss_threshold\": " + json_num(threshold) + "},\n";
  out += "  \"series\": [\n";
  for (std::size_t s = 0; s < surface.series.size(); ++s) {
    const DegradationSeries& series = surface.series[s];
    out += "    {\"name\": \"" + series.name + "\", \"cells\": [\n";
    for (std::size_t c = 0; c < series.cells.size(); ++c) {
      const DegradationCell& cell = series.cells[c];
      out += "      {\"overrun_factor\": " + json_num(cell.overrun_factor) +
             ", \"optional_fraction\": " + json_num(cell.optional_fraction) +
             ", \"success_ratio\": " + json_num(cell.success_ratio) +
             ", \"ci95\": " + json_num(cell.ci95) +
             ", \"quality_ratio\": " + json_num(cell.quality) +
             ", \"shed_tasks\": " + std::to_string(cell.shed_tasks) +
             ", \"degraded_completions\": " +
             std::to_string(cell.degraded_completions) + "}";
      out += c + 1 < series.cells.size() ? ",\n" : "\n";
    }
    out += "    ]}";
    out += s + 1 < surface.series.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"breakdown\": [\n";
  for (std::size_t fi = 0; fi < surface.fractions.size(); ++fi) {
    const auto points = breakdown_overrun_factors(
        degradation_row_as_sweep(surface, fi), threshold);
    for (std::size_t p = 0; p < points.size(); ++p) {
      out += "    {\"series\": \"" + points[p].series +
             "\", \"optional_fraction\": " + json_num(surface.fractions[fi]) +
             ", \"factor\": " + json_num(points[p].factor) +
             ", \"broke\": " + (points[p].broke ? "true" : "false") + "}";
      const bool last =
          fi + 1 == surface.fractions.size() && p + 1 == points.size();
      out += last ? "\n" : ",\n";
    }
  }
  out += "  ],\n";
  out += "  \"scenarios\": " + std::to_string(surface.scenarios) + ",\n";
  out += "  \"wall_seconds\": " + json_num(surface.wall_seconds) + "\n";
  out += "}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsslice;
  CliParser cli = bench::make_parser(
      "fig_degradation",
      "Graceful degradation: success + quality surface over overrun factor "
      "× optional fraction, per metric and recovery policy");
  cli.add_flag("miss-threshold", "0.1",
               "E-T-E miss ratio defining the breakdown factor");
  cli.add_flag("overrun-probability", "0.35",
               "per-task probability of an execution-time overrun");
  cli.add_flag("replicates", "5",
               "independent seed replicates averaged into every cell");
  cli.add_flag("json", "", "write the surface as JSON to this path");
  cli.add_bool_flag("smoke", "tiny batch / coarse grid (CI sanity run)");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  bench::ObsScope obs_scope(cli);
  ThreadPool pool = bench::make_pool(cli);
  const bool verbose = cli.get_bool("verbose");
  const bool smoke = cli.get_bool("smoke");
  const double threshold = cli.get_double("miss-threshold");

  RobustnessConfig base;
  base.base = bench::base_config(cli);
  // A surface costs |metrics| × |policies| × |fractions| × |factors| full
  // robustness batches; an eighth of the paper batch per cell (× the seed
  // replicates) keeps the CI useful at tractable cost.
  base.base.generator.graph_count = std::max<std::size_t>(
      1, base.base.generator.graph_count / (smoke ? 64 : 8));
  base.base.generator.platform.processor_count = 3;
  base.faults.scope = OverrunScope::kUniform;
  base.faults.overrun_probability = cli.get_double("overrun-probability");
  base.faults.seed = 0xDE64ADE;
  base.seed_replicates = std::max<std::size_t>(
      1, smoke ? 2 : cli.get_count("replicates"));

  const std::vector<DistributionTechnique> techniques = {
      DistributionTechnique::kSlicingPure,
      DistributionTechnique::kSlicingNorm,
      DistributionTechnique::kSlicingAdaptG,
      DistributionTechnique::kSlicingAdaptL,
  };
  const std::vector<RecoveryPolicy> policies = {
      RecoveryPolicy::kNone, RecoveryPolicy::kMigrate,
      RecoveryPolicy::kShedOptional, RecoveryPolicy::kDegradeThenMigrate};
  const std::vector<double> factors =
      smoke ? std::vector<double>{1.0, 2.0}
            : std::vector<double>{1.0, 1.5, 2.0, 2.5, 3.0};
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.0, 0.5}
            : std::vector<double>{0.0, 0.25, 0.5};

  std::printf("== Graceful degradation — success (quality) over overrun "
              "factor × optional fraction%s ==\n",
              smoke ? " (smoke)" : "");
  std::printf("   (m=3, overrun probability %.2f, %zu graphs × %zu seed "
              "replicates per cell)\n\n",
              base.faults.overrun_probability,
              base.base.generator.graph_count, base.seed_replicates);

  const DegradationSurface surface = sweep_degradation(
      base, techniques, policies, factors, fractions, pool, verbose);

  std::fputs(format_degradation_table(surface).c_str(), stdout);

  // Breakdown factor per optional-fraction row (the precise row doubles as
  // the fig_robustness baseline).
  for (std::size_t fi = 0; fi < surface.fractions.size(); ++fi) {
    std::printf("\noptional fraction %.2f:\n", surface.fractions[fi]);
    std::fputs(format_breakdown_table(
                   breakdown_overrun_factors(
                       degradation_row_as_sweep(surface, fi), threshold),
                   threshold)
                   .c_str(),
               stdout);
  }

  // Headline verdict: on imprecise rows (optional fraction > 0) there must
  // be a metric and an overrun factor where shed-optional meets strictly
  // more E-T-E deadlines than BOTH none and migrate; and shed-optional must
  // never lose materially to either anywhere.
  const std::size_t stride = surface.factors.size();
  const auto find_series = [&](const std::string& name)
      -> const DegradationSeries& {
    for (const DegradationSeries& s : surface.series) {
      if (s.name == name) {
        return s;
      }
    }
    std::fprintf(stderr, "missing series %s\n", name.c_str());
    std::abort();
  };
  bool strictly_better_somewhere = false;
  bool never_loses = true;
  for (const DistributionTechnique t : techniques) {
    const DegradationSeries& none = find_series(to_string(t) + "/none");
    const DegradationSeries& migrate = find_series(to_string(t) + "/migrate");
    const DegradationSeries& shed =
        find_series(to_string(t) + "/shed-optional");
    for (std::size_t fi = 0; fi < surface.fractions.size(); ++fi) {
      if (surface.fractions[fi] <= 0.0) {
        continue;  // precise row: shedding has nothing to reclaim
      }
      for (std::size_t xi = 0; xi < stride; ++xi) {
        const std::size_t c = fi * stride + xi;
        const double s = shed.cells[c].success_ratio;
        const double baseline = std::max(none.cells[c].success_ratio,
                                         migrate.cells[c].success_ratio);
        if (s > baseline + 1e-12) {
          strictly_better_somewhere = true;
        }
        if (s < baseline - 0.02) {
          never_loses = false;
          std::printf("  !! %s: shed-optional trails by %.4f at "
                      "f=%.2f x=%.2f\n",
                      to_string(t).c_str(), baseline - s,
                      surface.fractions[fi], surface.factors[xi]);
        }
      }
    }
  }
  std::printf("\nverdict: shed-optional %s none/migrate on imprecise "
              "workloads (%s materially losing anywhere)\n",
              strictly_better_somewhere ? "beats" : "does NOT beat",
              never_loses ? "without" : "while");

  std::printf("\n%zu scenarios in %.2f s (%.0f scenarios/sec)\n",
              surface.scenarios, surface.wall_seconds,
              surface.wall_seconds > 0.0
                  ? static_cast<double>(surface.scenarios) /
                        surface.wall_seconds
                  : 0.0);

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    const std::string json =
        to_json(surface, base, threshold, cli.get_count("threads"));
    if (write_text_file(json_path, json)) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      return 1;
    }
  }
  // The smoke grid is too small to certify the verdict; full runs fail the
  // exit code when the headline claim does not hold.
  return strictly_better_somewhere || smoke ? 0 : 2;
}
