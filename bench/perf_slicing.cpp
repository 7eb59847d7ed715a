// P1: performance harness for the slicing layers.
//
// Per graph size, over kRowSeeds scenarios so that one outlier DAG cannot
// skew a row, it measures three layers of deadline distribution:
//  * analysis: one GraphAnalysis build (transitive closure, parallel-set
//    sizes) per scenario;
//  * core: DeadlineMetric::weights_into per metric on the memoized analysis;
//  * batch: the batch slicing kernel per metric against the scalar pipeline
//    it must reproduce (estimate_wcets_into, mandatory_estimates_into for
//    imprecise workloads, run_slicing_into on one reused SlicingWorkspace);
//    and for ADAPT-L, the kernel against plain run_slicing calls. The kernel
//    is called with one scenario per call, the batch size the sweep engine
//    uses (SweepOptions::gen_chunk), and each ratio times its two sides
//    interleaved.
//
// Gated rows: the kernel is bit-identical to the scalar pipeline on every
// metric (windows, pass indices, stats and min-laxities) over
// kIdentityScenarios scenarios per size, run as one untimed batch; the warm
// kernel grows no buffer; the timed loops build no GraphAnalysis; the
// ADAPT-L kernel runs at least kPipelineFloor times the scalar pipeline from
// kPipelineFloorTasks tasks up, a regression canary for the peel engine
// alone; and it runs at least kHeadlineFloor times run_slicing from
// kHeadlineFloorTasks tasks up. At one scenario per call the two ratios
// nearly coincide: ~3.0x at 128 tasks, ~3.3x at 256 and 3.7x or more from
// 512, so the 3x headline starts at 512 and the canary covers the smaller
// sizes (docs/PERFORMANCE.md lists the runs the floors come from).
// Bit-identity with the pre-cache slicing code is pinned by
// tests/test_slicing_equivalence.cpp. Writes BENCH_slicing.json.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/dsslice.hpp"

#include "bench_common.hpp"

namespace {

using namespace dsslice;
using bench::PerfRow;

/// Scenarios averaged per row: every timing loop runs all of them per call
/// and divides by the count.
constexpr std::size_t kRowSeeds = 5;
/// Scenarios per size in the untimed kernel-vs-scalar identity check.
constexpr std::size_t kIdentityScenarios = 32;
constexpr double kPipelineFloor = 2.7;  // ADAPT-L kernel vs scalar pipeline
constexpr std::size_t kPipelineFloorTasks = 128;
constexpr double kHeadlineFloor = 3.0;  // ADAPT-L kernel vs run_slicing
constexpr std::size_t kHeadlineFloorTasks = 512;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The scalar pipeline the kernel must reproduce, its buffers reused across
/// calls: c̄, the mandatory demand when the workload is imprecise, then
/// run_slicing_into on one SlicingWorkspace.
struct ScalarPipeline {
  std::vector<double> est;
  std::vector<double> mandatory;
  SlicingWorkspace workspace;
  DeadlineAssignment assignment;
  SlicingStats stats;

  void run(const Scenario& sc, const DeadlineMetric& metric) {
    const Application& app = sc.application;
    estimate_wcets_into(app, WcetEstimation::kAverage, est);
    std::span<const double> slice_est = est;
    if (app.has_optional_work()) {
      mandatory_estimates_into(app, est, mandatory);
      slice_est = mandatory;
    }
    SlicingOptions options;
    options.workspace = &workspace;
    run_slicing_into(assignment, app, slice_est, metric,
                     sc.platform.processor_count(), &stats, options);
  }
};

/// Bitwise comparison of every result surface of the kernel's slot k with
/// the scalar pipeline's last run (the outcome min-laxity over c̄ included).
bool matches_pipeline(const BatchSliceKernel& kernel, std::size_t k,
                      const ScalarPipeline& scalar) {
  const DeadlineAssignment& got = kernel.assignment(k);
  const DeadlineAssignment& want = scalar.assignment;
  if (got.windows.size() != want.windows.size()) {
    return false;
  }
  for (std::size_t v = 0; v < got.windows.size(); ++v) {
    if (bits(got.windows[v].arrival) != bits(want.windows[v].arrival) ||
        bits(got.windows[v].deadline) != bits(want.windows[v].deadline) ||
        got.pass_of[v] != want.pass_of[v]) {
      return false;
    }
  }
  const SlicingStats& a = kernel.stats(k);
  const SlicingStats& b = scalar.stats;
  return a.passes == b.passes &&
         bits(a.first_path_metric) == bits(b.first_path_metric) &&
         a.first_path_length == b.first_path_length &&
         bits(a.min_laxity) == bits(b.min_laxity) &&
         a.windows_feasible == b.windows_feasible &&
         bits(kernel.outcome_min_laxity(k)) ==
             bits(min_laxity(want, scalar.est));
}

/// Runs `kernel` over `scenarios` one scenario per call, which is how the
/// sweep drives it.
static_assert(SweepOptions::gen_chunk == 1,
              "the batch rows time the sweep's kernel batch size");
void run_one_at_a_time(BatchSliceKernel& kernel,
                       std::span<const Scenario> scenarios,
                       const BatchSliceConfig& config) {
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    kernel.run(scenarios.subspan(s, 1), config);
    volatile double sink = kernel.assignment(0).windows[0].deadline;
    (void)sink;
  }
}

BatchSliceConfig kernel_config(MetricKind kind) {
  BatchSliceConfig config;
  config.metric = kind;
  return config;
}

void measure_size(std::size_t tasks, std::size_t processors,
                  double min_seconds, std::vector<PerfRow>& rows) {
  const std::string size = "n=" + std::to_string(tasks) + " ";
  const GeneratorConfig cfg = bench::sized_config(tasks, processors);
  // The timing loops use the first kRowSeeds scenarios of the population.
  std::vector<Scenario> population;
  population.reserve(kIdentityScenarios);
  for (std::size_t s = 0; s < kIdentityScenarios; ++s) {
    population.push_back(generate_scenario_at(cfg, s));
  }
  const std::span<const Scenario> scenarios(population.data(), kRowSeeds);
  std::vector<std::vector<double>> ests;
  ests.reserve(kRowSeeds);
  for (const Scenario& sc : scenarios) {
    ests.push_back(estimate_wcets(sc.application, WcetEstimation::kAverage));
  }
  const double seeds = static_cast<double>(kRowSeeds);

  rows.push_back(bench::make_row(
      "analysis", size + "build", "us",
      1e6 / seeds * bench::time_per_call(min_seconds, 3, [&] {
        for (const Scenario& sc : scenarios) {
          GraphAnalysis analysis(sc.application.graph());
          volatile std::size_t sink = analysis.parallel_set_size(0);
          (void)sink;
        }
      })));

  for (const Scenario& sc : population) {
    sc.application.analysis();  // warm the memoized cache
  }
  const std::uint64_t constructions_before =
      GraphAnalysis::construction_count();

  MetricWorkspace metric_ws;
  std::vector<double> out;
  for (const MetricKind kind : all_metric_kinds()) {
    const DeadlineMetric metric(kind);
    rows.push_back(bench::make_row(
        "core", size + to_string(kind) + " weights", "us",
        1e6 / seeds * bench::time_per_call(min_seconds, 3, [&] {
          for (std::size_t s = 0; s < kRowSeeds; ++s) {
            metric.weights_into(scenarios[s].application, ests[s], processors,
                                nullptr, out, &metric_ws);
            volatile double sink = out.back();
            (void)sink;
          }
        })));
  }

  // Bit-identity, untimed: the kernel over the whole population in one
  // batch per metric against the scalar pipeline per scenario. These runs
  // also size the kernel for every shape the timed loops and the
  // warm-growth check below see.
  BatchSliceKernel kernel;
  ScalarPipeline scalar;
  std::uint64_t diverged = 0;
  for (const MetricKind kind : all_metric_kinds()) {
    const DeadlineMetric metric(kind);
    kernel.run(population, kernel_config(kind));
    bool identical = true;
    for (std::size_t k = 0; k < population.size(); ++k) {
      scalar.run(population[k], metric);
      identical = identical && matches_pipeline(kernel, k, scalar);
    }
    if (!identical) {
      ++diverged;
    }
  }

  // Scenarios per second of `fast` against `base`, timed interleaved.
  const auto ratio_row = [&](const std::string& name, auto&& fast,
                             auto&& base) {
    const auto [fast_s, base_s] =
        bench::time_per_call_pair(min_seconds, 3, fast, base);
    PerfRow row = bench::make_row("batch", size + name, "1/s", seeds / fast_s);
    row.baseline = seeds / base_s;
    return row;
  };
  for (const MetricKind kind : all_metric_kinds()) {
    const BatchSliceConfig config = kernel_config(kind);
    const DeadlineMetric metric(kind);
    PerfRow row = ratio_row(
        to_string(kind) + " kernel vs scalar pipeline",
        [&] { run_one_at_a_time(kernel, scenarios, config); },
        [&] {
          for (const Scenario& sc : scenarios) {
            scalar.run(sc, metric);
            volatile double sink = scalar.assignment.windows[0].deadline;
            (void)sink;
          }
        });
    if (kind == MetricKind::kAdaptL && tasks >= kPipelineFloorTasks) {
      row.gate_min = kPipelineFloor;
    }
    rows.push_back(row);
  }

  const DeadlineMetric adapt_l(MetricKind::kAdaptL);
  const BatchSliceConfig adapt_l_cfg = kernel_config(MetricKind::kAdaptL);
  SlicingWorkspace slicing_ws;
  SlicingOptions options;
  options.workspace = &slicing_ws;
  PerfRow headline = ratio_row(
      "ADAPT-L lanes64 vs run_slicing",
      [&] { run_one_at_a_time(kernel, scenarios, adapt_l_cfg); },
      [&] {
        for (std::size_t s = 0; s < kRowSeeds; ++s) {
          volatile double sink =
              run_slicing(scenarios[s].application, ests[s], adapt_l,
                          processors, nullptr, options)
                  .windows[0]
                  .deadline;
          (void)sink;
        }
      });
  if (tasks >= kHeadlineFloorTasks) {
    headline.gate_min = kHeadlineFloor;
  }
  rows.push_back(headline);

  // Every shape has been seen by now, so one more pass of each metric, at
  // both batch sizes, must not grow anything.
  const std::uint64_t warm = kernel.grow_events();
  for (const MetricKind kind : all_metric_kinds()) {
    const BatchSliceConfig config = kernel_config(kind);
    kernel.run(population, config);
    run_one_at_a_time(kernel, scenarios, config);
  }
  rows.push_back(bench::zero_row("batch", size + "diverged metrics", diverged));
  rows.push_back(bench::zero_row("batch", size + "warm grow events",
                                 kernel.grow_events() - warm));
  rows.push_back(bench::zero_row(
      "analysis", size + "timed-loop rebuilds",
      GraphAnalysis::construction_count() - constructions_before));
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_slicing",
                "Benchmark of the graph-analysis cache, the metric weights "
                "and the batch slicing kernel (against the scalar "
                "pipeline), with bit-identity and zero-allocation gates.");
  cli.add_flag("json", "", "write results as JSON to this path");
  cli.add_flag("processors", "3", "processor count m");
  cli.add_flag("min-ms", "100", "minimum wall time per measurement (ms)");
  cli.add_bool_flag("smoke", "tiny sizes / short timings (CI sanity run)");
  dsslice::obs::ObsCli::register_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  dsslice::obs::ObsCli obs_session(cli);
  const auto processors = cli.get_count("processors");
  const bool smoke = cli.get_bool("smoke");
  const double min_seconds =
      (smoke ? 20.0 : static_cast<double>(cli.get_int("min-ms"))) / 1000.0;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024, 2048};

  std::printf("perf_slicing: m=%zu, %zu seeds per row, sizes:", processors,
              kRowSeeds);
  for (const std::size_t n : sizes) {
    std::printf(" %zu", n);
  }
  std::printf("%s\n\n", smoke ? " (smoke)" : "");

  std::vector<PerfRow> rows;
  for (const std::size_t n : sizes) {
    measure_size(n, processors, min_seconds, rows);
  }
  const int status = bench::finish_report(
      "perf_slicing",
      "{\"processors\": " + std::to_string(processors) +
          ", \"seeds_per_row\": " + std::to_string(kRowSeeds) +
          ", \"identity_scenarios\": " + std::to_string(kIdentityScenarios) +
          "}",
      rows, cli.get_string("json"));
  obs_session.finish();
  return status;
}
