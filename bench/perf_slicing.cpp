// P1: performance harness for the slicing hot path.
//
// Measures, per graph size, three layers of deadline distribution:
//  * structure construction: one GraphAnalysis build (transitive closure,
//    parallel-set sizes) per scenario;
//  * DeadlineMetric::weights_into per metric on the memoized analysis;
//  * ADAPT-L run_slicing end to end: the cached scalar path (warm analysis,
//    shared SlicingWorkspace) vs the SoA batch kernel (lanes64) over the
//    same scenarios. batch_speedup is the kernel against that in-library
//    scalar reference.
//
// Bit-identity with the pre-cache slicing code is pinned by
// tests/test_slicing_equivalence.cpp. This harness asserts the cached timing
// loops build zero GraphAnalysis instances and the warm batch kernel grows
// zero buffers, then writes BENCH_slicing.json. Every size row averages over
// kRowSeeds scenarios so one outlier DAG cannot skew the row.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/dsslice.hpp"

#include "bench_common.hpp"

namespace {

using namespace dsslice;

/// Scenarios averaged per row: one lucky or unlucky DAG must not skew a
/// size's numbers, so every timing loop iterates all seeds per call and
/// divides by the seed count.
constexpr std::size_t kRowSeeds = 5;

struct MetricRow {
  std::string name;
  double cached_us = 0.0;
};

struct SizeReport {
  std::size_t tasks = 0;
  double analysis_build_us = 0.0;
  std::vector<MetricRow> weights;
  double cached_slicing_per_sec = 0.0;   // ADAPT-L, warm cache + workspace
  double batch_slicing_per_sec = 0.0;    // SoA batch kernel (lanes64)
  std::uint64_t batch_steady_grow_events = 0;   // must be 0
  std::uint64_t cached_loop_constructions = 0;  // must be 0

  double batch_speedup() const {
    return cached_slicing_per_sec > 0.0
               ? batch_slicing_per_sec / cached_slicing_per_sec
               : 0.0;
  }
};

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", v);
  return buffer;
}

std::string to_json(const std::vector<SizeReport>& reports,
                    std::size_t processors) {
  std::string out = "{\n";
  out += "  \"benchmark\": \"slicing-hot-path\",\n";
  out += "  \"processors\": " + std::to_string(processors) + ",\n";
  out += "  \"seeds_per_row\": " + std::to_string(kRowSeeds) + ",\n";
  out += "  \"machine\": " + bench::machine_json(1) + ",\n";
  out += "  \"metric_unit\": {\"build\": \"us\", \"weights\": \"us/call\", "
         "\"slicing\": \"scenarios/sec\"},\n";
  out += "  \"sizes\": [\n";
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const SizeReport& s = reports[r];
    out += "    {\n";
    out += "      \"tasks\": " + std::to_string(s.tasks) + ",\n";
    out += "      \"analysis_build_us\": " +
           json_number(s.analysis_build_us) + ",\n";
    out += "      \"weights\": [\n";
    for (std::size_t k = 0; k < s.weights.size(); ++k) {
      const MetricRow& m = s.weights[k];
      out += "        {\"metric\": \"" + m.name + "\", \"cached_us\": " +
             json_number(m.cached_us) + "}";
      out += (k + 1 < s.weights.size()) ? ",\n" : "\n";
    }
    out += "      ],\n";
    out += "      \"slicing_adapt_l\": {\"cached_per_sec\": " +
           json_number(s.cached_slicing_per_sec) + ", \"batch_per_sec\": " +
           json_number(s.batch_slicing_per_sec) + ", \"batch_speedup\": " +
           json_number(s.batch_speedup()) + "},\n";
    out += "      \"batch_steady_grow_events\": " +
           std::to_string(s.batch_steady_grow_events) + ",\n";
    out += "      \"cached_loop_analysis_constructions\": " +
           std::to_string(s.cached_loop_constructions) + "\n";
    out += "    }";
    out += (r + 1 < reports.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

SizeReport measure_size(std::size_t tasks, std::size_t processors,
                        double min_seconds) {
  SizeReport report;
  report.tasks = tasks;

  const GeneratorConfig cfg = bench::sized_config(tasks, processors);
  std::vector<Scenario> scenarios;
  std::vector<std::vector<double>> ests;
  scenarios.reserve(kRowSeeds);
  ests.reserve(kRowSeeds);
  for (std::size_t s = 0; s < kRowSeeds; ++s) {
    scenarios.push_back(generate_scenario_at(cfg, s));
    ests.push_back(
        estimate_wcets(scenarios.back().application, WcetEstimation::kAverage));
  }
  const double inv = 1.0 / static_cast<double>(kRowSeeds);

  report.analysis_build_us =
      1e6 * inv * bench::time_per_call(min_seconds, 3, [&] {
        for (const Scenario& sc : scenarios) {
          GraphAnalysis analysis(sc.application.graph());
          volatile std::size_t sink = analysis.parallel_set_size(0);
          (void)sink;
        }
      });

  for (const Scenario& sc : scenarios) {
    sc.application.analysis();  // warm the memoized cache
  }
  const std::uint64_t constructions_before = GraphAnalysis::construction_count();

  MetricWorkspace metric_ws;
  std::vector<double> out;
  for (const MetricKind kind : all_metric_kinds()) {
    const DeadlineMetric metric(kind);
    MetricRow row;
    row.name = to_string(kind);
    row.cached_us = 1e6 * inv * bench::time_per_call(min_seconds, 3, [&] {
      for (std::size_t s = 0; s < kRowSeeds; ++s) {
        metric.weights_into(scenarios[s].application, ests[s], processors,
                            nullptr, out, &metric_ws);
        volatile double sink = out.back();
        (void)sink;
      }
    });
    report.weights.push_back(row);
  }

  const DeadlineMetric adapt_l(MetricKind::kAdaptL);
  SlicingWorkspace slicing_ws;
  SlicingOptions options;
  options.workspace = &slicing_ws;
  const double cached_slice_s = inv * bench::time_per_call(min_seconds, 3, [&] {
    for (std::size_t s = 0; s < kRowSeeds; ++s) {
      volatile double sink =
          run_slicing(scenarios[s].application, ests[s], adapt_l, processors,
                      nullptr, options)
              .windows[0]
              .deadline;
      (void)sink;
    }
  });
  report.cached_slicing_per_sec = 1.0 / cached_slice_s;

  // The SoA batch kernel over the same scenarios, one batch per call. Warm
  // once so the timed loop exercises the steady state, then assert it never
  // allocated (the sweep integration depends on exactly this property).
  BatchSliceKernel kernel;
  BatchSliceConfig batch_cfg;
  batch_cfg.metric = MetricKind::kAdaptL;
  kernel.run(scenarios, batch_cfg);
  const std::uint64_t batch_warm_grow = kernel.grow_events();
  const double batch_slice_s = inv * bench::time_per_call(min_seconds, 3, [&] {
    kernel.run(scenarios, batch_cfg);
    volatile double sink = kernel.assignment(0).windows[0].deadline;
    (void)sink;
  });
  report.batch_slicing_per_sec = 1.0 / batch_slice_s;
  report.batch_steady_grow_events = kernel.grow_events() - batch_warm_grow;

  report.cached_loop_constructions =
      GraphAnalysis::construction_count() - constructions_before;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_slicing",
                "Benchmark of the graph-analysis cache, the allocation-free "
                "slicing hot path and the batch slicing kernel.");
  cli.add_flag("json", "", "write results as JSON to this path");
  cli.add_flag("processors", "3", "processor count m");
  cli.add_flag("min-ms", "100", "minimum wall time per measurement (ms)");
  cli.add_bool_flag("smoke", "tiny sizes / short timings (CI sanity run)");
  dsslice::obs::ObsCli::register_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  dsslice::obs::ObsCli obs_session(cli);
  const auto processors = static_cast<std::size_t>(cli.get_int("processors"));
  const bool smoke = cli.get_bool("smoke");
  const double min_seconds =
      (smoke ? 5.0 : static_cast<double>(cli.get_int("min-ms"))) / 1000.0;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024, 2048};

  std::printf("perf_slicing: m=%zu, sizes:", processors);
  for (const std::size_t n : sizes) {
    std::printf(" %zu", n);
  }
  std::printf("%s\n\n", smoke ? " (smoke)" : "");

  std::vector<SizeReport> reports;
  bool cache_clean = true;
  for (const std::size_t n : sizes) {
    SizeReport r = measure_size(n, processors, min_seconds);
    std::printf("n=%4zu  build %8.1fus", r.tasks, r.analysis_build_us);
    for (const MetricRow& m : r.weights) {
      std::printf("  %s %.2fus", m.name.c_str(), m.cached_us);
    }
    std::printf(
        "  slicing %.0f /s  batch %.0f /s (%.2fx)  rebuilds=%llu\n",
        r.cached_slicing_per_sec, r.batch_slicing_per_sec, r.batch_speedup(),
        static_cast<unsigned long long>(r.cached_loop_constructions));
    if (r.cached_loop_constructions != 0 || r.batch_steady_grow_events != 0) {
      cache_clean = false;
    }
    reports.push_back(std::move(r));
  }

  if (!cache_clean) {
    std::fprintf(stderr,
                 "FAIL: cached timing loops rebuilt the graph analysis or "
                 "the warm batch kernel grew buffers\n");
    return 1;
  }
  std::printf("\ncached loops built zero GraphAnalysis instances: OK\n");

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    if (write_text_file(json_path, to_json(reports, processors))) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      return 1;
    }
  }
  obs_session.finish();
  return 0;
}
