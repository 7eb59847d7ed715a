// P4: throughput harness for the allocation-free scheduler engine.
//
// Measures, per graph size, the per-scenario throughput of the engine's
// run_into path (binary ready heap, cached CSR adjacency, reusable
// SchedulerWorkspace buffers) for:
//  * the EDF list scheduler, append and insertion placement;
//  * the time-marching EDF dispatcher (flat arc factors, devirtualized
//    shared-bus delay, workspace-backed state).
//
// The rows are absolute scenarios/sec. Bit-identity with the pre-engine
// schedulers is pinned by tests/test_scheduler_equivalence.cpp, and the repo
// benchmark (benchmark/, its sched.* layers and the sweep-dispatch-wide
// workload) gates scheduler cost. This harness asserts the warm engine
// loops perform zero scheduler-state allocations
// (SchedulerWorkspace::grow_events), then writes BENCH_scheduling.json.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dsslice/dsslice.hpp"

#include "bench_common.hpp"

namespace {

using namespace dsslice;

/// Scenarios per size row. Each row times all of them back to back and
/// reports scenarios/sec, so the number is a multi-seed average rather than
/// the throughput of one fixed-seed graph — single seeds over- or
/// under-state a row by >2x depending on how the generated DAG happens to
/// shape the ready sets.
constexpr std::size_t kRowSeeds = 5;

struct EngineRow {
  std::string name;
  double engine_per_sec = 0.0;
  std::uint64_t warm_grow_events = 0;  // must be 0
};

struct SizeReport {
  std::size_t tasks = 0;
  std::vector<EngineRow> engines;
};

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", v);
  return buffer;
}

std::string to_json(const std::vector<SizeReport>& reports,
                    std::size_t processors) {
  std::string out = "{\n";
  out += "  \"benchmark\": \"scheduler-engine\",\n";
  out += "  \"processors\": " + std::to_string(processors) + ",\n";
  out += "  \"seeds_per_row\": " + std::to_string(kRowSeeds) + ",\n";
  out += "  \"machine\": " + bench::machine_json(1) + ",\n";
  out += "  \"metric_unit\": {\"scheduler\": \"scenarios/sec\"},\n";
  out += "  \"sizes\": [\n";
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const SizeReport& s = reports[r];
    out += "    {\n";
    out += "      \"tasks\": " + std::to_string(s.tasks) + ",\n";
    out += "      \"engines\": [\n";
    for (std::size_t k = 0; k < s.engines.size(); ++k) {
      const EngineRow& e = s.engines[k];
      out += "        {\"engine\": \"" + e.name + "\", \"engine_per_sec\": " +
             json_number(e.engine_per_sec) + ", \"warm_grow_events\": " +
             std::to_string(e.warm_grow_events) + "}";
      out += (k + 1 < s.engines.size()) ? ",\n" : "\n";
    }
    out += "      ]\n";
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
  std::vector<DeadlineAssignment> assignments;
  scenarios.reserve(kRowSeeds);
  assignments.reserve(kRowSeeds);
  const DeadlineMetric adapt_l(MetricKind::kAdaptL);
  for (std::size_t k = 0; k < kRowSeeds; ++k) {
    scenarios.push_back(generate_scenario_at(cfg, k));
    const Application& app = scenarios.back().application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    assignments.push_back(run_slicing(app, est, adapt_l, processors));
  }

  SchedulerWorkspace ws;
  SchedulerResult result;

  // One row per engine: two passes over every seed size every buffer and
  // settle the result-shell reuse, then the timed loop must never grow a
  // buffer. Each timed call covers all kRowSeeds scenarios, so per-sec
  // rates divide by the seed count.
  const auto measure = [&](const std::string& name, const auto& scheduler) {
    const auto run_all = [&] {
      for (std::size_t k = 0; k < kRowSeeds; ++k) {
        scheduler.run_into(result, ws, scenarios[k].application,
                           assignments[k], scenarios[k].platform);
        volatile bool sink = result.success;
        (void)sink;
      }
    };
    run_all();
    run_all();
    EngineRow row;
    row.name = name;
    const std::uint64_t grow_before = ws.grow_events();
    row.engine_per_sec = kRowSeeds / bench::time_per_call(min_seconds, 3,
                                                          run_all);
    row.warm_grow_events = ws.grow_events() - grow_before;
    report.engines.push_back(row);
  };

  SchedulerOptions append;
  measure("list-append", EdfListScheduler(append));
  SchedulerOptions insertion;
  insertion.placement = PlacementPolicy::kInsertion;
  measure("list-insertion", EdfListScheduler(insertion));
  DispatchOptions dispatch;
  dispatch.abort_on_miss = false;
  measure("dispatch", EdfDispatchScheduler(dispatch));
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_scheduling",
                "Throughput benchmark of the allocation-free scheduler "
                "engine (list, insertion, dispatch).");
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
            : std::vector<std::size_t>{64, 128, 256, 512, 1024};

  std::printf("perf_scheduling: m=%zu, sizes:", processors);
  for (const std::size_t n : sizes) {
    std::printf(" %zu", n);
  }
  std::printf("%s\n\n", smoke ? " (smoke)" : "");

  std::vector<SizeReport> reports;
  bool clean = true;
  for (const std::size_t n : sizes) {
    SizeReport r = measure_size(n, processors, min_seconds);
    std::printf("n=%4zu ", r.tasks);
    for (const EngineRow& e : r.engines) {
      std::printf(" %s %.0f /s", e.name.c_str(), e.engine_per_sec);
      if (e.warm_grow_events != 0) {
        clean = false;
        std::printf(" grows=%llu",
                    static_cast<unsigned long long>(e.warm_grow_events));
      }
    }
    std::printf("\n");
    reports.push_back(std::move(r));
  }

  if (!clean) {
    std::fprintf(stderr, "FAIL: engine grew buffers on the warm path\n");
    return 1;
  }
  std::printf("\nwarm loops grew zero buffers: OK\n");

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
