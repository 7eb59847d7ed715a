// P4: throughput harness for the allocation-free scheduler engine.
//
// Measures, per graph size, the per-scenario throughput of the engine's
// run_into path (binary ready heap, cached CSR adjacency, reusable
// SchedulerWorkspace buffers) for:
//  * the EDF list scheduler, append and insertion placement;
//  * the time-marching EDF dispatcher (flat arc factors, devirtualized
//    shared-bus delay, workspace-backed state).
//
// The rate rows are absolute scenarios/sec, so scripts/bench_compare.py
// prints them against the committed baseline without banding them.
// Bit-identity with the pre-engine schedulers is pinned by
// tests/test_scheduler_equivalence.cpp, and the repo benchmark
// (benchmark/, its sched.* layers and the sweep-dispatch-wide workload)
// gates scheduler cost. Each engine's warm loop must perform zero
// scheduler-state allocations (SchedulerWorkspace::grow_events), a gated
// row. Writes BENCH_scheduling.json.
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

void measure_size(std::size_t tasks, std::size_t processors,
                  double min_seconds, std::vector<bench::PerfRow>& rows) {
  const std::string size = "n=" + std::to_string(tasks) + " ";
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

  // Two rows per engine, its rate and its warm growth: two passes over every
  // seed size every buffer and settle the result-shell reuse, then the
  // timed loop must never grow a buffer. Each timed call covers all
  // kRowSeeds scenarios, so per-sec rates divide by the seed count.
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
    const std::uint64_t grow_before = ws.grow_events();
    rows.push_back(bench::make_row(
        "sched", size + name, "1/s",
        static_cast<double>(kRowSeeds) /
            bench::time_per_call(min_seconds, 3, run_all)));
    rows.push_back(bench::zero_row("sched", size + name + " warm grow events",
                                   ws.grow_events() - grow_before));
  };

  SchedulerOptions append;
  measure("list-append", EdfListScheduler(append));
  SchedulerOptions insertion;
  insertion.placement = PlacementPolicy::kInsertion;
  measure("list-insertion", EdfListScheduler(insertion));
  DispatchOptions dispatch;
  dispatch.abort_on_miss = false;
  measure("dispatch", EdfDispatchScheduler(dispatch));
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
  const auto processors = cli.get_count("processors");
  const bool smoke = cli.get_bool("smoke");
  const double min_seconds =
      (smoke ? 5.0 : static_cast<double>(cli.get_int("min-ms"))) / 1000.0;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024};

  std::printf("perf_scheduling: m=%zu, %zu seeds per row, sizes:", processors,
              kRowSeeds);
  for (const std::size_t n : sizes) {
    std::printf(" %zu", n);
  }
  std::printf("%s\n\n", smoke ? " (smoke)" : "");

  std::vector<bench::PerfRow> rows;
  for (const std::size_t n : sizes) {
    measure_size(n, processors, min_seconds, rows);
  }
  const int status = bench::finish_report(
      "perf_scheduling",
      "{\"processors\": " + std::to_string(processors) +
          ", \"seeds_per_row\": " + std::to_string(kRowSeeds) + "}",
      rows, cli.get_string("json"));
  obs_session.finish();
  return status;
}
