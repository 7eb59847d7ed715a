// Shared scaffolding for the figure-reproduction, ablation and perf benches.
//
// Every figure/ablation binary follows the same recipe: parse the common
// flags, run a sweep on the shared thread pool, print the paper-style table
// plus an ASCII chart of the series, and drop a CSV next to the binary (best
// effort). The perf_* harnesses share the sized scenario population, the
// timing loop and the result document (PerfRow, finish_report) below.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsslice/dsslice.hpp"

namespace dsslice::bench {

/// Generator config for the perf harnesses' size rows: exactly `tasks` tasks
/// and a fixed seed, so every harness measures the same scenario population.
/// Depth scales as sqrt(n) so both depth and level width grow with n; a
/// tasks/5 rule would keep the width at ~5 tasks for every size and turn
/// large graphs into long chains with less ready-set pressure.
inline GeneratorConfig sized_config(std::size_t tasks,
                                    std::size_t processors) {
  GeneratorConfig cfg;
  cfg.platform.processor_count = processors;
  cfg.workload.min_tasks = tasks;
  cfg.workload.max_tasks = tasks;
  const auto depth = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(tasks))));
  cfg.workload.min_depth = std::max<std::size_t>(2, depth);
  cfg.workload.max_depth = std::max<std::size_t>(2, depth);
  cfg.base_seed = 0xBE7C;
  return cfg;
}

/// Runs `body` in doubling batches until at least `min_seconds` of wall time
/// and `min_reps` repetitions have accumulated; returns mean seconds per call.
template <typename F>
double time_per_call(double min_seconds, std::size_t min_reps, F&& body) {
  using Clock = std::chrono::steady_clock;
  std::size_t reps = 0;
  double elapsed = 0.0;
  std::size_t batch = 1;
  while (elapsed < min_seconds || reps < min_reps) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) {
      body();
    }
    elapsed += std::chrono::duration<double>(Clock::now() - t0).count();
    reps += batch;
    batch = std::min<std::size_t>(batch * 2, 4096);
  }
  return elapsed / static_cast<double>(reps);
}

/// Interleaved paired timing: alternating batches of the two bodies so
/// drift and bursts of load on a shared host hit both sides equally. The
/// batch stops doubling once a pair of batches lasts a sixteenth of the
/// window, so a burst spans batches of both sides instead of landing on one
/// long batch of one side. The
/// order within each iteration alternates too — on small machines the timer
/// interrupt pattern correlates with phase, and a fixed a-then-b order turns
/// that into a systematic bias on the side measured first. Returns the mean
/// seconds per call of `body_a` and of `body_b`.
template <typename A, typename B>
std::pair<double, double> time_per_call_pair(double min_seconds,
                                             std::size_t min_reps, A&& body_a,
                                             B&& body_b) {
  using Clock = std::chrono::steady_clock;
  std::size_t reps_a = 0, reps_b = 0;
  double elapsed_a = 0.0, elapsed_b = 0.0;
  std::size_t batch = 1;
  bool a_first = true;
  const auto run_a = [&](std::size_t n) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      body_a();
    }
    elapsed_a += std::chrono::duration<double>(Clock::now() - t0).count();
    reps_a += n;
  };
  const auto run_b = [&](std::size_t n) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      body_b();
    }
    elapsed_b += std::chrono::duration<double>(Clock::now() - t0).count();
    reps_b += n;
  };
  while (elapsed_a < min_seconds || elapsed_b < min_seconds ||
         reps_a < min_reps || reps_b < min_reps) {
    const double before = elapsed_a + elapsed_b;
    if (a_first) {
      run_a(batch);
      run_b(batch);
    } else {
      run_b(batch);
      run_a(batch);
    }
    a_first = !a_first;
    if (elapsed_a + elapsed_b - before < min_seconds / 16.0) {
      batch = std::min<std::size_t>(batch * 2, 4096);
    }
  }
  return {elapsed_a / static_cast<double>(reps_a),
          elapsed_b / static_cast<double>(reps_b)};
}

/// Instruction-set description of this build/machine pair: the ISA baseline
/// the compiler was allowed to assume (compile-time macros) and, on x86, the
/// best SIMD level the running CPU actually reports. Perf numbers — the
/// batch kernel's in particular — are only comparable within one ISA
/// envelope, so the JSON reports carry both.
inline std::string isa_compiled() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

inline std::string isa_runtime() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) {
    return "avx512f";
  }
  if (__builtin_cpu_supports("avx2")) {
    return "avx2";
  }
  if (__builtin_cpu_supports("avx")) {
    return "avx";
  }
  if (__builtin_cpu_supports("sse2")) {
    return "sse2";
  }
  return "x86-baseline";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

/// JSON object describing the measurement context: worker thread count,
/// hardware concurrency, compiler, build mode, architecture and SIMD ISA
/// (compiled baseline vs runtime capability). Embedded in the perf JSON
/// reports (BENCH_*.json) so committed numbers carry their provenance.
inline std::string machine_json(std::size_t threads) {
  std::string out = "{\"threads\": " + std::to_string(threads);
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
#if defined(__VERSION__)
  out += ", \"compiler\": \"" + std::string(__VERSION__) + "\"";
#endif
#if defined(NDEBUG)
  out += ", \"build\": \"release\"";
#else
  out += ", \"build\": \"debug\"";
#endif
#if defined(__x86_64__)
  out += ", \"arch\": \"x86_64\"";
#elif defined(__aarch64__)
  out += ", \"arch\": \"aarch64\"";
#else
  out += ", \"arch\": \"other\"";
#endif
  out += ", \"isa_compiled\": \"" + isa_compiled() + "\"";
  out += ", \"isa_runtime\": \"" + isa_runtime() + "\"";
  out += "}";
  return out;
}

// True in AddressSanitizer builds. Instrumentation inflates the two sides of
// a timing ratio by different factors (the lane engine's bitset walks
// shadow-check every word), so timing gates do not apply there.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kInstrumented = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kInstrumented = true;
#else
inline constexpr bool kInstrumented = false;
#endif
#else
inline constexpr bool kInstrumented = false;
#endif

/// One row of the document every perf_* harness writes (BENCH_*.json) and
/// scripts/bench_compare.py reads: one measured quantity. Its score is
/// value / baseline for a ratio row (two library paths timed in the same
/// run, so machine speed cancels out), else value. The unit says which way
/// is better: a rate ("1/s") is better higher, anything else lower. The
/// gates bound the score: `gate_eq` is an invariant, a count that must be
/// exact, checked in every build; `gate_min` / `gate_max` bound a timing and
/// are skipped in sanitizer builds.
struct PerfRow {
  std::string layer;  ///< pipeline layer, named as in the repo benchmark
  std::string name;   ///< unique within the layer
  std::string unit;   ///< unit of value and baseline
  double value = 0.0;
  std::optional<double> baseline;
  std::optional<double> gate_eq;
  std::optional<double> gate_min;
  std::optional<double> gate_max;

  double score() const { return baseline ? value / *baseline : value; }
};

/// A row with no baseline or gates.
inline PerfRow make_row(std::string layer, std::string name, std::string unit,
                        double value) {
  PerfRow row;
  row.layer = std::move(layer);
  row.name = std::move(name);
  row.unit = std::move(unit);
  row.value = value;
  return row;
}

/// A count that must stay zero: warm-loop buffer growth, analysis rebuilds,
/// diverging engines.
inline PerfRow zero_row(std::string layer, std::string name,
                        std::uint64_t count) {
  PerfRow row = make_row(std::move(layer), std::move(name), "count",
                         static_cast<double>(count));
  row.gate_eq = 0.0;
  return row;
}

/// Whether `row` passes the gates that apply to this build; prints each
/// failure to stderr.
inline bool gates_pass(const PerfRow& row) {
  const double score = row.score();
  bool pass = true;
  const auto check = [&](bool ok, const char* relation, double bound) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s/%s: %g %s %g\n", row.layer.c_str(),
                   row.name.c_str(), score, relation, bound);
      pass = false;
    }
  };
  if (row.gate_eq) {
    check(score == *row.gate_eq, "!=", *row.gate_eq);
  }
  if (!kInstrumented && row.gate_min) {
    check(score >= *row.gate_min, "<", *row.gate_min);
  }
  if (!kInstrumented && row.gate_max) {
    check(score <= *row.gate_max, ">", *row.gate_max);
  }
  return pass;
}

inline std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", v);
  return buffer;
}

/// The perf document: harness name, machine provenance, run parameters (a
/// JSON object) and the rows.
inline std::string perf_json(const std::string& benchmark,
                             const std::string& params,
                             const std::vector<PerfRow>& rows) {
  const auto or_null = [](const std::optional<double>& v) {
    return v ? json_number(*v) : std::string("null");
  };
  std::string out = "{\n  \"benchmark\": \"" + benchmark + "\",\n";
  out += "  \"machine\": " + machine_json(1) + ",\n";
  out += "  \"params\": " + params + ",\n";
  out += "  \"rows\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const PerfRow& r = rows[k];
    std::string gates;
    const auto gate = [&](const char* key, const std::optional<double>& v) {
      if (v) {
        gates += std::string(gates.empty() ? "" : ", ") + "\"" + key +
                 "\": " + json_number(*v);
      }
    };
    gate("eq", r.gate_eq);
    gate("min", r.gate_min);
    gate("max", r.gate_max);
    out += "    {\"layer\": \"" + r.layer + "\", \"name\": \"" + r.name +
           "\", \"unit\": \"" + r.unit +
           "\", \"value\": " + json_number(r.value) +
           ", \"baseline\": " + or_null(r.baseline) +
           ", \"gates\": {" + gates + "}}";
    out += (k + 1 < rows.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// Ends a perf harness: prints the rows, checks their gates and writes the
/// document to `json_path` when it is set. Returns the exit code: 1 when a
/// gate failed or the document could not be written.
inline int finish_report(const std::string& benchmark,
                         const std::string& params,
                         const std::vector<PerfRow>& rows,
                         const std::string& json_path) {
  Table table({"layer", "row", "value", "unit", "baseline", "score", "gates"});
  bool ok = true;
  for (const PerfRow& row : rows) {
    const bool pass = gates_pass(row);
    ok = ok && pass;
    const bool gated = row.gate_eq || row.gate_min || row.gate_max;
    table.add_row({row.layer, row.name, json_number(row.value), row.unit,
                   row.baseline ? json_number(*row.baseline) : "",
                   row.baseline ? json_number(row.score()) + "x" : "",
                   gated ? (pass ? "ok" : "FAIL") : ""});
  }
  std::printf("%s\n", table.to_string(2).c_str());
  if (kInstrumented) {
    std::printf("sanitizer build: timing gates not checked\n");
  }
  if (!json_path.empty()) {
    if (write_text_file(json_path, perf_json(benchmark, params, rows))) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      ok = false;
    }
  }
  std::printf("%s: %s\n", benchmark.c_str(),
              ok ? "all gates passed" : "FAILED");
  return ok ? 0 : 1;
}

/// Registers the flags every bench shares.
inline CliParser make_parser(const std::string& name,
                             const std::string& description) {
  CliParser p(name, description);
  p.add_flag("graphs", "1024", "task graphs per experiment point (paper: 1024)");
  p.add_flag("seed", "20250707", "base seed for workload generation");
  p.add_flag("threads", "0", "worker threads (0 = hardware concurrency)");
  p.add_flag("csv", "", "write the sweep as CSV to this path");
  p.add_bool_flag("verbose", "progress on stderr");
  obs::ObsCli::register_flags(p);
  return p;
}

/// Observability session bound to a scope: arms tracing from the parsed
/// flags, writes --trace/--metrics/--obs-summary output when the scope ends.
/// Declare one right after parsing in a bench's main().
class ObsScope {
 public:
  explicit ObsScope(const CliParser& cli) : session_(cli) {}
  ~ObsScope() { session_.finish(); }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  obs::ObsCli session_;
};

/// Baseline experiment configuration from the common flags (paper defaults:
/// m=3, OLR=0.8, ETD=25%, CCR=0.1, WCET-AVG, k_G=1.5, k_L=0.2).
inline ExperimentConfig base_config(const CliParser& cli) {
  ExperimentConfig config;
  config.generator.graph_count = cli.get_count("graphs");
  config.generator.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  return config;
}

/// The pool for --threads; a count the pool refuses (above
/// ThreadPool::kMaxThreads) is reported with exit code 1.
inline ThreadPool make_pool(const CliParser& cli) {
  const std::size_t threads = cli.get_count("threads");
  try {
    return ThreadPool(threads);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "--threads: %s\n", e.what());
    std::exit(1);
  }
}

/// Prints the sweep in paper-figure form: headline, table, chart.
inline void report(const std::string& title, const SweepResult& sweep,
                   const CliParser& cli) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("   (success ratio over %lld task graphs per point, "
              "95%% binomial CI)\n\n",
              static_cast<long long>(cli.get_int("graphs")));
  std::fputs(format_sweep_table(sweep).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(format_sweep_chart(sweep).c_str(), stdout);
  if (sweep.scenarios > 0 && sweep.wall_seconds > 0.0) {
    std::printf("\n%zu scenarios in %.2f s (%.0f scenarios/sec)\n",
                sweep.scenarios, sweep.wall_seconds,
                sweep.scenarios_per_second());
  }
  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    if (write_text_file(csv_path, to_csv(sweep))) {
      std::printf("\nCSV written to %s\n", csv_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", csv_path.c_str());
    }
  }
  std::fputs("\n", stdout);
}

}  // namespace dsslice::bench
