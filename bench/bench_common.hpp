// Shared scaffolding for the figure-reproduction and ablation benches.
//
// Every bench binary follows the same recipe: parse the common flags, run a
// sweep on the shared thread pool, print the paper-style table plus an ASCII
// chart of the series, and drop a CSV next to the binary (best effort).
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "dsslice/dsslice.hpp"

namespace dsslice::bench {

/// Scratch-file path in the system temp directory (checkpoints and other
/// transient bench artifacts that must not land in the working tree).
inline std::string temp_path(const std::string& name) {
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  return (ec ? std::filesystem::path{"."} / name : dir / name).string();
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
  config.generator.graph_count =
      static_cast<std::size_t>(cli.get_int("graphs"));
  config.generator.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  return config;
}

inline ThreadPool make_pool(const CliParser& cli) {
  return ThreadPool(static_cast<std::size_t>(cli.get_int("threads")));
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
