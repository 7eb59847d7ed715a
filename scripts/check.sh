#!/usr/bin/env bash
# Full verification: build + test the default (Release) and sanitize
# (ASan/UBSan) presets. Run from anywhere; operates on the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

jobs="$(nproc 2>/dev/null || echo 4)"

for preset in default sanitize; do
  echo "==> configure [$preset]"
  cmake --preset "$preset"
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test [$preset]"
  ctest --preset "$preset" -j "$jobs"
done

# Repository benchmark smoke (benchmark/run.py, its own Release build): every
# workload at 1/16 size with every correctness check, including the golden
# digests and per-cell figure success counts in benchmark/golden.json, so a
# change that moves a single figure count or aggregate bit fails here.
echo "==> benchmark smoke"
python3 benchmark/run.py --smoke

# Smoke pass of the perf harnesses (tiny sizes): catches regressions in the
# benches themselves and asserts the cached hot paths build zero analyses /
# grow zero scheduler buffers. perf_scheduling also re-checks bit-identity
# against the legacy schedulers, so it runs under both presets — the
# sanitize build would catch any UB the equivalence relies on. Each run is
# two passes, mirroring scripts/bench.sh: a timed pass with recording off
# whose JSON is diffed against the committed BENCH_scheduling.json speedups
# (scripts/bench_compare.py — perf regressions fail loudly), and a short
# instrumented pass whose trace/metrics are validated by tools/trace_check
# and must carry the dispatcher event-queue counters.
echo "==> bench smoke [perf_slicing]"
mkdir -p ./build/slicing-smoke
./build/bench/perf_slicing --smoke --json ./build/slicing-smoke/slicing.json
python3 scripts/bench_compare.py ./build/slicing-smoke/slicing.json \
  --baseline BENCH_slicing.json --tolerance 0.6

# Batch slicing kernel smoke: the lanes64-vs-reference A/B under both
# presets. The bit-identity and zero-allocation gates must hold under
# ASan/UBSan too; the absolute ADAPT-L speedup floor only applies to the
# Release run (sanitizer instrumentation skews the two engines by different
# factors, so the sanitize pass compares --correctness-only). A short
# instrumented pass validates the kernel's batch.* spans and counters.
batch_smoke() {
  local build="$1"; shift
  local tag="${build##*/}"
  local out="$build/slicing-batch-smoke"
  mkdir -p "$out"
  "$build/bench/perf_slicing_batch" --smoke \
    --json "$out/batch.json" > "$out/stdout.txt"
  python3 scripts/bench_compare.py "$out/batch.json" \
    --baseline BENCH_slicing_batch.json --tolerance 0.6 "$@"
  "$build/bench/perf_slicing_batch" --smoke \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" > /dev/null
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  for counter in batch.scenarios batch.passes; do
    grep -q "$counter" "$out/metrics.jsonl" ||
      { echo "batch smoke [$tag]: metrics missing $counter" >&2; exit 1; }
  done
}
echo "==> bench smoke [perf_slicing_batch, default]"
batch_smoke ./build
echo "==> bench smoke [perf_slicing_batch, sanitize]"
batch_smoke ./build-sanitize --correctness-only
scheduling_smoke() {
  local build="$1"; shift
  local tag="${build##*/}"
  local out="$build/scheduling-smoke"
  mkdir -p "$out"
  "$build/bench/perf_scheduling" --smoke \
    --json "$out/scheduling.json" > "$out/stdout.txt"
  "$build/bench/perf_scheduling" --smoke \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" > /dev/null
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  for counter in sched.dispatch.heap_ops sched.dispatch.queue_depth; do
    grep -q "$counter" "$out/metrics.jsonl" ||
      { echo "scheduling smoke [$tag]: metrics missing $counter" >&2;
        exit 1; }
  done
  # Smoke timings are short, so the band is wide; scripts/bench.sh numbers
  # feed the committed baseline with longer windows. The sanitize pass runs
  # --correctness-only: ASan/UBSan inflates the engine and legacy sides by
  # different factors, so its speedups are not comparable to the Release
  # baseline — only the identity and zero-allocation gates apply there.
  python3 scripts/bench_compare.py "$out/scheduling.json" \
    --baseline BENCH_scheduling.json --tolerance 0.6 "$@"
}
echo "==> bench smoke [perf_scheduling, default]"
scheduling_smoke ./build
echo "==> bench smoke [perf_scheduling, sanitize]"
scheduling_smoke ./build-sanitize --correctness-only

# Sweep smoke: the batched sweep engine on a tiny scenario count, under both
# presets. perf_sweep --smoke re-checks the bit-identity gates (batched vs
# single generation, resume vs uninterrupted, 1 vs N threads) and the
# steady-state zero-allocation gate — all of which must also hold under
# ASan/UBSan — and its JSON is diffed against the committed BENCH_sweep.json.
# A short instrumented sweep_runner pass then validates the engine's
# trace/metrics exports with tools/trace_check.
sweep_smoke() {
  local build="$1"; shift
  local tag="${build##*/}"
  local out="$build/sweep-smoke"
  mkdir -p "$out"
  "$build/bench/perf_sweep" --smoke --json "$out/sweep.json" \
    --checkpoint "$out/bench.ckpt" > "$out/stdout.txt"
  python3 scripts/bench_compare.py "$out/sweep.json" \
    --baseline BENCH_sweep.json --tolerance 0.6 "$@"
  "$build/tools/sweep_runner" --scenarios 2048 --shard-size 256 \
    --checkpoint "$out/runner.ckpt" --checkpoint-every 2 \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" > /dev/null
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  for counter in sweep.shards_completed sweep.checkpoints_written \
                 sweep.scenarios_per_sec; do
    grep -q "$counter" "$out/metrics.jsonl" ||
      { echo "sweep smoke [$tag]: metrics missing $counter" >&2; exit 1; }
  done
}
echo "==> sweep smoke [default]"
sweep_smoke ./build
echo "==> sweep smoke [sanitize]"
sweep_smoke ./build-sanitize --correctness-only

# Degradation smoke: the graceful-degradation surface on a tiny grid, under
# both presets (the sanitize pass covers the shed/migrate recovery paths and
# the degraded-mode dispatch prologue under ASan/UBSan). The exported trace
# and JSONL metrics are validated by tools/trace_check; the metrics must
# include the recovery.shed_tasks counter the sweep is expected to hit.
degradation_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/degradation-smoke"
  mkdir -p "$out"
  "$build/bench/fig_degradation" --smoke \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" \
    --json "$out/surface.json" > "$out/stdout.txt"
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  grep -q "recovery.shed_tasks" "$out/metrics.jsonl" ||
    { echo "degradation smoke [$tag]: metrics missing shed counter" >&2;
      exit 1; }
}
echo "==> degradation smoke [default]"
degradation_smoke ./build
echo "==> degradation smoke [sanitize]"
degradation_smoke ./build-sanitize

# Observability smoke: a small sweep exporting a Chrome trace + JSONL
# metrics, validated by tools/trace_check, under both presets (the sanitize
# pass exercises the ring/accumulator paths under ASan/UBSan). The perf_obs
# overhead gates run after the streaming smoke below.
obs_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/obs-smoke"
  mkdir -p "$out"
  "$build/examples/experiment_runner" --graphs 16 \
    --trace "$out/trace.json" --metrics "$out/metrics.jsonl" \
    --obs-summary > "$out/summary.txt"
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  # run_experiment runs one sweep shard through the batch slicing kernel.
  for span in batch.slice.run sweep.shard; do
    grep -q "$span" "$out/summary.txt" ||
      { echo "obs smoke [$tag]: summary missing $span span" >&2; exit 1; }
  done
}
echo "==> obs smoke [default]"
obs_smoke ./build
echo "==> obs smoke [sanitize]"
obs_smoke ./build-sanitize

# Streaming obs smoke: a checkpointed sweep watched live by the StreamSink
# (status heartbeat + metrics-delta stream + Chrome-trace chunks), under
# both presets (the sanitize pass runs the concurrent ring-drain path under
# ASan/UBSan). The stream's final cumulative values must reconcile exactly
# — bit-for-bit — with the quiescent snapshot export (obs_tail --check
# --against), and a chunk file cut mid-write at an arbitrary byte (what a
# mid-run reader sees under stdio buffering) must still validate as a
# truncated stream.
stream_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/stream-smoke"
  mkdir -p "$out"
  rm -f "$out/sweep.ckpt"
  "$build/tools/sweep_runner" --scenarios 10000 --shard-size 512 \
    --checkpoint "$out/sweep.ckpt" --checkpoint-every 4 \
    --status-file "$out/status.json" \
    --metrics-stream "$out/stream.jsonl" \
    --trace-stream "$out/chunks.json" \
    --metrics "$out/final.jsonl" > "$out/stdout.txt"
  "$build/tools/trace_check" --streaming "$out/chunks.json"
  "$build/tools/trace_check" --jsonl --streaming "$out/stream.jsonl"
  "$build/tools/trace_check" --jsonl "$out/final.jsonl"
  "$build/tools/obs_tail" --check --against "$out/final.jsonl" \
    "$out/stream.jsonl"
  head -c 10000 "$out/chunks.json" > "$out/chunks.trunc.json"
  "$build/tools/trace_check" --streaming "$out/chunks.trunc.json"
  grep -q '"type":"heartbeat"' "$out/status.json" &&
    grep -q '"sweep":true' "$out/status.json" ||
    { echo "stream smoke [$tag]: status file missing sweep heartbeat" >&2;
      exit 1; }
  for counter in sweep.progress.scenarios_done sweep.progress.wave \
                 sweep.checkpoint.save_ms sweep.checkpoint.bytes; do
    grep -q "$counter" "$out/final.jsonl" ||
      { echo "stream smoke [$tag]: metrics missing $counter" >&2; exit 1; }
  done
}
echo "==> stream smoke [default]"
stream_smoke ./build
echo "==> stream smoke [sanitize]"
stream_smoke ./build-sanitize

# perf_obs gates the runtime-disabled overhead at <=2% and the streaming
# (StreamSink attached) overhead at <=5%; its JSON is diffed against the
# committed BENCH_obs.json with an additive overhead band.
echo "==> obs overhead gate [perf_obs]"
mkdir -p ./build/obs-smoke
./build/bench/perf_obs --smoke --json ./build/obs-smoke/perf_obs.json
python3 scripts/bench_compare.py ./build/obs-smoke/perf_obs.json \
  --baseline BENCH_obs.json --tolerance 0.6

echo "All checks passed."
