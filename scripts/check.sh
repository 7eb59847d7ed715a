#!/usr/bin/env bash
# Full verification: build + test the default (Release) and sanitize
# (ASan/UBSan) presets. Run from anywhere; operates on the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

jobs="$(nproc 2>/dev/null || echo 4)"

# Every configure below disables the lookup of the third-party benchmark
# package, which the build does not need: a reintroduced REQUIRED lookup of
# it fails configure ("A REQUIRED package cannot be disabled").
no_benchmark=-DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON

for preset in default sanitize; do
  echo "==> configure [$preset]"
  cmake --preset "$preset" "$no_benchmark"
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

# The committed end-to-end record, BENCH_benchmark.json (written by
# `python3 benchmark/run.py --runs 5 --out BENCH_benchmark.json`), must parse
# and hold 5 runs of each workload BENCHMARK.json declares, every run with
# no failed check. Runs at the golden seed must carry the digest and success
# count that benchmark/golden.json pins for full-size runs.
echo "==> benchmark record [BENCH_benchmark.json]"
python3 - <<'PY'
import json
import sys

record = json.load(open("BENCH_benchmark.json", encoding="utf-8"))
golden = json.load(open("benchmark/golden.json", encoding="utf-8"))
spec = json.load(open("BENCHMARK.json", encoding="utf-8"))
names = [w["name"] for w in spec["workloads"]]
problems = []
if sorted(record["workloads"]) != sorted(names):
    problems.append(f"workloads {sorted(record['workloads'])}, "
                    f"expected {sorted(names)}")
for name in names:
    runs = record["workloads"].get(name, [])
    if len(runs) != 5:
        problems.append(f"{name}: {len(runs)} runs, expected 5")
    for i, run in enumerate(runs):
        if run["failed"] != 0:
            problems.append(f"{name} run {i}: {run['failed']} failed checks")
        if run["seed"] == golden["seed"] and run["scale"] == 1:
            pinned = golden["full"][name]
            for key in ("digest", "successes"):
                if run[key] != pinned[key]:
                    problems.append(f"{name} run {i}: {key} {run[key]}, "
                                    f"golden {pinned[key]}")
for problem in problems:
    print(f"BENCH_benchmark.json: {problem}", file=sys.stderr)
sys.exit(1 if problems else 0)
PY

# Traced smokes, one table row per driver, each run under both presets: the
# sanitize pass covers the scheduler workspaces, the batch kernel, the
# shed/migrate recovery paths and the obs rings under ASan/UBSan. A row is
#   command (relative to the build tree; @out stands for the row's output
#   directory) | names its --metrics export must carry | the committed
#   BENCH_*.json a perf harness is compared against
# Every row runs one instrumented pass whose trace and metrics
# tools/trace_check validates. A perf harness row first runs a timed pass
# with recording off and compares its --json document against the baseline
# with scripts/bench_compare.py; the sanitize pass compares
# --correctness-only, because instrumentation skews timings, so only the
# invariant gates (bit-identity, zero warm growth, zero rebuilds) apply
# there. Bit-identity with the pre-engine schedulers is the ctest
# equivalence suite's job. experiment_runner must show batch.slice.run and
# sweep.shard spans because run_experiment runs one sweep shard through the
# batch slicing kernel. ablation_annealing must show sched.list.run spans
# because the annealer replays every mapping through the list scheduler.
smokes=(
  "bench/perf_slicing --smoke|batch.scenarios batch.passes|BENCH_slicing.json"
  "bench/perf_scheduling --smoke|sched.dispatch.events sched.dispatch.rescans|BENCH_scheduling.json"
  "bench/fig_degradation --smoke --json @out/surface.json|recovery.shed_tasks|"
  "examples/experiment_runner --graphs 16 --obs-summary|batch.slice.run sweep.shard|"
  "bench/ablation_annealing --graphs 8 --iterations 50|sched.anneal.runs sched.list.run|"
)
smoke() {
  local build="$1" row="$2"; shift 2
  local cmd metrics baseline
  IFS='|' read -r cmd metrics baseline <<< "$row"
  local bin="${cmd%% *}"
  local tag="${bin##*/}, ${build##*/}"
  local out="$build/smoke/${bin##*/}"
  mkdir -p "$out"
  cmd="${cmd//@out/$out}"
  # $cmd is a command line: it is split into words on purpose.
  if [[ -n "$baseline" ]]; then
    "$build"/$cmd --json "$out/result.json" > "$out/timed.txt"
    python3 scripts/bench_compare.py "$out/result.json" \
      --baseline "$baseline" --tolerance 0.6 "$@"
  fi
  "$build"/$cmd --trace "$out/trace.json" --metrics "$out/metrics.jsonl" \
    > "$out/traced.txt"
  "$build/tools/trace_check" "$out/trace.json"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  for name in $metrics; do
    grep -q "\"name\":\"$name\"" "$out/metrics.jsonl" ||
      { echo "smoke [$tag]: metrics missing $name" >&2; exit 1; }
  done
}
for row in "${smokes[@]}"; do
  echo "==> smoke [${row%%|*}, default]"
  smoke ./build "$row"
  echo "==> smoke [${row%%|*}, sanitize]"
  smoke ./build-sanitize "$row" --correctness-only
done

# Streaming obs smoke: a checkpointed sweep watched live by the StreamSink
# (status heartbeat + metrics-delta stream + Chrome-trace chunks), under
# both presets (the sanitize pass runs the concurrent ring-drain path under
# ASan/UBSan). The stream's final cumulative values must reconcile exactly
# — bit-for-bit — with the quiescent snapshot export (obs_tail --check
# --against), and a chunk file cut mid-write at an arbitrary byte (what a
# mid-run reader sees under stdio buffering) must still validate as a
# truncated stream. The final export must carry the engine's progress,
# shard, checkpoint and throughput metrics.
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
                 sweep.checkpoint.save_ms sweep.checkpoint.bytes \
                 sweep.shards_completed sweep.checkpoints_written \
                 sweep.scenarios_per_sec; do
    grep -q "$counter" "$out/final.jsonl" ||
      { echo "stream smoke [$tag]: metrics missing $counter" >&2; exit 1; }
  done
  # Interrupt and resume: the same sweep stopped after 4 shards and resumed
  # from its own checkpoint must print the uninterrupted run's aggregate
  # summary (the first line), and the resumed run must mark its load. Both
  # runs end with every shard complete, so their final checkpoints hold the
  # same folded aggregate in both slots and must match byte for byte. A copy
  # relabelled as format version 1 (one aggregate per shard) and a version 2
  # file (the bare state text of one slot, as earlier builds wrote it) must
  # be refused by name.
  rm -f "$out/resume.ckpt"
  "$build/tools/sweep_runner" --scenarios 10000 --shard-size 512 \
    --checkpoint "$out/resume.ckpt" --max-shards 4 > "$out/partial.txt"
  "$build/tools/sweep_runner" --scenarios 10000 --shard-size 512 \
    --checkpoint "$out/resume.ckpt" --resume \
    --metrics "$out/resumed.jsonl" > "$out/resumed.txt"
  [[ "$(head -n 1 "$out/resumed.txt")" == "$(head -n 1 "$out/stdout.txt")" ]] ||
    { echo "stream smoke [$tag]: resumed summary differs from the" \
           "uninterrupted run" >&2; exit 1; }
  grep -q '"name":"sweep.checkpoint.load_ms"' "$out/resumed.jsonl" ||
    { echo "stream smoke [$tag]: resumed metrics missing" \
           "sweep.checkpoint.load_ms" >&2; exit 1; }
  cmp "$out/sweep.ckpt" "$out/resume.ckpt" ||
    { echo "stream smoke [$tag]: resumed checkpoint differs from the" \
           "uninterrupted run's" >&2; exit 1; }
  # The scalar run_slicing route, the batch kernel's one reference, must
  # print the kernel run's aggregate summary.
  "$build/tools/sweep_runner" --scenarios 10000 --shard-size 512 \
    --no-batch-kernel > "$out/no-kernel.txt"
  [[ "$(head -n 1 "$out/no-kernel.txt")" == "$(head -n 1 "$out/stdout.txt")" ]] ||
    { echo "stream smoke [$tag]: --no-batch-kernel summary differs from" \
           "the kernel run" >&2; exit 1; }
  # parallel_for runs the shards inline on a one-worker pool and on pool
  # lanes otherwise (4 shards of 1024 over 3 workers): both must print the
  # same aggregate summary.
  "$build/tools/sweep_runner" --scenarios 4096 --threads 1 > "$out/threads1.txt"
  "$build/tools/sweep_runner" --scenarios 4096 --threads 3 > "$out/threads3.txt"
  [[ "$(head -n 1 "$out/threads1.txt")" == "$(head -n 1 "$out/threads3.txt")" ]] ||
    { echo "stream smoke [$tag]: --threads 1 and --threads 3 summaries" \
           "differ" >&2; exit 1; }
  # A malformed count is a ConfigError naming the flag, with exit code 1
  # (not an uncaught exception, and not a negative value wrapped to a huge
  # size).
  local bad status
  for bad in abc -1; do
    status=0
    "$build/tools/sweep_runner" --scenarios "$bad" > /dev/null \
      2> "$out/bad-flag.err" || status=$?
    [[ $status -eq 1 ]] && grep -q -- "--scenarios" "$out/bad-flag.err" ||
      { echo "stream smoke [$tag]: --scenarios $bad was not refused with" \
             "exit 1 (exit $status)" >&2; exit 1; }
  done
  # A worker count above ThreadPool::kMaxThreads is refused the same way,
  # before any worker starts.
  status=0
  "$build/tools/sweep_runner" --scenarios 10 --threads 1025 > /dev/null \
    2> "$out/bad-threads.err" || status=$?
  [[ $status -eq 1 ]] && grep -q "at most 1024" "$out/bad-threads.err" ||
    { echo "stream smoke [$tag]: --threads 1025 was not refused with exit 1" \
           "(exit $status)" >&2; exit 1; }
  sed '1s/^dsslice-sweep-checkpoint 3$/dsslice-sweep-checkpoint 1/' \
    "$out/resume.ckpt" > "$out/v1.ckpt"
  sed -n '/^dsslice-sweep-checkpoint 2$/,/^end$/{p;/^end$/q;}' \
    "$out/resume.ckpt" > "$out/v2.ckpt"
  local version
  for version in 1 2; do
    status=0
    "$build/tools/sweep_runner" --scenarios 10000 --shard-size 512 \
      --checkpoint "$out/v$version.ckpt" --resume > /dev/null \
      2> "$out/v$version.err" || status=$?
    [[ $status -ne 0 ]] &&
      grep -q "unsupported checkpoint format version $version" \
        "$out/v$version.err" ||
      { echo "stream smoke [$tag]: a version $version checkpoint was not" \
             "refused (exit $status)" >&2; exit 1; }
  done
}
echo "==> stream smoke [default]"
stream_smoke ./build
echo "==> stream smoke [sanitize]"
stream_smoke ./build-sanitize

# Scenario-file smoke, under both presets: a generated scenario must load
# back through the text codec as written and as a CRLF copy, with the same
# analysis, and a copy whose task count is spelled "+1" must be refused as a
# non-canonical integer with exit 1.
scenario_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/scenario-smoke"
  local tools="$build/examples/scenario_tools"
  mkdir -p "$out"
  "$tools" --mode generate --seed 7 --out "$out/scenario.txt" > /dev/null
  "$tools" --mode analyze --in "$out/scenario.txt" > "$out/analyze.txt"
  sed 's/$/\r/' "$out/scenario.txt" > "$out/crlf.txt"
  "$tools" --mode analyze --in "$out/crlf.txt" > "$out/analyze-crlf.txt"
  cmp -s "$out/analyze.txt" "$out/analyze-crlf.txt" ||
    { echo "scenario smoke [$tag]: the CRLF copy analyzes differently" >&2;
      exit 1; }
  sed 's/^tasks [0-9]*$/tasks +1/' "$out/scenario.txt" > "$out/plus.txt"
  local status=0
  "$tools" --mode analyze --in "$out/plus.txt" > /dev/null \
    2> "$out/plus.err" || status=$?
  [[ $status -eq 1 ]] && grep -q "not an unsigned integer: +1" "$out/plus.err" ||
    { echo "scenario smoke [$tag]: a '+1' task count was not refused" \
           "(exit $status)" >&2; exit 1; }
}
echo "==> scenario smoke [default]"
scenario_smoke ./build
echo "==> scenario smoke [sanitize]"
scenario_smoke ./build-sanitize

# Figure smoke, under both presets: Fig. 2 at 8 graphs per point has 7 rows
# (one per m) of 4 metric cells. Each of its 56 task sets must be generated
# and analysed once and evaluated under all 4 metrics, so these counter
# totals are exact.
figure_smoke() {
  local build="$1"
  local tag="${build##*/}"
  local out="$build/figure-smoke"
  mkdir -p "$out"
  "$build/bench/fig2_system_size" --graphs 8 --threads 2 \
    --metrics "$out/metrics.jsonl" > "$out/stdout.txt"
  "$build/tools/trace_check" --jsonl "$out/metrics.jsonl"
  local pair counter want got
  for pair in gen.scenarios=56 analysis.builds=56 batch.scenarios=224 \
              sched.list.runs=224; do
    counter="${pair%=*}"
    want="${pair#*=}"
    got="$(grep -o "\"name\":\"$counter\",\"count\":[0-9]*,\"total\":[0-9]*" \
             "$out/metrics.jsonl" | grep -o '[0-9]*$' || true)"
    [[ "$got" == "$want" ]] ||
      { echo "figure smoke [$tag]: $counter total is ${got:-missing}," \
             "expected $want" >&2; exit 1; }
  done
}
echo "==> figure smoke [default]"
figure_smoke ./build
echo "==> figure smoke [sanitize]"
figure_smoke ./build-sanitize

# Race detector (tsan preset, ThreadSanitizer) over the whole suite: the
# thread pool, the sweep engine's shards and per-thread arenas, figure rows
# whose pool workers write per-cell outcome slots, the StreamSink ring
# drain, pool workers reading one shared application's graph and lazily
# built analysis, and every single-threaded suite besides (about 11 s; see
# docs/PERFORMANCE.md). The preset builds dsslice_tests only.
echo "==> tsan [whole suite]"
cmake --preset tsan "$no_benchmark"
cmake --build --preset tsan -j "$jobs"
./build-tsan/tests/dsslice_tests

# FMA build: with -march=x86-64-v3 the compiler may fuse a*b+c into an FMA
# instruction wherever the source allows it, and may emit popcnt, roundsd
# and cmov for the branch-free helpers and selects. The library compiles
# with -ffp-contract=off, so the batch kernel, the scenario generator, the
# sweep engine, the pinned figure digests, the branch-free helpers and heap,
# the scheduler and slicing equivalence suites, and the task graph and graph
# analysis suites must still match bit for bit. Only on CPUs with FMA and
# AVX2, where an x86-64-v3 binary can run.
if grep -qw fma /proc/cpuinfo 2>/dev/null &&
   grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  echo "==> fma build [x86-64-v3, bit-identity suites]"
  cmake -S . -B build-fma -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-march=x86-64-v3 "$no_benchmark"
  cmake --build build-fma -j "$jobs" --target dsslice_tests
  ./build-fma/tests/dsslice_tests \
    --gtest_filter='BatchKernelTest.*:ScenarioBatch.*:SweepEngine.*:Sweeps.*:BranchFree.*:TaskHeap.*:SchedulerEquivalence.*:SlicingEquivalence.*:TaskGraph.*:GraphAnalysis.*'
else
  echo "==> fma build skipped: this CPU lists no fma or no avx2"
fi

# perf_obs gates the runtime-disabled overhead at <=2% and the streaming
# (StreamSink attached) overhead at <=5%, so it runs only on the
# uninstrumented build; its document is diffed against the committed
# BENCH_obs.json like the smokes above.
echo "==> obs overhead gate [perf_obs]"
mkdir -p ./build/smoke/perf_obs
./build/bench/perf_obs --smoke --json ./build/smoke/perf_obs/result.json
python3 scripts/bench_compare.py ./build/smoke/perf_obs/result.json \
  --baseline BENCH_obs.json --tolerance 0.6

echo "All checks passed."
