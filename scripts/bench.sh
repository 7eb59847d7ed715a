#!/usr/bin/env bash
# Performance benchmark driver: Release build + the hot-path harnesses.
# Writes BENCH_slicing.json, BENCH_slicing_batch.json and
# BENCH_scheduling.json at the repo root (see docs/PERFORMANCE.md for how to
# read them), plus a BENCH_*.metrics.jsonl pipeline-stage breakdown next to
# each (docs/OBSERVABILITY.md), and runs the perf_obs overhead gate. Extra
# arguments are forwarded to the slicing and scheduling harnesses, e.g.
#   scripts/bench.sh --smoke
#   scripts/bench.sh --processors 8 --min-ms 500
# End-to-end sweep throughput is measured by the repo benchmark
# (benchmark/run.py), not here.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

jobs="$(nproc 2>/dev/null || echo 4)"

echo "==> configure [default]"
cmake --preset default
echo "==> build [perf_slicing perf_slicing_batch perf_scheduling perf_obs]"
cmake --build --preset default -j "$jobs" --target perf_slicing \
  --target perf_slicing_batch --target perf_scheduling --target perf_obs

echo "==> run [perf_slicing]"
./build/bench/perf_slicing --json "$root/BENCH_slicing.json" "$@"
echo "==> run [perf_slicing_batch]"
./build/bench/perf_slicing_batch --json "$root/BENCH_slicing_batch.json" "$@"
echo "==> run [perf_scheduling]"
./build/bench/perf_scheduling --json "$root/BENCH_scheduling.json" \
  --min-ms 800 "$@"
echo "==> run [perf_obs] (disabled-overhead gate)"
./build/bench/perf_obs --json "$root/BENCH_obs.json"

# Archive a pipeline-stage metrics breakdown next to each BENCH_*.json from
# a separate short instrumented pass. The timed runs above record nothing,
# so their rates carry only the runtime-disabled obs tax that perf_obs gates
# at <=2%, never the cost of recording itself.
echo "==> archive [stage metrics breakdowns]"
./build/bench/perf_slicing --smoke \
  --metrics "$root/BENCH_slicing.metrics.jsonl" > /dev/null
./build/bench/perf_slicing_batch --smoke \
  --metrics "$root/BENCH_slicing_batch.metrics.jsonl" > /dev/null
./build/bench/perf_scheduling --smoke \
  --metrics "$root/BENCH_scheduling.metrics.jsonl" > /dev/null
