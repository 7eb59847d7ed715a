#!/usr/bin/env bash
# Performance benchmark driver: Release build + the perf harnesses. Writes
# BENCH_slicing.json, BENCH_scheduling.json and BENCH_obs.json at the repo
# root, all in the row schema scripts/bench_compare.py reads (see
# docs/PERFORMANCE.md), plus a BENCH_*.metrics.jsonl pipeline-stage
# breakdown next to the slicing and scheduling documents
# (docs/OBSERVABILITY.md). Extra arguments are forwarded to the slicing and
# scheduling harnesses, e.g.
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
echo "==> build [perf_slicing perf_scheduling perf_obs]"
cmake --build --preset default -j "$jobs" --target perf_slicing \
  --target perf_scheduling --target perf_obs

echo "==> run [perf_slicing]"
./build/bench/perf_slicing --json "$root/BENCH_slicing.json" "$@"
echo "==> run [perf_scheduling]"
./build/bench/perf_scheduling --json "$root/BENCH_scheduling.json" \
  --min-ms 800 "$@"
echo "==> run [perf_obs] (overhead gates)"
./build/bench/perf_obs --json "$root/BENCH_obs.json"

# Archive a pipeline-stage metrics breakdown next to each BENCH_*.json from
# a separate short instrumented pass. The timed runs above record nothing,
# so their rates carry only the runtime-disabled obs tax that perf_obs gates
# at <=2%, never the cost of recording itself.
echo "==> archive [stage metrics breakdowns]"
./build/bench/perf_slicing --smoke \
  --metrics "$root/BENCH_slicing.metrics.jsonl" > /dev/null
./build/bench/perf_scheduling --smoke \
  --metrics "$root/BENCH_scheduling.metrics.jsonl" > /dev/null
