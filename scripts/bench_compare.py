#!/usr/bin/env python3
"""Diff a fresh perf bench run against its committed baseline.

Usage:
    scripts/bench_compare.py FRESH.json [--baseline BENCH_xxx.json]
                             [--tolerance 0.5] [--strict-e2e]
                             [--correctness-only]

The document kind is auto-detected from the "benchmark" field, and the
baseline defaults to the committed file for that kind:

  * "scheduler-engine"  (perf_scheduling)    -> BENCH_scheduling.json
  * "slicing-hot-path"  (perf_slicing)       -> BENCH_slicing.json
  * "slicing-batch"     (perf_slicing_batch) -> BENCH_slicing_batch.json
  * "perf_obs"          (perf_obs)           -> BENCH_obs.json

Correctness gates fail (exit 1) with no tolerance — they are invariants,
not perf numbers:

  * scheduling: engine rows must report warm_grow_events == 0;
  * slicing: cached timing loops must build zero GraphAnalysis instances
    (cached_loop_analysis_constructions == 0), the batch kernel's warm
    timing loops must grow zero buffers (batch_steady_grow_events == 0),
    and — unless --correctness-only — the batch-kernel rows at n >= 128
    must be >= 3x the cached scalar path (the kernel's headline target);
  * slicing-batch: every metric row must report identical=true (lanes64
    bit-identical to the reference engine), steady_grow_events must be 0,
    and — on builds whose timings are comparable, i.e. not under
    --correctness-only — the ADAPT-L rows at n >= gates.floor_tasks must
    clear the absolute gates.lanes_speedup_floor (a lane-engine regression
    canary, deliberately below the 3x headline since the reference engine
    already enjoys batch staging);
  * obs: both overhead gates recorded in the document (gate_ok for the
    runtime-disabled tax, streaming_ok for the StreamSink tax) must be
    true, and the streaming-tax row must be present. Overhead rows are
    percent deltas where lower is better, so their band is additive —
    fresh delta_pct may exceed the baseline's by at most tolerance*100
    points — rather than the relative speedup band below.

Speedup bands compare rows present in both files (relative band:
fresh >= baseline * (1 - tolerance)); rows only one side measured — e.g. a
--smoke run against the full baseline — are skipped, but at least one row
must match or the comparison is vacuous and fails. The only band is the
slicing batch kernel against the in-library cached scalar path.

The scheduling rows are absolute scenarios/sec with no in-binary baseline
to divide by. Absolute rates taken at different times on shared hardware
do not show a regression (the repo benchmark's sched.* layers and its
sweep-dispatch-wide workload gate scheduler cost), so they are reported
against the baseline but only enforced under --strict-e2e.

--correctness-only keeps the gates and the row-overlap requirement but
reports speedups without enforcing the band. Use it when the fresh run's
cost model is not comparable to the committed baseline — e.g. an
ASan/UBSan build, whose instrumentation inflates the two sides of each
ratio by different factors.

Speedups regress loudly here instead of rotting silently: check.sh runs this
against every fresh smoke bench, and scripts/bench.sh refreshes the baselines.
"""

import argparse
import json
import sys

DEFAULT_BASELINES = {
    "scheduler-engine": "BENCH_scheduling.json",
    "slicing-hot-path": "BENCH_slicing.json",
    "slicing-batch": "BENCH_slicing_batch.json",
    "perf_obs": "BENCH_obs.json",
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")


class Comparison:
    """Shared failure/row accounting for all document kinds."""

    def __init__(self, args):
        self.args = args
        self.failures = []
        self.compared = 0

    def band(self, label, got, want):
        floor = want * (1.0 - self.args.tolerance)
        ok = self.args.correctness_only or got >= floor
        self.compared += 1
        note = " (informational)" if self.args.correctness_only else ""
        print(
            f"  {label:<32} baseline {want:6.2f}x fresh {got:6.2f}x  "
            f"floor {floor:5.2f}x  {'ok' if ok else 'REGRESSED'}{note}"
        )
        if not ok:
            self.failures.append(
                f"{label}: speedup {got:.2f}x below {floor:.2f}x "
                f"({want:.2f}x baseline - {self.args.tolerance:.0%})"
            )

    def rate(self, label, got, want, enforce):
        """An absolute rate, banded only when `enforce` is set."""
        floor = want * (1.0 - self.args.tolerance)
        ok = self.args.correctness_only or got >= floor
        self.compared += 1
        enforced = "" if enforce else " (informational)"
        print(
            f"  {label:<32} baseline {want:9.0f}/s fresh {got:9.0f}/s  "
            f"floor {floor:9.0f}/s  {'ok' if ok else 'REGRESSED'}{enforced}"
        )
        if not ok and enforce:
            self.failures.append(
                f"{label}: {got:.0f}/s below {floor:.0f}/s"
            )


# ---------------------------------------------------------------------------
# scheduler-engine (perf_scheduling)
# ---------------------------------------------------------------------------


def engine_rows(doc):
    """{(tasks, engine): row} from a perf_scheduling JSON document."""
    rows = {}
    for size in doc.get("sizes", []):
        for row in size.get("engines", []):
            rows[(size.get("tasks"), row.get("engine"))] = row
    return rows


def compare_scheduling(cmp, fresh, baseline):
    fresh_rows = engine_rows(fresh)
    base_rows = engine_rows(baseline)

    # Correctness gate on every fresh row, matched or not. A missing count
    # (an old document, or a row the bench failed to fill) fails too.
    for (tasks, engine), row in sorted(fresh_rows.items()):
        if row.get("warm_grow_events", -1) != 0:
            cmp.failures.append(
                f"n={tasks} {engine}: warm path grew "
                f"{row.get('warm_grow_events')} buffer(s)"
            )

    for key in sorted(set(fresh_rows) & set(base_rows)):
        tasks, engine = key
        cmp.rate(
            f"n={tasks} {engine}",
            fresh_rows[key].get("engine_per_sec", 0.0),
            base_rows[key].get("engine_per_sec", 0.0),
            cmp.args.strict_e2e,
        )


# ---------------------------------------------------------------------------
# slicing-hot-path (perf_slicing)
# ---------------------------------------------------------------------------


def batch_speedups(doc):
    """{tasks: ADAPT-L batch kernel speedup over the cached scalar path}."""
    return {
        size.get("tasks"): size["slicing_adapt_l"]["batch_speedup"]
        for size in doc.get("sizes", [])
        if "batch_speedup" in size.get("slicing_adapt_l", {})
    }


def compare_slicing(cmp, fresh, baseline):
    # Correctness gates: the cached timing loops must never rebuild the
    # memoized graph analysis, and the warm batch-kernel loops must never
    # grow a buffer.
    for size in fresh.get("sizes", []):
        rebuilds = size.get("cached_loop_analysis_constructions", 0)
        if rebuilds != 0:
            cmp.failures.append(
                f"n={size.get('tasks')}: cached loops rebuilt the graph "
                f"analysis {rebuilds} time(s)"
            )
        grows = size.get("batch_steady_grow_events", 0)
        if grows != 0:
            cmp.failures.append(
                f"n={size.get('tasks')}: warm batch kernel grew "
                f"{grows} buffer(s)"
            )

    # The batch kernel's headline target: >=3x slicing_adapt_l throughput
    # over the cached scalar path at n >= 128. Skipped under
    # --correctness-only (sanitizer cost models skew the two sides by
    # different factors).
    fresh_rows = batch_speedups(fresh)
    if not cmp.args.correctness_only:
        for tasks, speedup in sorted(fresh_rows.items()):
            if tasks >= 128 and speedup < 3.0:
                cmp.failures.append(
                    f"n={tasks}: batch kernel speedup {speedup:.2f}x over "
                    "the cached path is below the absolute 3.0x floor"
                )

    base_rows = batch_speedups(baseline)
    for tasks in sorted(set(fresh_rows) & set(base_rows)):
        cmp.band(f"n={tasks} slicing ADAPT-L batch", fresh_rows[tasks],
                 base_rows[tasks])


# ---------------------------------------------------------------------------
# slicing-batch (perf_slicing_batch)
# ---------------------------------------------------------------------------


def batch_rows(doc):
    """{(tasks, metric): row} from a perf_slicing_batch JSON document."""
    rows = {}
    for size in doc.get("sizes", []):
        for row in size.get("metrics", []):
            rows[(size.get("tasks"), row.get("metric"))] = row
    return rows


def compare_slicing_batch(cmp, fresh, baseline):
    gates = fresh.get("gates", {})
    floor = gates.get("lanes_speedup_floor", 2.2)
    floor_tasks = gates.get("floor_tasks", 128)

    fresh_rows = batch_rows(fresh)
    for (tasks, metric), row in sorted(fresh_rows.items()):
        if not row.get("identical", False):
            cmp.failures.append(
                f"n={tasks} {metric}: lanes engine diverged from the "
                "reference engine (identical=false)"
            )
        # Regression canary for the lane engine (the headline 3x target is
        # measured against the cached scalar path by perf_slicing's batch
        # row and gated in compare_slicing). Only meaningful when the fresh
        # run's cost model is uninstrumented — sanitizer runs pass
        # --correctness-only and skip it.
        if (
            not cmp.args.correctness_only
            and metric == "ADAPT-L"
            and tasks >= floor_tasks
            and row.get("speedup", 0.0) < floor
        ):
            cmp.failures.append(
                f"n={tasks} {metric}: lanes speedup "
                f"{row.get('speedup', 0.0):.2f}x below the absolute "
                f"{floor:.1f}x floor"
            )
    for size in fresh.get("sizes", []):
        grows = size.get("steady_grow_events", 0)
        if grows != 0:
            cmp.failures.append(
                f"n={size.get('tasks')}: warm batch kernel grew "
                f"{grows} buffer(s)"
            )

    base_rows = batch_rows(baseline)
    for key in sorted(set(fresh_rows) & set(base_rows)):
        tasks, metric = key
        cmp.band(
            f"n={tasks} batch {metric}",
            fresh_rows[key].get("speedup", 0.0),
            base_rows[key].get("speedup", 0.0),
        )


# ---------------------------------------------------------------------------
# perf_obs (observability overhead contract)
# ---------------------------------------------------------------------------

OBS_NOISE_ROW = "kernel A/A (noise floor)"
OBS_STREAMING_ROW = "pipeline batch, tracing ON vs ON+streaming"


def obs_rows(doc):
    return {row.get("name"): row for row in doc.get("rows", [])}


def compare_obs(cmp, fresh, baseline):
    # Correctness gates. perf_obs exits 1 on these itself, but re-check the
    # document: a stale JSON from an older binary (no streaming fields)
    # must not pass silently.
    if not fresh.get("gate_ok", False):
        cmp.failures.append(
            "disabled-tax gate failed "
            f"(allowed {fresh.get('gate_pct', 0.0):.2f}%)"
        )
    if not fresh.get("streaming_ok", False):
        cmp.failures.append(
            "streaming-tax gate failed or absent "
            f"(allowed {fresh.get('streaming_gate_pct', 0.0):.2f}%)"
        )

    fresh_rows = obs_rows(fresh)
    if OBS_STREAMING_ROW not in fresh_rows:
        cmp.failures.append(
            "fresh run has no streaming-tax row (old perf_obs binary?)"
        )

    # Overhead rows are percent deltas where lower is better, so the band
    # is additive: fresh may exceed the baseline's delta by at most
    # tolerance*100 points. The A/A row is pure noise — reported by the
    # bench, skipped here.
    base_rows = obs_rows(baseline)
    for name in sorted(set(fresh_rows) & set(base_rows)):
        if name == OBS_NOISE_ROW:
            continue
        got = fresh_rows[name].get("delta_pct", 0.0)
        want = base_rows[name].get("delta_pct", 0.0)
        ceiling = want + cmp.args.tolerance * 100.0
        ok = cmp.args.correctness_only or got <= ceiling
        cmp.compared += 1
        note = " (informational)" if cmp.args.correctness_only else ""
        print(
            f"  {name:<42} baseline {want:+7.2f}% fresh {got:+7.2f}%  "
            f"ceiling {ceiling:+7.2f}%  {'ok' if ok else 'REGRESSED'}{note}"
        )
        if not ok:
            cmp.failures.append(
                f"{name}: overhead {got:+.2f}% above the {ceiling:+.2f}% "
                f"ceiling ({want:+.2f}% baseline + "
                f"{cmp.args.tolerance * 100:.0f} points)"
            )


COMPARATORS = {
    "scheduler-engine": compare_scheduling,
    "slicing-hot-path": compare_slicing,
    "slicing-batch": compare_slicing_batch,
    "perf_obs": compare_obs,
}


def main():
    parser = argparse.ArgumentParser(
        description="Compare a fresh perf bench run to its committed "
        "baseline (kind auto-detected from the 'benchmark' field)."
    )
    parser.add_argument("fresh", help="fresh perf_* --json output")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline (default: the BENCH_*.json for the "
        "detected kind)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed relative speedup loss, 0..1 (default: %(default)s)",
    )
    parser.add_argument(
        "--strict-e2e",
        action="store_true",
        help="apply the tolerance band to the absolute scheduling "
        "rates too",
    )
    parser.add_argument(
        "--correctness-only",
        action="store_true",
        help="enforce only the correctness gates; report speedups without "
        "the tolerance band (for builds whose cost model is not comparable "
        "to the baseline, e.g. sanitizers)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        sys.exit("bench_compare: --tolerance must be in [0, 1)")

    fresh = load(args.fresh)
    kind = fresh.get("benchmark")
    if kind not in COMPARATORS:
        sys.exit(
            f"bench_compare: unknown benchmark kind {kind!r} in {args.fresh} "
            f"(expected one of {sorted(COMPARATORS)})"
        )
    baseline_path = args.baseline or DEFAULT_BASELINES[kind]
    baseline = load(baseline_path)
    base_kind = baseline.get("benchmark")
    if base_kind != kind:
        sys.exit(
            f"bench_compare: kind mismatch: fresh is {kind!r} but baseline "
            f"{baseline_path} is {base_kind!r}"
        )

    cmp = Comparison(args)
    COMPARATORS[kind](cmp, fresh, baseline)

    if cmp.compared == 0:
        cmp.failures.append(
            "no rows in common between fresh run and baseline "
            "(size/row mismatch?)"
        )

    if cmp.failures:
        print("bench_compare: FAIL", file=sys.stderr)
        for f in cmp.failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    what = (
        "correctness-gated"
        if args.correctness_only
        else "within tolerance"
    )
    print(f"bench_compare: OK ({cmp.compared} {kind} row(s) {what})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
