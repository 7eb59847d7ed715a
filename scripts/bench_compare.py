#!/usr/bin/env python3
"""Diff a fresh perf harness run against its committed baseline.

Usage:
    scripts/bench_compare.py FRESH.json [--baseline BENCH_xxx.json]
                             [--tolerance 0.5] [--strict-e2e]
                             [--correctness-only]

Every perf_* harness (bench/perf_slicing, bench/perf_scheduling,
bench/perf_obs) writes one document schema, so one row-driven comparison
serves them all:

    {"benchmark": "perf_slicing", "machine": {...}, "params": {...},
     "rows": [{"layer": "batch",
               "name": "n=256 ADAPT-L kernel vs scalar pipeline",
               "unit": "1/s", "value": 5784.87, "baseline": 1569.98,
               "gates": {"min": 2.7}}, ...]}

A row's score is value / baseline when it has a baseline (a second library
path timed in the same run, so machine speed cancels out of the ratio),
otherwise its value. The unit gives the direction: a rate ("1/s") is better
higher, every other unit (us, count) lower; a ratio keeps the direction of
its value. The baseline file defaults to the committed
BENCH_<benchmark without its "perf_" prefix>.json at the repo root.

Gates are checked on every fresh row, with no tolerance:

  * "eq": the score must equal the bound. These are invariants (zero
    warm-loop buffer growth, zero analysis rebuilds, zero diverging
    engines) and are enforced under every flag;
  * "min" / "max": timing floors and ceilings (the batch kernel's ADAPT-L
    floors, perf_obs's overhead budgets), not enforced under
    --correctness-only.

Every other row present in both files, matched by layer and name, is
banded: the fresh score may be worse than the committed one by at most the
tolerance, relative, in the row's direction. The band is enforced only on
ratio rows, whose score is comparable across runs. Absolute rows are
timings taken at different times on shared hardware, so they are printed as
informational unless --strict-e2e is given (e.g. for two runs taken back to
back on one quiet machine). Rows only one side measured (e.g. a --smoke run
against the full baseline) are skipped, but at least one row must match or
the comparison is vacuous and fails.

--correctness-only enforces only the "eq" gates and the row-overlap
requirement, and reports the rest. Use it when the fresh run's cost model is
not comparable to the baseline, e.g. an ASan/UBSan build, whose
instrumentation inflates the two sides of a ratio by different factors.

scripts/check.sh runs this against every fresh smoke bench, and
scripts/bench.sh refreshes the baselines.
"""

import argparse
import json
import math
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATES = ("eq", "min", "max")


def fail(message):
    sys.exit(f"bench_compare: {message}")


def is_number(x):
    return (
        isinstance(x, (int, float))
        and not isinstance(x, bool)
        and math.isfinite(x)
    )


def valid_row(row):
    if not isinstance(row, dict):
        return False
    gates = row.get("gates", {})
    baseline = row.get("baseline")
    return (
        all(isinstance(row.get(k), str) for k in ("layer", "name", "unit"))
        and is_number(row.get("value"))
        and (baseline is None or (is_number(baseline) and baseline > 0))
        and isinstance(gates, dict)
        and all(k in GATES and is_number(v) for k, v in gates.items())
    )


def load(path):
    """Reads a perf document and checks every row against the schema."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        fail(f"{path} has no \"rows\" list")
    seen = set()
    for row in rows:
        if not valid_row(row):
            fail(f"malformed row in {path}: {row!r}")
        key = (row["layer"], row["name"])
        if key in seen:
            fail(f"duplicate row {key[0]}/{key[1]} in {path}")
        seen.add(key)
    return doc


def score(row):
    base = row.get("baseline")
    return row["value"] if base is None else row["value"] / base


def higher_is_better(row):
    return row["unit"].endswith("/s")


def label(row):
    return f"{row['layer']}/{row['name']}"


def unit(row):
    return "x" if row.get("baseline") is not None else f" {row['unit']}"


def gate_failures(row, correctness_only):
    got = score(row)
    gates = row.get("gates", {})
    failures = []
    if "eq" in gates and got != gates["eq"]:
        failures.append(f"{label(row)}: {got:g}, must be {gates['eq']:g}")
    if correctness_only:
        return failures
    if "min" in gates and got < gates["min"]:
        failures.append(
            f"{label(row)}: {got:.3g}{unit(row)} below the "
            f"{gates['min']:g} floor"
        )
    if "max" in gates and got > gates["max"]:
        failures.append(
            f"{label(row)}: {got:.4g}{unit(row)} above the "
            f"{gates['max']:g} ceiling"
        )
    return failures


def band_failure(fresh, base, args):
    """Prints one matched row against its baseline; returns a failure or None."""
    if ((fresh.get("baseline") is None) != (base.get("baseline") is None)
            or fresh["unit"] != base["unit"]):
        return (
            f"{label(fresh)}: the row changed unit or ratio/absolute shape "
            "(refresh the baseline)"
        )
    got, want = score(fresh), score(base)
    if higher_is_better(fresh):
        limit = want * (1.0 - args.tolerance)
        ok = got >= limit
    else:
        limit = want * (1.0 + args.tolerance)
        ok = got <= limit
    enforced = (
        fresh.get("baseline") is not None or args.strict_e2e
    ) and not args.correctness_only
    u = unit(fresh)
    note = "" if enforced else " (informational)"
    print(
        f"  {label(fresh):<50} baseline {want:9.4g}{u} fresh {got:9.4g}{u} "
        f"limit {limit:9.4g}{u}  {'ok' if ok else 'REGRESSED'}{note}"
    )
    if ok or not enforced:
        return None
    return (
        f"{label(fresh)}: {got:.4g}{u} is past the {limit:.4g}{u} limit "
        f"({want:.4g}{u} baseline, {args.tolerance:.0%} band)"
    )


def main():
    parser = argparse.ArgumentParser(
        description="Compare a fresh perf harness run to its committed "
        "baseline, row by row."
    )
    parser.add_argument("fresh", help="fresh perf_* --json output")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline (default: BENCH_<harness>.json at the "
        "repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed relative loss of a banded score, 0..1 "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--strict-e2e",
        action="store_true",
        help="apply the tolerance band to the absolute rows too",
    )
    parser.add_argument(
        "--correctness-only",
        action="store_true",
        help="enforce only the eq gates; report timings without enforcing "
        "them (for builds whose cost model is not comparable to the "
        "baseline, e.g. sanitizers)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        fail("--tolerance must be in [0, 1)")

    fresh = load(args.fresh)
    kind = fresh.get("benchmark")
    if not isinstance(kind, str) or not kind.startswith("perf_"):
        fail(f"{args.fresh}: benchmark {kind!r} is not a perf_* harness")
    baseline_path = args.baseline or os.path.join(
        REPO_ROOT, f"BENCH_{kind[len('perf_'):]}.json"
    )
    baseline = load(baseline_path)
    if baseline.get("benchmark") != kind:
        fail(
            f"kind mismatch: fresh is {kind!r} but baseline {baseline_path} "
            f"is {baseline.get('benchmark')!r}"
        )

    failures = []
    for row in fresh["rows"]:
        failures += gate_failures(row, args.correctness_only)

    # Rows with an eq gate are invariants, checked by the gate alone.
    base_rows = {(r["layer"], r["name"]): r for r in baseline["rows"]}
    compared = 0
    for row in fresh["rows"]:
        base = base_rows.get((row["layer"], row["name"]))
        if base is None or "eq" in row.get("gates", {}):
            continue
        compared += 1
        failure = band_failure(row, base, args)
        if failure:
            failures.append(failure)
    if compared == 0:
        failures.append(
            "no rows in common between fresh run and baseline "
            "(size/row mismatch?)"
        )

    if failures:
        print("bench_compare: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    what = "correctness-gated" if args.correctness_only else "within tolerance"
    print(f"bench_compare: OK ({compared} {kind} row(s) {what})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
