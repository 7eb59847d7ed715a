#!/usr/bin/env python3
"""Repository benchmark: builds benchmark/ and runs its workloads.

    python3 benchmark/run.py                       # every workload, full size
    python3 benchmark/run.py --smoke               # every workload at 1/16 size
    python3 benchmark/run.py --trace-dir traces    # also export Chrome traces
    python3 benchmark/run.py --compare A.json B.json
    python3 benchmark/run.py --workload sweep-paper --seed 7 --seconds 14 --trace 0

Each workload runs in its own process of benchmark/build/dsslice_benchmark,
one process at a time. Without --workload every metric of every workload is
printed with its unit and the results are written to --out. With --workload
the last line on stdout is one JSON object {"correct", "attempted", "failed",
"metrics"} holding the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) named in BENCHMARK.json.

The command exits non-zero when the build fails, a workload process fails,
or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
BINARY = BUILD / "dsslice_benchmark"
DEFAULT_SEED = 20250707
SMOKE_SCALE = 16
CHILD_TIMEOUT_S = 170

# Layers (the "cat" of an exported span) whose self time dsslice_benchmark reports
# per scenario, with their metric prefix.
LAYER_PREFIX = {
    "gen": "gen",
    "analysis": "analysis",
    "batch": "batch",
    "core": "core",
    "sched": "sched",
    "sweep.fold": "fold",
}


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures and builds dsslice_benchmark; cmake output goes to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    commands = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for command in commands:
        try:
            code = subprocess.run(command, stdout=sys.stderr,
                                  stderr=sys.stderr).returncode
        except OSError as e:
            raise BenchError(f"cannot run {command[0]}: {e}") from e
        if code != 0:
            raise BenchError("build failed: " + " ".join(command))


def summary(values):
    """Median, quartiles and count, quartiles as statistics.quantiles gives."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def golden_problem(raw, golden):
    """Mismatch against benchmark/golden.json, or None."""
    section = golden["smoke" if raw["scale"] == SMOKE_SCALE else "full"]
    pinned = section.get(raw["workload"])
    if pinned is None:
        return "no golden entry"
    actual = {"scenarios": raw["scenarios_per_round"], "digest": raw["digest"],
              "successes": raw["successes"], "cells": raw["cells"]}
    for key, value in pinned.items():
        if actual[key] != value:
            return f"golden {key}: expected {value}, got {actual[key]}"
    return None


def trace_problem(path, raw):
    """Recomputes per-layer self times from the exported spans and checks
    that they give the per-layer metrics dsslice_benchmark reported, or None."""
    durations, parents, layers = [], [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith('{"name"'):
                event = json.loads(line.rstrip().rstrip(","))
                durations.append(event["dur"])
                parents.append(event["args"]["parent"])
                layers.append(event["cat"])
    self_us = list(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            self_us[parent] -= duration
    by_layer = {}
    for layer, value in zip(layers, self_us):
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    wall_us = durations[0]
    scenarios = raw["traced_scenarios"]
    expected = {f"{prefix}.ns_per_scenario":
                by_layer.get(layer, 0.0) * 1e3 / scenarios
                for layer, prefix in LAYER_PREFIX.items()}
    expected["checkpoint.share"] = (
        by_layer.get("sweep.checkpoint", 0.0) / wall_us)
    expected["trace.coverage"] = (
        sum(v for k, v in by_layer.items() if k != "pass") / wall_us)
    expected["trace.spans"] = len(durations)
    per_layer = raw["per_layer"]
    for name, value in expected.items():
        if abs(per_layer[name] - value) > 1e-6 * abs(value) + 1e-3:
            return f"trace {path}: {name} is {per_layer[name]}, spans give {value}"
    return None


def run_workload(spec, golden, name, seed, seconds, scale, warmup, trace_dir):
    """Runs one workload process and returns its metrics and checks."""
    tmp = BUILD / "tmp" / f"{name}-{os.getpid()}"
    command = [str(BINARY), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--warmup", str(warmup),
               "--scale", str(scale), "--tmp-dir", str(tmp)]
    if trace_dir:
        command += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name}: no result within {CHILD_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: dsslice_benchmark exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    failures = list(raw["failures"])
    attempted = raw["attempted"]
    if seed == golden["seed"]:
        attempted += 1
        problem = golden_problem(raw, golden)
        if problem:
            failures.append(problem)
    if raw["trace_file"]:
        attempted += 1
        problem = trace_problem(raw["trace_file"], raw)
        if problem:
            failures.append(problem)

    end_to_end = {
        "scenarios_per_s": raw["scenarios_per_s"],
        "setup_s": raw["setup_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_ratio": len(failures) / attempted,
    }
    declared = {m["name"] for m in spec["end_to_end"]} | {"failed_ratio"}
    if set(end_to_end) != declared or (
            set(raw["per_layer"]) != {m["name"] for m in spec["per_layer"]}):
        raise BenchError(f"{name}: metrics differ from BENCHMARK.json")
    return {"workload": name, "seed": seed, "scale": scale,
            "scenarios_per_round": raw["scenarios_per_round"],
            "rounds": len(raw["rounds"]),
            "cold_starts": len(raw["cold_starts"]),
            "end_to_end": end_to_end, "per_layer": raw["per_layer"],
            "digest": raw["digest"], "successes": raw["successes"],
            "cells": raw["cells"], "attempted": attempted,
            "failed": len(failures), "failures": failures}


def metric_table(spec):
    table = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    table["failed_ratio"] = {"unit": "ratio", "better": "lower", "bound": 0.0}
    return table


def contract_line(spec, result, trace):
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": result[kind][m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def across_runs(runs, section):
    """Per metric of one section, its summary over the runs of a workload."""
    return {name: summary([r[section][name] for r in runs])
            for name in runs[0][section]}


def print_workload(spec, runs):
    table = metric_table(spec)
    first = runs[0]
    print(f"== {first['workload']} (seed {first['seed']}, "
          f"{first['scenarios_per_round']} scenarios per round, "
          f"{len(runs)} run(s)) ==")
    print(f"  {'end to end':<30}{'median':>13}{'q1':>13}{'q3':>13}{'n':>4}"
          f"  {'unit':<16}{'better':<8}bound")
    for name, s in across_runs(runs, "end_to_end").items():
        m = table[name]
        print(f"  {name:<30}{s['median']:>13.6g}{s['q1']:>13.6g}"
              f"{s['q3']:>13.6g}{s['n']:>4}  {m['unit']:<16}"
              f"{m['better']:<8}{m['bound']:g}")
    print(f"  {'per layer (fastest traced pass)':<30}{'median':>13}  unit")
    for name, s in across_runs(runs, "per_layer").items():
        print(f"  {name:<30}{s['median']:>13.6g}  {table[name]['unit']}")
    for run in runs:
        for failure in run["failures"]:
            print(f"  FAILED {failure}")
    print()


def compare(spec, a_path, b_path):
    """A/B table of every end-to-end metric over the runs in each file;
    returns the number of regressed rows."""
    a_file, b_file = load_json(a_path), load_json(b_path)
    table = metric_table(spec)
    print(f"{'workload':<21}{'metric':<17}{'A median [q1, q3]':>40}"
          f"{'B median [q1, q3]':>42}{'change':>9}{'bound':>7}  verdict")
    regressed = 0
    for workload, a_runs in a_file["workloads"].items():
        b_runs = b_file["workloads"].get(workload)
        if b_runs is None:
            continue
        a_sum = across_runs(a_runs, "end_to_end")
        b_sum = across_runs(b_runs, "end_to_end")
        for name, sa in a_sum.items():
            m, sb = table[name], b_sum[name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = (sb["median"] - sa["median"]) / sa["median"] if sa[
                "median"] else sb["median"]
            spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"]
                         else 0.0 for s in (sa, sb))
            # Fewer than three runs a side leave the spread unknown.
            if sign * change > m["bound"]:
                verdict = "regressed"
                regressed += 1
            elif spread > m["bound"] or min(sa["n"], sb["n"]) < 3:
                verdict = "unresolved"
            elif -sign * change > m["bound"]:
                verdict = "better"
            else:
                verdict = "unchanged"
            cell = "{:.6g} [{:.6g}, {:.6g}]"
            print(f"{workload:<21}{name:<17}"
                  f"{cell.format(sa['median'], sa['q1'], sa['q3']):>40}  "
                  f"{cell.format(sb['median'], sb['q1'], sb['q3']):>40}"
                  f"{change * 100:>8.1f}%{m['bound'] * 100:>6.0f}%  {verdict}")
    return regressed


def main():
    spec = load_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Build and run the repository benchmark.")
    parser.add_argument("--workload", choices=names,
                        help="run one workload and print the result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--runs", type=int, default=1,
                        help="processes per workload in a full run")
    parser.add_argument("--smoke", action="store_true",
                        help="1/16 size, short timing, every check")
    parser.add_argument("--trace-dir", type=Path,
                        help="export each workload's spans as Chrome trace JSON")
    parser.add_argument("--out", type=Path, default=BUILD / "results.json",
                        help="results file of a full run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two results files")
    args = parser.parse_args()

    try:
        if args.compare:
            return 1 if compare(spec, *args.compare) else 0
        build()
        golden = load_json(HERE / "golden.json")
        scale, seconds, warmup = (
            (SMOKE_SCALE, 0.5, 0.25) if args.smoke else (1, args.seconds, 1.0))
        trace_dir = args.trace_dir.resolve() if args.trace_dir else None
        if args.workload:
            result = run_workload(spec, golden, args.workload, args.seed,
                                  seconds, scale, warmup, trace_dir)
            for failure in result["failures"]:
                print(f"FAILED {failure}", file=sys.stderr)
            print(json.dumps(contract_line(spec, result, args.trace)))
            return 0 if result["failed"] == 0 else 1
        results = {name: [] for name in names}
        for _ in range(args.runs):
            for name in names:
                results[name].append(run_workload(
                    spec, golden, name, args.seed, seconds, scale, warmup,
                    trace_dir))
        for runs in results.values():
            print_workload(spec, runs)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seed": args.seed, "scale": scale,
                       "workloads": results}, f, indent=1)
        print(f"results written to {args.out}")
        failed = sum(r["failed"] for runs in results.values() for r in runs)
        return 0 if failed == 0 else 1
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
