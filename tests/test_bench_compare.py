#!/usr/bin/env python3
"""Tests of scripts/bench_compare.py, the one row-driven comparator every
perf_* harness document goes through, and of the committed BENCH_*.json
baselines it reads.

Runs under ctest (BenchCompare) or directly:
    python3 tests/test_bench_compare.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_compare.py")
BASELINES = ("BENCH_slicing.json", "BENCH_scheduling.json", "BENCH_obs.json")


def row(name, value, baseline=None, unit="1/s", **gates):
    return {"layer": "batch", "name": name, "unit": unit, "value": value,
            "baseline": baseline, "gates": gates}


class BenchCompare(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.dir)

    def write(self, name, rows, benchmark):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"benchmark": benchmark, "rows": rows}, f)
        return path

    def run_script(self, *args):
        return subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True, check=False)

    def compare(self, fresh_rows, base_rows, *flags, kind="perf_slicing"):
        fresh = self.write("fresh.json", fresh_rows, kind)
        base = self.write("base.json", base_rows, "perf_slicing")
        return self.run_script(fresh, "--baseline", base, *flags)

    def assertPasses(self, result):
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def assertFails(self, result):
        self.assertNotEqual(result.returncode, 0,
                            result.stdout + result.stderr)

    def test_ratio_rows_are_banded_against_the_committed_ratio(self):
        base = [row("speedup", 400.0, baseline=100.0)]
        slower = [row("speedup", 150.0, baseline=100.0)]
        self.assertPasses(
            self.compare([row("speedup", 250.0, baseline=100.0)], base))
        self.assertFails(self.compare(slower, base))
        self.assertPasses(self.compare(slower, base, "--tolerance", "0.7"))
        self.assertPasses(self.compare(slower, base, "--correctness-only"))

    def test_rows_not_in_a_rate_unit_are_banded_upwards(self):
        def tax(value):
            return [row("tax", value, baseline=100.0, unit="us")]
        self.assertPasses(self.compare(tax(140.0), tax(102.0)))
        self.assertFails(self.compare(tax(160.0), tax(102.0)))

    def test_absolute_rows_are_banded_only_under_strict_e2e(self):
        base = [row("rate", 1000.0)]
        slower = [row("rate", 10.0)]
        self.assertPasses(self.compare(slower, base))
        self.assertFails(self.compare(slower, base, "--strict-e2e"))
        self.assertPasses(
            self.compare([row("rate", 900.0)], base, "--strict-e2e"))

    def test_eq_gates_hold_under_every_flag(self):
        base = [row("speedup", 300.0, baseline=100.0)]
        fresh = base + [row("grow", 1, unit="count", eq=0)]
        self.assertFails(self.compare(fresh, base))
        self.assertFails(self.compare(fresh, base, "--correctness-only"))
        fresh[1]["value"] = 0
        self.assertPasses(self.compare(fresh, base))

    def test_timing_gates_are_skipped_under_correctness_only(self):
        below_floor = [row("speedup", 250.0, baseline=100.0, min=3)]
        above_ceiling = [row("tax", 110.0, baseline=100.0, unit="us",
                             max=1.05)]
        for rows in (below_floor, above_ceiling):
            with self.subTest(rows[0]["name"]):
                self.assertFails(self.compare(rows, rows))
                self.assertPasses(
                    self.compare(rows, rows, "--correctness-only"))

    def test_a_comparison_with_no_common_rows_fails(self):
        self.assertFails(self.compare([row("a", 2.0, baseline=1.0)],
                                      [row("b", 2.0, baseline=1.0)]))

    def test_a_row_that_changed_shape_or_unit_fails(self):
        self.assertFails(
            self.compare([row("a", 2.0, baseline=1.0)], [row("a", 2.0)]))
        self.assertFails(
            self.compare([row("a", 2.0, baseline=1.0, unit="us")],
                         [row("a", 2.0, baseline=1.0)]))

    def test_mismatched_or_malformed_documents_are_rejected(self):
        good = row("a", 2.0, baseline=1.0)
        self.assertFails(self.compare([good], [good], kind="perf_obs"))
        self.assertFails(self.compare([good], [good], kind="slicing"))
        self.assertFails(self.compare([good, good], [good]))
        malformed = (
            {k: v for k, v in good.items() if k != "value"},
            dict(good, value="fast"),
            dict(good, unit=None),
            dict(good, baseline=0),
            dict(good, gates={"between": 1}),
        )
        for bad in malformed:
            with self.subTest(bad=bad):
                self.assertFails(self.compare([bad], [good]))
                self.assertFails(self.compare([good], [bad]))

    def test_committed_baselines_pass_against_themselves(self):
        for name in BASELINES:
            with self.subTest(name):
                path = os.path.join(ROOT, name)
                self.assertPasses(self.run_script(path, "--baseline", path))

    def test_the_default_baseline_is_named_after_the_harness(self):
        fresh = os.path.join(self.dir, "fresh.json")
        shutil.copy(os.path.join(ROOT, "BENCH_scheduling.json"), fresh)
        self.assertPasses(self.run_script(fresh))


if __name__ == "__main__":
    unittest.main()
