#!/usr/bin/env python3
"""Tests of the wall-clock benchmark itself.

Run from the root of a checkout (builds the benchmark first if needed):

    python3 wallbench/test_wallbench.py

Covers the metric-name grammar, the result check against BENCHMARK.json,
the spread rule, the C++ order-statistics helpers (wallbench_unit), that
every metric of BENCHMARK.json is printed with its unit on every workload,
that a stuck op ends a run as an error inside its wall-time cap, and that
the benchmark fails cleanly where the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import repeat  # noqa: E402
import run  # noqa: E402


def complete_result(spec, trace):
    group = "per_layer" if trace else "end_to_end"
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in spec[group]}}


class GrammarTest(unittest.TestCase):
    def test_benchmark_json_names_and_units_are_well_formed(self):
        self.assertEqual(run.spec_errors(run.load_spec()), [])

    def test_name_grammar(self):
        for good in ["p50_us", "client.rtt_us.p50", "net.bytes_per_msg", "9lives", "a-b"]:
            self.assertTrue(run.NAME_RE.fullmatch(good), good)
        for bad in ["", ".x", "_x", "a b", "a/b", "x" * 65, "café", "a\n"]:
            self.assertFalse(run.NAME_RE.fullmatch(bad), repr(bad))

    def test_unit_grammar(self):
        for good in ["ms", "1/s", "%", "msg/op", "B/op", "count"]:
            self.assertTrue(run.UNIT_RE.fullmatch(good), good)
        for bad in ["", "m s", "x" * 17, "µs"]:
            self.assertFalse(run.UNIT_RE.fullmatch(bad), repr(bad))

    def test_spec_errors_catch_duplicates_and_bad_units(self):
        spec = {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "w", "unit": "ms"}],
                "per_layer": [{"name": "x", "unit": "bad unit"}]}
        errors = run.spec_errors(spec)
        self.assertEqual(len(errors), 2, errors)


class ResultCheckTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_complete_results_pass(self):
        for trace in (False, True):
            self.assertEqual(run.result_errors(complete_result(self.spec, trace), self.spec, trace), [])

    def test_missing_metric_fails(self):
        r = complete_result(self.spec, False)
        del r["metrics"]["p99_us"]
        self.assertTrue(run.result_errors(r, self.spec, False))

    def test_wrong_unit_fails(self):
        r = complete_result(self.spec, False)
        r["metrics"]["p50_us"]["unit"] = "ms"
        self.assertTrue(run.result_errors(r, self.spec, False))

    def test_metric_of_the_other_kind_fails(self):
        r = complete_result(self.spec, False)
        r["metrics"]["client.rtt_us.p50"] = {"value": 1.0, "unit": "us"}
        self.assertTrue(run.result_errors(r, self.spec, False))

    def test_extra_key_fails(self):
        r = complete_result(self.spec, True)
        r["note"] = "x"
        self.assertTrue(run.result_errors(r, self.spec, True))

    def test_bad_values_fail(self):
        for bad in (float("nan"), float("inf"), "1", None, True):
            r = complete_result(self.spec, False)
            r["metrics"]["ops_s"]["value"] = bad
            self.assertTrue(run.result_errors(r, self.spec, False), repr(bad))

    def test_counts_must_be_whole_and_attempted_positive(self):
        for key, bad in (("attempted", 0), ("attempted", 1.5), ("failed", -1), ("correct", 1)):
            r = complete_result(self.spec, False)
            r[key] = bad
            self.assertTrue(run.result_errors(r, self.spec, False), (key, bad))


class SpreadTest(unittest.TestCase):
    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(repeat.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertAlmostEqual(repeat.spread([3.0, 3.0, 3.0]), 0.0)


class BuiltBenchmarkTest(unittest.TestCase):
    """Runs the built benchmark: short measured windows, every workload."""

    @classmethod
    def setUpClass(cls):
        cls.out = run.build(["wallbench", "wallbench_unit"])
        cls.spec = run.load_spec()

    def test_cpp_helpers(self):
        r = subprocess.run([os.path.join(self.out, "wallbench_unit")],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_every_metric_is_printed_with_its_unit(self):
        # Every workload the benchmark runs, gated in BENCHMARK.json or not.
        listed = subprocess.run([os.path.join(self.out, "wallbench"), "--list"],
                                stdout=subprocess.PIPE, text=True, check=True).stdout.split()
        self.assertTrue({w["name"] for w in self.spec["workloads"]} <= set(listed), listed)
        for name in listed:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    r = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
                    self.assertEqual(r.returncode, 0, r.stdout)
                    lines = r.stdout.rstrip("\n").split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(run.result_errors(result, self.spec, bool(trace)), [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    # The human-readable table names each metric with its unit.
                    table = {tuple(l.split()[::2]) for l in lines[:-1] if len(l.split()) == 3}
                    group = "per_layer" if trace else "end_to_end"
                    for m in self.spec[group]:
                        self.assertIn((m["name"], m["unit"]), table, m["name"])

    def test_stuck_ops_end_the_run_as_errors_within_the_cap(self):
        start = time.monotonic()
        r = subprocess.run(
            [os.path.join(self.out, "wallbench"), "--workload", "ycsb-a-1paxos", "--seed", "3",
             "--seconds", "1", "--trace", "0", "--inject-stall"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=run.RUN_CAP_S)
        elapsed = time.monotonic() - start
        self.assertEqual(r.returncode, 1, r.stdout)
        result = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertLess(elapsed, 60)

    def test_fails_cleanly_without_the_library_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark's files:
        # the build must fail fast, with a non-zero exit and no result line.
        parent = os.path.join(run.build_root(), "tmp")
        os.makedirs(parent, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "wallbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            start = time.monotonic()
            r = subprocess.run(
                [sys.executable, "wallbench/run.py", "--workload", "ycsb-a-1paxos", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertLess(time.monotonic() - start, 180)
            last = r.stdout.rstrip("\n").split("\n")[-1] if r.stdout.strip() else ""
            self.assertFalse(last.startswith("{"), last)


if __name__ == "__main__":
    unittest.main(verbosity=2)
