#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 wallbench/repeat.py [--runs N] [--first-seed S] [--seconds T]
                                [--trace 0|1] [--workload NAME ...]

Runs `wallbench/run.py` N times per workload (seeds S, S+1, ...), one run at
a time, and prints for every metric the median of its N values and their
spread: (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), the rule a set of runs is judged by. An
end-to-end metric whose spread exceeds a third of its BENCHMARK.json bound
is marked "WIDE" (setup_s excepted: its spread is not bounded, only its
median). Workloads default to all of BENCHMARK.json's; T defaults to its
run_seconds. Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile range over the median, as statistics.quantiles gives it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, r.returncode))
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                res = run_once(w, seed, args.seconds, args.trace)
            except RuntimeError as e:
                print("FAILED: %s" % e, flush=True)
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            flag = ""
            if name in bounds and name != "setup_s" and s > bounds[name] / 3:
                flag = "  WIDE (bound %.2f)" % bounds[name]
            print("  %-20s %-36s median %-12.6g spread %.3f%s" % (
                w, name, statistics.median(vals), s, flag), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
