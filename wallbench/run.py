#!/usr/bin/env python3
"""Wall-clock service benchmark: build, run one workload, check the result.

Usage, from the root of a checkout:

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (a CMake project in wallbench/ that compiles the
library from src/) into $CARGO_TARGET_DIR/wallbench, default
.bench_build/wallbench, then runs one measured window of NAME: one of
BENCHMARK.json's workloads, or one the benchmark runs but does not gate
(`wallbench --list` names them all; see README.md). The last line
of standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. Before that line is printed it is checked
against BENCHMARK.json: every metric named there must be present, with its
unit, and nothing else. The traced run also writes its spans to
<build>/traces/NAME.csv.

Exit status: 0 on a correct, complete run; non-zero (and no result line)
when the build fails, the run exceeds its wall-time cap, or the result does
not match BENCHMARK.json; the benchmark's own code otherwise (1: a
correctness violation or an unacknowledged op, 3: a void measurement).
"""

import argparse
import fcntl
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Matched whole (fullmatch): a name starts with a letter or digit and has at
# most 64 of [A-Za-z0-9_.-]; a unit has 1..16 of [A-Za-z0-9_/%.-].
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

BUILD_CAP_S = 850  # first run in a fresh checkout compiles the library
RUN_CAP_S = 170    # one measured run, set-up and teardown included


def log(msg):
    print("wallbench: " + msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "wallbench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_root()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_CAP_S)
            if r.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(cmd))
    return out


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def spec_errors(spec):
    """Problems with BENCHMARK.json's metric and workload names and units."""
    errors = []
    seen = set()
    groups = [("workloads", spec.get("workloads", [])),
              ("end_to_end", spec.get("end_to_end", [])),
              ("per_layer", spec.get("per_layer", []))]
    for group, entries in groups:
        for e in entries:
            name = e.get("name", "")
            if not NAME_RE.fullmatch(name):
                errors.append("%s: bad name %r" % (group, name))
            if name in seen:
                errors.append("%s: name %r used twice" % (group, name))
            seen.add(name)
            if group != "workloads" and not UNIT_RE.fullmatch(e.get("unit", "")):
                errors.append("%s: bad unit %r for %s" % (group, e.get("unit"), name))
    return errors


def result_errors(result, spec, trace):
    """Problems with one result object against BENCHMARK.json: the exact
    key set, whole-number counts, and every metric of the run's kind present
    with its unit and a finite value, and no other metric."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are %r, expected %r" % (
            sorted(result) if isinstance(result, dict) else result, sorted(RESULT_KEYS))]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            errors.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted is below 1")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if not isinstance(got, dict):
        return errors + ["metrics is not an object"]
    for name, unit in want.items():
        m = got.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append("metric %s missing or malformed" % name)
            continue
        if m["unit"] != unit:
            errors.append("metric %s has unit %r, expected %r" % (name, m["unit"], unit))
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append("metric %s value %r is not a finite number" % (name, v))
    for name in got:
        if name not in want:
            errors.append("metric %s is not in BENCHMARK.json" % name)
        elif not NAME_RE.fullmatch(name):
            errors.append("metric name %r breaks the grammar" % name)
    return errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    try:
        spec = load_spec()
        errors = spec_errors(spec)
        if errors:
            raise RuntimeError("BENCHMARK.json: " + "; ".join(errors))
        out = build(["wallbench"])
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 2

    cmd = [os.path.join(out, "wallbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".csv")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_CAP_S, text=True)
    except subprocess.TimeoutExpired:
        log("run exceeded its %d s cap and was killed" % RUN_CAP_S)
        return 4

    lines = r.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    for line in body:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        log("run printed no result line (exit %d)" % r.returncode)
        return r.returncode or 5
    errors = result_errors(result, spec, bool(args.trace))
    if errors:
        log("result does not match BENCHMARK.json: " + "; ".join(errors))
        return 6
    print(last, flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
