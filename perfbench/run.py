#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload kernels-interp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere: the repository root is the parent of this file's
directory. The benchmark is compiled from source into .bench_build/ at the
root (the first run configures and builds, later runs rebuild only what
changed). Build output goes to stderr; the last line of stdout is the
result JSON: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("kernels-interp", "fleet-replay", "gateway-open")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class ResultError(ValueError):
    """The benchmark's result line is missing or malformed."""


def parse_result(line):
    """Parses and validates one result line; returns the decoded object."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, TypeError) as e:
        raise ResultError("result is not JSON: %s" % e)
    if not isinstance(obj, dict):
        raise ResultError("result is not an object")
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(obj) != keys:
        raise ResultError("result keys %s, want %s" % (sorted(obj), sorted(keys)))
    if not isinstance(obj["correct"], bool):
        raise ResultError("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool) or obj[k] < 0:
            raise ResultError("%s must be a non-negative integer" % k)
    if obj["attempted"] < 1:
        raise ResultError("attempted must be at least 1")
    if obj["failed"] > obj["attempted"]:
        raise ResultError("failed exceeds attempted")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ResultError("metrics must be a non-empty object")
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise ResultError("bad metric name %r" % name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ResultError("metric %s must hold exactly value and unit" % name)
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v != v:
            raise ResultError("metric %s has a non-numeric value" % name)
        if not isinstance(m["unit"], str) or not m["unit"]:
            raise ResultError("metric %s has no unit" % name)
    return obj


def build(targets):
    """Configures (once) and builds the given targets; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "device.hpp")):
        sys.exit("perfbench: simulator sources (src/) not found under %s" % ROOT)
    t0 = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    left = BUILD_TIMEOUT_S - (time.monotonic() - t0)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] + list(targets),
        check=True, stdout=sys.stderr, timeout=left)
    return BUILD_DIR


def run_benchmark(args):
    build(["perfbench"])
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        parse_result(lines[-1])
    except ResultError as e:
        sys.exit("perfbench: exit %d, %s" % (proc.returncode, e))
    print(lines[-1], flush=True)
    return proc.returncode


def selftest():
    bdir = build(["perfbench", "perfbench_selftest"])
    rc = subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode
    rc |= subprocess.run(
        [sys.executable, "-m", "unittest", "-v", "test_run"], cwd=BENCH_DIR).returncode
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own helper tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
