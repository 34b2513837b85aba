#!/usr/bin/env python3
"""Fault-to-diagnosis benchmark: builds its binary from source, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|diagnose|record_replay \
        --seed N --seconds S --trace 0|1

The binary is built with CMake from perfbench/CMakeLists.txt (which
compiles ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; an up-to-date build is a no-op. Build output
goes to stderr. The binary's stdout is passed through unchanged: its last
line is the run's JSON result. Exits nonzero, without a result, when the
sources are missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fleet", "diagnose", "record_replay")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench"], check=True, stdout=sys.stderr, cwd=ROOT)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Session.cpp")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    base = os.path.dirname(out)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.join(base, "perfbench-data"),
           "--out-dir", os.path.join(base, "perfbench-out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout.decode())
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
