#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload broadcast-c7|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
library and the benchmark from the checkout's sources into .bench_build/
(Release); later calls rebuild only what changed.  Every call then runs
the statistics self-test and the workload.  The workload's last stdout
line, one JSON object with "correct", "attempted", "failed" and
"metrics", is this script's last stdout line.  Build and progress output
go to stderr.  Any build, self-test or workload failure exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("broadcast-c7", "serve-mix")
RUN_TIMEOUT_S = 175


def step(cmd, timeout, env=None):
    """Runs cmd with stdout sent to stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout,
                              env=env)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: {' '.join(cmd)}: {exc}")
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited {done.returncode}")


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], 300, env)
    step(["cmake", "--build", BUILD, "-j", "4"], 840, env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build()
    step([os.path.join(BUILD, "perfbench_selftest")], 60)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: {exc}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: workload exited {done.returncode}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
