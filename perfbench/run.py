#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
re-check the build. --trace 0 runs perfbench_e2e (end-to-end metrics, no
tracing); --trace 1 runs perfbench_ledger (the per-layer ledger). The
binary's last stdout line is the result JSON, passed through unchanged.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-grid", "dense-10k-audited", "tuning-sweep")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "perfbench")


def build(out):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources under src/ to build")
    jobs = str(len(os.sched_getaffinity(0)))
    # The repository's own default build type, so the numbers are those of
    # the library as it is normally built.
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs]]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    build(out)
    binary = os.path.join(out, "perfbench_ledger" if args.trace
                          else "perfbench_e2e")
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (binary, done.returncode))
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
