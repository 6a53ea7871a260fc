#!/usr/bin/env python3
"""The benchmark's own check, run from the repository root:

    python3 perfbench/selftest.py                  # every workload
    python3 perfbench/selftest.py paper-grid       # just the named ones

For each workload it runs run.py untraced and traced for one second and
asserts that
  * the result line is well formed, every check passed and nothing failed;
  * the printed metric names are exactly the ones BENCHMARK.json declares
    (end_to_end untraced, per_layer traced), with the declared units;
and, on the first workload, that a second seed changes the inputs (the
reference report's digest) but not the set of metric names.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check(condition, what):
    if not condition:
        sys.exit("selftest FAILED: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in declared["workloads"]]
    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            context, result = run(workload, 1, trace)
            where = "%s --trace %d" % (workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  where + ": result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, where + ": checks failed")
            units = {m["name"]: m["unit"] for m in declared[section]}
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            check(printed == units, where + ": printed %s, declared %s"
                  % (sorted(printed.items()), sorted(units.items())))
            check(context["seed"] == 1 and context["nproc"] >= 1,
                  where + ": context")
            print("ok  %s (%d metrics)" % (where, len(printed)))

    workload = workloads[0]
    first, first_result = run(workload, 1, 0)
    second, second_result = run(workload, 2, 0)
    check(first["reference_digest"] != second["reference_digest"],
          workload + ": seed 2 produced the same inputs as seed 1")
    check(set(first_result["metrics"]) == set(second_result["metrics"]),
          workload + ": metric names depend on the seed")
    print("ok  %s: a new seed changes the inputs, not the names" % workload)


if __name__ == "__main__":
    main()
