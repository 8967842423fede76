#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs a tiny profile (small databases, one-second windows) of every
workload named in BENCHMARK.json, untraced and traced, and checks that
each run's last line is a result object that reports every metric
BENCHMARK.json names, with its unit, and nothing else. Then reruns each
workload with a deliberately corrupted expected sum in the benchmark's
own oracle and checks that the run fails. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--profile", "tiny", *extra,
    ]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


def last_result(proc):
    lines = proc.stdout.splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def check_run(workload, trace, expected, failures):
    proc = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    result = last_result(proc)
    if proc.returncode != 0 or result is None:
        failures.append("%s: exit %d, no result\n%s" % (where, proc.returncode, proc.stderr[-2000:]))
        return
    if set(result) != RESULT_KEYS:
        failures.append("%s: result keys %s" % (where, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failures.append("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        failures.append("%s: metrics differ: missing %s, extra %s" % (
            where, sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            failures.append("%s: %s has unit %r, not %r" % (where, name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            failures.append("%s: %s value %r is not a number" % (where, name, m.get("value")))


def check_corrupt_oracle(workload, failures):
    proc = run(workload, 0, "--corrupt-oracle")
    result = last_result(proc)
    if proc.returncode == 0:
        failures.append("%s: a corrupted oracle sum did not fail the run" % workload)
    elif result is not None and result.get("correct") is not False:
        failures.append("%s: failed run still reports correct=%r" % (workload, result.get("correct")))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, tables[trace], failures)
        check_corrupt_oracle(w["name"], failures)
        print("checked %s" % w["name"], flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %d workloads, %d failures" % (len(spec["workloads"]), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
