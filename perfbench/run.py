#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Extra flags (--profile tiny, --corrupt-oracle) pass through to the
benchmark binary. The binary's standard output is printed unchanged, so
its last line is the JSON result. Every run also appends one record to
perfbench/out/results.jsonl holding the result, the seed, the source
revision and a host fingerprint; earlier records are never overwritten,
so before/after rows and cross-host swings stay visible.

Exits non-zero without a result when the build fails (for instance when
the repository's crates are missing), when the binary refuses to start,
or when an answer is wrong.
"""

import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def capture(cmd):
    """Output of a helper command, or None when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree of its own."""
    top = capture(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    rev = capture(["git", "rev-parse", "HEAD"]) or "unknown"
    if capture(["git", "status", "--porcelain", "--untracked-files=no"]):
        rev += "-dirty"
    return rev


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "rustc": capture(["rustc", "--version"]) or "unknown",
    }


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(HERE, "out")
    cmd = [exe] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    record, result = None, None
    for line in lines:
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if record is not None and result is not None:
        entry = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_rev": git_rev(),
            "host": host_fingerprint(),
            "run": record,
            "result": result,
        }
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
