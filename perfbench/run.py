#!/usr/bin/env python3
"""Repository benchmark: build the measuring program, run one workload,
check its result and print it as the last line of standard output.

    python3 perfbench/run.py --workload kv_local --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program (perfbench/montbench.ml)
is built from source with dune into .bench_build/; it does the set-up,
the measuring and the output checks.  The measured seconds are split
over PROCESSES runs of it, and each metric is the median over them:
with the same inputs, one process's figures moved by up to a quarter
from run to run, so a single process is not a steady sample.  Each
process sets the workload up afresh, so setup_s is also a median over
PROCESSES set-ups.  Workloads and metrics are declared in
BENCHMARK.json: --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/montbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "montbench.exe")
BUILD_TIMEOUT_S = 840
PROCESSES = 10
PROCESS_SLACK_S = 25


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout, kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout")
    # keep every build output inside the checkout (no shared dune cache)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, TARGET]
    code, _ = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")


def check(result, expected):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            fail(f"'{k}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(expected)}")
    for name, m in metrics.items():
        if m.get("unit") != expected[name] or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} is malformed: {m}")


def measure(args, seconds, expected):
    """One montbench process measuring for `seconds`: its checked result."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    # Fixed glibc malloc thresholds, so that buffers below 32 MiB (the
    # recovered regions and crash images) come from the heap and freed
    # ones are reused, never unmapped.  The default threshold adapts to
    # earlier frees, so whether a buffer costs fresh page faults would
    # depend on the process's history; freshly mapping every buffer
    # instead made recover_cold mostly a measure of the host's
    # page-fault speed, which moved its times by a third between runs.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    code, out = run(cmd, seconds + PROCESS_SLACK_S, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        fail(f"montbench exited with code {code}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    check(result, expected)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    group = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}

    build()
    share = args.seconds / PROCESSES
    results = [measure(args, share, expected) for _ in range(PROCESSES)]
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in results), "unit": unit}
        for name, unit in expected.items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
