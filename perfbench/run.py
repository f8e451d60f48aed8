#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_read --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.cc against the checkout's src/ tree (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, checks the program's result against BENCHMARK.json, and prints it
as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones.
Build output and diagnostics go to stderr. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target",
                 "innet_perfbench", "-j", jobs]):
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if done.returncode != 0:
            fail(f"build step exited {done.returncode}: {' '.join(cmd)}")
    binary = build_dir / "innet_perfbench"
    if not binary.is_file():
        fail(f"no benchmark binary at {binary}")
    return build_dir, binary


def check(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"benchmark result has keys {sorted(result)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"benchmark result has a bad {key}: {result[key]!r}")
    if result["attempted"] < 1:
        fail("benchmark attempted no operations")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"correctness check failed: correct={result['correct']!r}, "
             f"failed={result['failed']}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"benchmark metrics {sorted(got)} do not match BENCHMARK.json")
    for m in want:
        entry = got[m["name"]]
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            fail(f"{m['name']}: unit {entry.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            fail(f"{m['name']}: bad value {value!r}")
        if not trace and value <= 0:
            fail(f"{m['name']}: end-to-end metric is zero")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir, binary = build()
    env = dict(os.environ, INNET_PERFBENCH_SCRATCH=str(build_dir))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark failed: {err}")
    if done.returncode != 0:
        fail(f"benchmark exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        fail(f"benchmark printed no result: {err}")
    check(result, spec, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
