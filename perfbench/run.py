#!/usr/bin/env python3
"""Build and run the LICOMK++ step benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serial_1r --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the model libraries from
src/ plus the stepbench program) as a Release build under .bench_build/; later
calls rebuild incrementally. Build output goes to stderr. stepbench's stdout
is passed through, so the last line is the result object
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1) also
writes .bench_build/run/trace-<workload>-s<seed>.json (Chrome trace format).

Exits non-zero without printing a result when the sources are missing, the
build fails, or stepbench fails.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serial_1r", "threads_1r", "ranks_4r", "ensemble_farm")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "stepbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "stepbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-sized grids (self-test)")
    ap.add_argument("--corrupt-ref", action="store_true",
                    help="flip the reference fingerprint; every rep must then fail")
    args = ap.parse_args()

    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(BUILD / "run")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_ref:
        cmd.append("--corrupt-ref")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: stepbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
