#!/usr/bin/env python3
"""Run the step benchmark over several seeds and summarize its spread.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1-10 [--workloads serial_1r,ranks_4r]
                                 [--trace 0|1] [--out summary.json]

For every workload it runs perfbench/run.py once per seed with the
BENCHMARK.json run length, then prints, per metric, the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the quartile spread
(q3 - q1) / median against a third of the metric's bound. When serial_1r and
ranks_4r are both present it adds the derived strong-scaling efficiency,
step_ms_p50(serial_1r) / (4 x step_ms_p50(ranks_4r)), which is reported but
not gated.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run and the summary as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            record, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs[workload].append({"record": record, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        summary[workload] = {}
        for name in runs[workload][0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "unit": runs[workload][0]["result"]["metrics"][name]["unit"]}
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"{workload:14s} {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  {flag}")
    if not args.trace and {"serial_1r", "ranks_4r"} <= set(summary):
        eff = (summary["serial_1r"]["step_ms_p50"]["median"] /
               (4 * summary["ranks_4r"]["step_ms_p50"]["median"]))
        summary["derived"] = {"strong_scaling_efficiency_ranks_4r": eff}
        print(f"derived: strong-scaling efficiency of ranks_4r vs serial_1r = {eff:.3f}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))


if __name__ == "__main__":
    main()
