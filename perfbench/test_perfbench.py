#!/usr/bin/env python3
"""Self-test of the step benchmark: every workload at smoke size, end to end.

Run from the repository root (it builds the benchmark first if needed):

    python3 perfbench/test_perfbench.py

For each workload it runs perfbench/run.py with --tiny and checks that
  * an untraced run emits exactly the BENCHMARK.json end-to-end metrics, each
    with its unit, verifies every rep, and repeats its state fingerprint for
    the same seed;
  * a traced run emits exactly the per-layer metrics, each with its unit, and
    writes a Chrome trace holding both the program's and the benchmark's spans;
  * a deliberately wrong reference fingerprint (--corrupt-ref) is caught: every
    attempted rep or member counts as failed and "correct" is false.
"""
import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  (every workload stepbench knows)


def run(workload, *extra, trace=0, seed=1):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout.strip().splitlines()
    return json.loads(out[-2])["record"], json.loads(out[-1])


class StepBenchmark(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual({m["name"]: m["unit"] for m in spec},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_workloads(self):
        for name in WORKLOADS:
            with self.subTest(workload=name, run="untraced"):
                record, result = run(name)
                self.check_metrics(result, BENCH["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                again, _ = run(name)
                self.assertEqual(record["fingerprint"], again["fingerprint"])

            with self.subTest(workload=name, run="traced"):
                record, result = run(name, trace=1, seed=2)
                self.check_metrics(result, BENCH["per_layer"])
                self.assertEqual(result["failed"], 0)
                self.assertLess(abs(result["metrics"]["core.phase_gap_frac"]["value"]), 0.05)
                trace = json.loads((ROOT / ".bench_build" / "run" /
                                    f"trace-{name}-s2.json").read_text())
                pids = {e["pid"] for e in trace["traceEvents"]}
                self.assertEqual(pids, {0, 1})
                steps = [e for e in trace["traceEvents"] if e["name"] == "step"]
                self.assertTrue(steps)

            with self.subTest(workload=name, run="corrupt reference"):
                _, result = run(name, "--corrupt-ref")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
