#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py      # from the repository root

Runs every workload run.py knows, the gated ones in BENCHMARK.json and
the ungated steady and sharded, shrunk (run.py --smoke), untraced and
traced. Each run must exit 0 with every correctness check passed, and its
last line must parse as the result object with exactly the keys correct,
attempted, failed and metrics, carrying every metric BENCHMARK.json names
for that mode (end_to_end untraced, per_layer traced), each with its unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py beside this file)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
    SPEC = json.load(spec_file)


class SmokeTest(unittest.TestCase):
    def run_workload(self, workload, trace):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "0.5",
                   "--trace", str(trace), "--smoke"]
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, timeout=600)
        self.assertEqual(result.returncode, 0, result.stderr[-4000:])
        return json.loads(result.stdout.strip().splitlines()[-1])

    def check(self, workload, trace):
        result = self.run_workload(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])

    def test_workloads(self):
        gated = {w["name"] for w in SPEC["workloads"]}
        self.assertLessEqual(gated, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
