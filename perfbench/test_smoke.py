#!/usr/bin/env python3
"""Smoke test of the host-wall benchmark at tiny size.

Runs every workload through perfbench/run.py with --tiny, untraced and
traced, and asserts that every metric BENCHMARK.json names is emitted with
its unit, that no output check failed (failed_frac 0), and that the traced
run wrote its Chrome trace. Takes about a minute after the build:

    python3 perfbench/test_smoke.py
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload, trace):
        lines, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIn("  failed_frac 0 (0 of", "\n".join(lines))
        expected = self.manifest["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return lines, result

    def test_workloads_untraced(self):
        for w in self.manifest["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_workloads_traced(self):
        for w in self.manifest["workloads"]:
            with self.subTest(workload=w["name"]):
                lines, result = self.check(w["name"], 1)
                trace_line = [l for l in lines if "chrome trace:" in l]
                self.assertEqual(len(trace_line), 1)
                path = Path(trace_line[0].split("chrome trace:")[1].strip())
                events = json.loads(path.read_text())["traceEvents"]
                self.assertTrue(any(e.get("ph") == "X" for e in events))
                m = result["metrics"]
                self.assertGreater(m["obs.span_coverage_frac"]["value"], 0.9)


if __name__ == "__main__":
    unittest.main()
