#!/usr/bin/env python3
"""Self-test of the commit-to-notify benchmark at tiny table sizes.

    python3 cqbench/tests/test_cqbench.py

Builds the benchmark the way cqbench/run.py does, then checks that

* every run prints each metric BENCHMARK.json names, with its unit, both
  as a "metric" line and in the final JSON object;
* the oracle rejects a sink that drops one notification (exit code 1,
  "correct": false);
* the single-writer workloads repeat their notification digest and work
  counters exactly for one seed.
"""
import importlib.util
import json
import os
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)


def load_run_module():
    spec = importlib.util.spec_from_file_location("cqbench_run", os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
# Every workload the binary runs: those BENCHMARK.json gates, plus
# fanout-complete, which is run on request only (see README.md).
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["fanout-complete"]
BINARY = load_run_module().build()


def run(workload, trace=0, seed=7, extra=()):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class MetricsArePrinted(unittest.TestCase):
    def check(self, workload, trace, declared):
        code, lines, result = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        printed = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "metric":
                printed[parts[1]] = parts[3]
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        self.assertIn("lock_order_checks=off obs=off lockprof=off lineage=off", lines[0])

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, BENCHMARK["end_to_end"])

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, BENCHMARK["per_layer"])


class OracleRejectsDroppedNotification(unittest.TestCase):
    def test_drop_one(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, extra=("--drop-notification", "2"))
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any("FAILED" in line for line in lines))


class SingleWriterRunsRepeat(unittest.TestCase):
    def test_digest_and_counters(self):
        for workload in ("fanout-complete", "join-periodic"):
            with self.subTest(workload=workload):
                first = [l for l in run(workload)[1] if l.startswith("stream_")]
                second = [l for l in run(workload)[1] if l.startswith("stream_")]
                self.assertEqual(len(first), 2)
                self.assertEqual(first, second)


if __name__ == "__main__":
    unittest.main()
