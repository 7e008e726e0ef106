#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/test_bench.py

Runs the harness through run.py (building it if needed) with --tiny (RAM64
instead of RAM256, four serve tenants) and one-second runs, and checks that:
  * every end-to-end metric of BENCHMARK.json is printed, with its unit, on
    every workload, and every per-layer metric on a traced run;
  * a second seed prints the same metric names with verified outputs;
  * a corrupted expected checksum, a corrupted serve reference, or serve
    tenant bands no circuit can meet, is reported as failed ops with a
    non-zero exit, not as a crash.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grade_ram256", "replay_ram256", "serve_mixed"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, seed=3, seconds=1, trace=0, command_args=True):
    # The benchmark command's own arguments (the offered serve rate) come
    # from BENCHMARK.json, the one place they are set.
    fixed = spec()["command"][2:] if command_args else []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + fixed + list(args)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def units(section):
    return {m["name"]: m["unit"] for m in spec()[section]}


class BenchSelfTest(unittest.TestCase):
    def check_metrics(self, result, section):
        want = units(section)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(want, got)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_prints_every_end_to_end_metric(self):
        for seed in (3, 4):  # a second seed must print the same names
            for w in WORKLOADS:
                with self.subTest(workload=w, seed=seed):
                    code, result, err = run("--workload", w, seed=seed)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        code, result, err = run("--workload", "replay_ram256", seconds=2,
                                trace=1)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], err)
        self.check_metrics(result, "per_layer")
        metrics = result["metrics"]
        self.assertEqual(metrics["core.store_recordings"]["value"], 1)
        self.assertEqual(metrics["core.node_evals"]["value"], 310392)
        self.assertEqual(metrics["serve.rejected"]["value"], 0)

    def test_corrupted_checksum_is_a_failed_op(self):
        for w in ("grade_ram256", "replay_ram256"):
            with self.subTest(workload=w):
                code, result, err = run("--workload", w,
                                        "--expect-checksum", "0x1234")
                self.assertEqual(code, 1, err)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 3)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("FAILED", err)

    def test_corrupted_serve_reference_is_a_failed_op(self):
        code, result, err = run("--workload", "serve_mixed",
                                "--corrupt-serve-reference")
        self.assertEqual(code, 1, err)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])

    def test_unreachable_tenant_band_is_a_failed_op(self):
        code, result, err = run("--workload", "serve_mixed",
                                "--unreachable-bands")
        self.assertEqual(code, 1, err)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("tenant 0 (class small)", err)

    def test_usage_errors_print_no_result(self):
        code, result, _ = run("--workload", "no_such_workload")
        self.assertEqual(code, 2)
        self.assertIsNone(result)
        code, result, _ = run("--workload", "grade_ram256",
                              command_args=False)  # no --serve-rate
        self.assertEqual(code, 2)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
