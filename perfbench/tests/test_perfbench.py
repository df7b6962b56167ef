#!/usr/bin/env python3
"""The benchmark's own tests: output schema, and input determinism by seed.

    python3 perfbench/tests/test_perfbench.py

Builds the perfbench binary through run.py, then runs every workload at tiny sizes
(--smoke) and checks the result line against BENCHMARK.json.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# codec_alexnet is left out of BENCHMARK.json (see README) but stays runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["codec_alexnet"]
BINARY = None


def invoke(workload, seed=1, trace=0):
    """Run the binary at smoke sizes; returns (info dict, result dict)."""
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2].split(" ", 1)[1])
    return info, json.loads(lines[-1])


class Schema(unittest.TestCase):
    def check(self, trace, catalogue):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                info, result = invoke(workload, trace=trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], info["problems"])
                self.assertEqual(result["failed"], 0, info["problems"])
                self.assertGreaterEqual(result["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in catalogue}
                got = result["metrics"]
                self.assertEqual(list(got), list(expected))
                for name, metric in got.items():
                    self.assertEqual(set(metric), {"value", "unit"})
                    self.assertEqual(metric["unit"], expected[name], name)
                    self.assertIsInstance(metric["value"], (int, float), name)
                    self.assertTrue(math.isfinite(metric["value"]), name)
                    if trace == 0:
                        self.assertGreater(metric["value"], 0, name)
                self.assertEqual(info["pinned_to_one_core"], "yes")
                host = info["fingerprint"]["host"]
                self.assertEqual(set(host), {"cpu", "cores", "isa", "compiler", "build_type"})

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                info_a, result_a = invoke(workload, seed=7)
                info_b, result_b = invoke(workload, seed=7)
                self.assertEqual(info_a["input_digest"], info_b["input_digest"])
                for name in ("wire_ratio", "recon_rel_err"):
                    self.assertEqual(result_a["metrics"][name]["value"],
                                     result_b["metrics"][name]["value"], name)
                if "final_loss" in info_a:
                    self.assertEqual(info_a["final_loss"], info_b["final_loss"])

    def test_different_seed_different_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, _ = invoke(workload, seed=7)
                b, _ = invoke(workload, seed=8)
                self.assertNotEqual(a["input_digest"], b["input_digest"])


if __name__ == "__main__":
    BINARY = run.build()
    if BINARY is None:
        sys.exit("perfbench: build failed")
    unittest.main()
