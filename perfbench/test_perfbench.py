#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py [-v] [-k pattern]

Covers the BENCHMARK.json contract, seed determinism, the preset
configurations, clean runs, and that a tampered result counts as failed and
makes the command exit non-zero. Every test goes through run.py, which builds
the binary first. The run tests take a few minutes in total.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("screen", "hier_chain", "detector_sweep")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          cwd=ROOT, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def inputs_line(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed), "--inputs-only")
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        if line.startswith("# inputs digest="):
            return line
    raise AssertionError("no inputs line in:\n" + proc.stdout)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_bare_benchmark_directory_fails_without_result(self):
        # Only BENCHMARK.json and the benchmark's own files: no library to
        # build, so the command must fail and print no result.
        bare = os.path.join(ROOT, ".bench_build", "tests", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "screen", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, env=env, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result_of(proc))


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            self.assertEqual(inputs_line(w, 7), inputs_line(w, 7), w)

    def test_different_seeds_differ(self):
        for w in WORKLOADS:
            digests = {inputs_line(w, s).split()[2] for s in range(6)}
            self.assertEqual(len(digests), 6, w)

    def test_preset_reproduces_golden_configurations(self):
        self.assertIn("pipes_ohm=1000,2000,4000,8000 ", inputs_line("screen", 0))
        self.assertIn("freqs_hz=500000000,500000000", inputs_line("hier_chain", 0))
        line = inputs_line("detector_sweep", 0)
        for point in ("v1/1e-11F/2e-06s/100000000Hz/1000ohm",
                      "v1/1e-11F/2e-06s/100000000Hz/1500ohm",
                      "v2/1e-11F/1e-06s/100000000Hz/2000ohm",
                      "v2/1e-11F/1e-06s/100000000Hz/3000ohm",
                      "v1/1e-12F/3e-07s/500000000Hz/1000ohm",
                      "v1/1e-12F/3e-07s/500000000Hz/2000ohm",
                      "v2/1e-12F/2.5e-07s/500000000Hz/3000ohm",
                      "v2/1e-12F/2.5e-07s/500000000Hz/5000ohm"):
            self.assertIn(point, line)


class RunTest(unittest.TestCase):
    def check_clean(self, proc, metric_names):
        result = result_of(proc)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), metric_names)
        return result

    def test_preset_runs_clean(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--seed", "0", "--seconds", "0",
                             "--trace", "0")
                result = self.check_clean(proc, names)
                for m in SPEC["end_to_end"]:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_traced_run_prints_every_layer_metric_and_counts_repeat(self):
        proc = bench("--workload", "screen", "--seed", "3", "--seconds", "0",
                     "--trace", "1")
        result = self.check_clean(proc, [m["name"] for m in SPEC["per_layer"]])
        self.assertIn("telemetry count mismatches: 0", proc.stderr)
        self.assertNotIn("FINDING", proc.stderr)


class TamperTest(unittest.TestCase):
    """A corrupted result must count as failed and fail the command."""

    def check_caught(self, workload, tamper, seed):
        proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                     "0", "--trace", "0", "--tamper", tamper)
        result = result_of(proc)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        ratio = re.search(r"^failed_ratio +(\S+)", proc.stdout, re.M)
        self.assertGreater(float(ratio.group(1)), 0)

    def test_flipped_defect_class(self):
        self.check_caught("screen", "flip", 0)
        self.check_caught("screen", "flip", 4)

    def test_hier_swing_doubled(self):
        self.check_caught("hier_chain", "swing", 4)

    def test_detector_amplitude_off(self):
        self.check_caught("detector_sweep", "amplitude", 4)


if __name__ == "__main__":
    unittest.main()
