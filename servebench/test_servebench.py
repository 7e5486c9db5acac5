#!/usr/bin/env python3
"""Tests of the served-path benchmark itself: its arithmetic, its gates and
its output contract.

    python3 -m unittest servebench/test_servebench.py

The smoke runs use `run.py --smoke` (short warm-up, one set-up) on every
workload with --trace 1, so every correctness gate and every byte check of
the traced replay runs; the suite takes well under a minute.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import steady  # noqa: E402


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "servebench", "run.py")]
    return subprocess.run(cmd + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class Arithmetic(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        med, sp = steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        # statistics.quantiles(n=4), "exclusive": q1 = 2.75, q3 = 8.25.
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(sp, (8.25 - 2.75) / 5.5)

    def test_spread_of_constant_series_is_zero(self):
        self.assertEqual(steady.spread([4.0] * 10), (4.0, 0.0))

    def test_seed_list(self):
        self.assertEqual(steady.seed_list("3-6"), [3, 4, 5, 6])
        self.assertEqual(steady.seed_list("9"), [9])

    def test_selftest_binary(self):
        self.assertTrue(run.build())
        build = os.path.join(ROOT, ".bench_build", "servebench")
        r = subprocess.run(["cmake", "--build", build, "--target",
                            "servebench_selftest"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        self.assertEqual(r.returncode, 0, r.stdout)
        r = subprocess.run([os.path.join(build, "servebench_selftest")],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
        self.assertEqual(r.returncode, 0, r.stderr)


class Smoke(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), names)
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
        return json.loads(lines[-2])["run_record"], result

    def test_every_workload_traced(self):
        b = bench()
        layer_names = {m["name"] for m in b["per_layer"]}
        units = {m["name"]: m["unit"] for m in b["per_layer"]}
        for w in b["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run_bench("--workload", w["name"], "--seed", "3",
                                 "--seconds", "0.3", "--trace", "1",
                                 "--smoke")
                record, result = self.check_result(proc, layer_names)
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                gates = record["gates"]
                for gate in ("exact_cover", "within_capacity",
                             "definition1_distance", "grant_sizes",
                             "journal_matches_timed_run",
                             "replay_grant_stream_identical",
                             "trace_grant_stream_identical",
                             "trace_journal_identical",
                             "trace_routes_match_windows",
                             "trace_sampler_series_identical"):
                    self.assertIs(gates.get(gate), True, gate)
                for key in ("seed", "heldout_seed", "nproc", "pool_workers",
                            "threads_peak", "build_type", "compiler",
                            "probe", "raw", "corrected", "decide_samples",
                            "deciding_calls", "beyond_p99"):
                    self.assertIn(key, record)

    def test_untraced_prints_end_to_end_metrics(self):
        b = bench()
        names = {m["name"] for m in b["end_to_end"]}
        proc = run_bench("--workload", "paper30_batch", "--seed", "5",
                         "--seconds", "0.3", "--trace", "0", "--smoke")
        record, result = self.check_result(proc, names)
        for name in ("capacity_dps", "decide_us_p50", "decide_us_p99",
                     "setup_s"):
            self.assertIn(name, record["raw"])
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_gate_failure_exits_non_zero(self):
        # A check pass told to expect another journal must fail its gate.
        self.assertTrue(run.build())
        r = subprocess.run(
            [run.DRIVER, "check", "--workload", "paper30_batch", "--seed", "1",
             "--requests", "400", "--warmup", "300", "--quality", "50",
             "--journal-bytes", "1", "--journal-hash", "0"],
            cwd=ROOT, env=run.driver_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=300)
        self.assertNotEqual(r.returncode, 0)
        out = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertFalse(out["correct"])
        self.assertFalse(out["gates"]["journal_matches_timed_run"])
        self.assertTrue(out["gates"]["replay_grant_stream_identical"])

    def test_fails_without_program_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no build, no
        # result line, non-zero exit.
        scratch = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "servebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "paper30_batch", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=scratch)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertNotIn('"correct"', line)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
