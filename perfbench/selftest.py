#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. select_batch selects byte-identical outputs (digest of every request's
   mask, success flag and evaluation count) at the full thread budget and
   with DFS_THREADS=1.
2. Every workload's traced run passes its checks, reconciliation included
   (sum(fit) <= sum(evaluation) + sum(importance),
   sum(evaluation) <= sum(run) x engine threads, and on study_pool
   sum(run) within [0.75, 1.15] x cpu_s), and prints every per-layer metric
   with its BENCHMARK.json unit.
3. Every workload's untraced run prints every end-to-end metric with its
   unit, each nonzero.
4. A directory holding only BENCHMARK.json and perfbench/ makes run.py fail
   without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SEED = 11


def run(workload, seconds, trace, env=None):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(SEED), "--seconds",
               str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900, env=env)
    lines = done.stdout.strip().splitlines()
    context = next((json.loads(line)["context"] for line in lines
                    if line.startswith('{"context"')), None)
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done, context, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class SelectBatchDeterminism(unittest.TestCase):
    def test_digest_matches_single_thread_run(self):
        _, parallel, result = run("select_batch", 1, 0)
        self.assertIsNotNone(result)
        self.assertTrue(result["correct"], parallel["check_failures"])
        # The program's own thread budget: main keeps a DFS_THREADS the
        # caller set.
        _, serial, serial_result = run("select_batch", 1, 0,
                                       env={**os.environ, "DFS_THREADS": "1"})
        self.assertIsNotNone(serial_result)
        self.assertTrue(serial_result["correct"], serial["check_failures"])
        self.assertTrue(parallel["digest"])
        self.assertEqual(serial["dfs_threads"], "1")
        self.assertEqual(parallel["digest"], serial["digest"])


class Runs(unittest.TestCase):
    SECONDS = {"study_pool": 1, "select_batch": 4, "serve_jobs": 4}

    def check(self, trace):
        group = spec()["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in group}
        for workload in self.SECONDS:
            with self.subTest(workload=workload, trace=trace):
                done, context, result = run(workload, self.SECONDS[workload], trace)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                self.assertTrue(result["correct"], context["check_failures"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, units)
                if not trace:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)
                else:
                    self.assertIn("trace.overhead_share", result["metrics"])

    def test_traced_runs_reconcile(self):
        self.check(trace=1)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        self.check(trace=0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "select_batch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
