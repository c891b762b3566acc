#!/usr/bin/env python3
"""Tests of the planet-epoch benchmark itself.

Runs every workload at tiny size through run.py (building the benchmark
first if needed), checks the result format against BENCHMARK.json, and
forces each failure the benchmark must catch: a twin-fidelity mismatch, a
digest mismatch, an auction that does not converge and an award whose
unplaced units are not refunded. (The treasury-conservation check has no
forced failure: the public API offers no way to unbalance the planet
ledger.)

    python3 planetbench/test_planetbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("planet-epoch", "planet-economy", "dense-clock")
FEDERATED = ("planet-epoch", "planet-economy")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bench(workload, trace, *extra, seed=7, root=ROOT):
    """Runs run.py at tiny size; returns (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(root, "planetbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          check=False)
    return done.returncode, done.stdout.rstrip("\n").split("\n")


def digest_line(lines):
    return [line for line in lines if line.startswith("digest of world 0")]


class MetricGrammarTest(unittest.TestCase):
    def test_names_and_units_follow_the_grammar(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_grammar_rejects_bad_names(self):
        for bad in ("", "_lead", "has space", "x" * 65, "slash/name", "é"):
            self.assertIsNone(NAME.match(bad), bad)

    def test_declares_the_workloads_and_end_to_end_metrics(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(set(e2e), {"setup_s", "epoch_ms", "epoch_cpu_ms",
                                    "bidders_per_s", "peak_rss_mb"})
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        bounds = [m["bound"] for m in spec["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(e2e["setup_s"]["bound"], max(bounds))


class WorkloadTest(unittest.TestCase):
    def check_result(self, lines, trace):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = load_spec()
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, declared)
        for name in got:
            self.assertRegex(name, NAME)
        return result["metrics"]

    def test_timed_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 0)
                self.assertEqual(code, 0, "\n".join(lines))
                metrics = self.check_result(lines, trace=False)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertEqual(len(digest_line(lines)), 1)

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                metrics = self.check_result(lines, trace=True)
                self.assertGreater(metrics["federation.thread_speedup"]
                                   ["value"], 0)
                self.assertTrue(any(line.startswith("top layers by self")
                                    for line in lines))
                if workload in FEDERATED:
                    self.assertGreater(
                        metrics["twin.replayed_shard_epochs"]["value"], 0)
                    self.assertEqual(
                        metrics["twin.unreplayable_shard_epochs"]["value"], 0)

    def test_digest_is_a_function_of_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = digest_line(bench(workload, 0, seed=11)[1])
                again = digest_line(bench(workload, 0, seed=11)[1])
                other = digest_line(bench(workload, 0, seed=12)[1])
                traced = digest_line(bench(workload, 1, seed=11)[1])
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)
                self.assertEqual(first, traced,
                                 "the traced run must print the timed "
                                 "run's digest")


class ForcedFailureTest(unittest.TestCase):
    def assert_fails(self, code, lines, marker):
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertTrue(any(marker in line for line in lines),
                        "\n".join(lines))

    def test_fidelity_mismatch_fails(self):
        for workload in FEDERATED:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 1, "--inject", "fidelity")
                self.assert_fails(code, lines, "twin fidelity")

    def test_unconverged_auction_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 0, "--inject", "converge")
                self.assert_fails(code, lines, "did not converge")

    def test_unrefunded_units_fail(self):
        for workload in FEDERATED:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 0, "--inject", "refund")
                self.assert_fails(code, lines,
                                  "breaks awarded == placed + refunded")

    def test_digest_mismatch_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 1, "--inject", "digest")
                self.assert_fails(code, lines, "digest mismatch")

    def test_bad_usage_fails_without_a_result(self):
        code, lines = bench("planet-epoch", 0, "--bogus", "1")
        self.assertNotEqual(code, 0)
        self.assertFalse(lines[-1].startswith("{"))

    def test_benchmark_alone_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as alone:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "planetbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "planetbench/run.py", "--workload",
                 "dense-clock", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=alone, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180, env=env,
                check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
