#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale (a few seconds per workload).

    python3 perfbench/test_perfbench.py

They check that every named metric is printed with its unit, that the
environment guard refuses to run, and that each output check fails on a
deliberately perturbed result.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (the benchmark module under test)

SCALE = 0.02


def run_bench(workload, trace, env=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--scale", str(SCALE)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=300)


def raw_outputs(workload):
    """The measuring program's outputs for one tiny run, trace included."""
    spill_dir = os.path.join(run.ROOT, ".bench_build", "spill", "test")
    os.makedirs(spill_dir, exist_ok=True)
    spill = "--spill-dir=" + spill_dir
    timed = run.measure("timed", workload, 3, SCALE, "--seconds=0",
                        spill)["result"]
    audit = run.measure("audit", workload, 3, SCALE)["result"]
    trace = run.measure("trace", workload, 3, SCALE, spill)["result"]
    return timed, audit, trace


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, unit in units.items():
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit)
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertTrue(
                            any(line.split()[:1] == [name] and
                                line.split()[-1] == unit
                                for line in lines[:-1]),
                            "%s not printed with its unit" % name)
                    if trace == 0:
                        for name in units:
                            self.assertGreater(result["metrics"][name]
                                               ["value"], 0, name)

    def test_benchmark_json_names_the_same_metrics(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_refuses_a_polluted_environment(self):
        for name in run.FORBIDDEN_ENV:
            with self.subTest(variable=name):
                env = dict(os.environ, **{name: "1"})
                proc = run_bench("static_range", 0, env=env)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout, "")


class ChecksCatchPerturbations(unittest.TestCase):
    """Each output check, on a result perturbed so that only it fails."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.outputs = {w: raw_outputs(w) for w in run.WORKLOADS}

    def check(self, workload, perturb):
        timed, audit, trace = copy.deepcopy(self.outputs[workload])
        perturb(timed, audit, trace)
        return run.check_outputs(workload, timed, audit, trace)

    def test_unperturbed_outputs_pass(self):
        for workload in run.WORKLOADS:
            attempted, failures = self.check(workload, lambda *_: None)
            self.assertEqual(failures, [], workload)
            self.assertGreater(attempted, 3)

    def test_repeat_differs(self):
        def perturb(timed, audit, trace):
            timed["iterations"][-1]["run"]["totals"]["maint_deploys"] += 1
        for workload in run.WORKLOADS:
            _, failures = self.check(workload, perturb)
            self.assertEqual(len(failures), 1, workload)
            self.assertIn("maint_deploys", failures[0])

    def test_traced_run_differs(self):
        def perturb(timed, audit, trace):
            trace["run"]["totals"]["updates_generated"] += 1
        for workload in run.WORKLOADS:
            _, failures = self.check(workload, perturb)
            self.assertEqual(len(failures), 1, workload)
            self.assertIn("traced run", failures[0])

    def test_profiled_run_differs(self):
        def perturb(timed, audit, trace):
            trace["profiled_run"]["net"]["crossings"] += 1
        for workload in run.WORKLOADS:
            _, failures = self.check(workload, perturb)
            self.assertEqual(len(failures), 1, workload)
            self.assertIn("profiled run", failures[0])

    def test_audit_totals_differ(self):
        def perturb(timed, audit, trace):
            audit["run"]["totals"]["maint_physical"] += 1
        for workload in run.WORKLOADS:
            _, failures = self.check(workload, perturb)
            self.assertEqual(len(failures), 1, workload)
            self.assertIn("audit", failures[0])

    def test_oracle_violation(self):
        def perturb(timed, audit, trace):
            audit["oracle_violations"] += 1
        for workload in run.ZERO_VIOLATION_WORKLOADS:
            _, failures = self.check(workload, perturb)
            self.assertEqual(len(failures), 1, workload)
            self.assertIn("oracle violations", failures[0])

    def test_crossing_conservation(self):
        # The same extra drop in every run: repeats still agree, but the
        # crossings no longer add up.
        def perturb(timed, audit, trace):
            runs = [e["run"] for e in timed["iterations"]]
            runs += [audit["run"], trace["run"], trace["profiled_run"]]
            for r in runs:
                r["net"]["dropped_loss"] += 1
        _, failures = self.check("knn_lossy", perturb)
        self.assertTrue(failures)
        self.assertTrue(all("conservation" in f for f in failures), failures)


if __name__ == "__main__":
    unittest.main()
