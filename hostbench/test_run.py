#!/usr/bin/env python3
"""The host-time benchmark's own tests, on its short mode (a few virtual
seconds per repetition, every workload, both passes).

    python3 hostbench/test_run.py
"""

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.REPO, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def bench(*argv):
    """Runs the benchmark in-process on its short mode; returns the parsed
    result line and the human-readable lines before it."""
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--short", "--seconds", "0"] + list(argv))
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_workload_names_match_benchmark_json(self):
        self.assertEqual(list(run.WORKLOADS), [w["name"] for w in SPEC["workloads"]])

    def test_every_workload_prints_the_declared_metrics_in_both_passes(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench("--workload", workload, "--seed", "1",
                                      "--trace", str(trace))
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    if section == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_traced_pass_matches_untraced_digest_and_writes_spans(self):
        result, lines = bench("--workload", "postmark_ssd", "--seed", "3", "--trace", "1")
        self.assertTrue(result["correct"])
        trace_path = lines[-1].split("trace written to ")[-1]
        with open(trace_path) as trace_file:
            trace = json.load(trace_file)
        names = {span["name"] for span in trace["spans"]}
        self.assertTrue({"repetition", "machine", "prepare", "setup", "run"} <= names)
        self.assertEqual(sum(op["count"] for op in trace["steps"].values()),
                         trace["step_all"]["count"])

    def test_repetition_fed_another_seed_counts_as_failed(self):
        reps = [run.run_rep("postmark_ssd", seed, False, True) for seed in (1, 2, 1)]
        attempted, failed = run.gate(reps)
        self.assertEqual([r["passed"] for r in reps], [True, False, True])
        self.assertEqual(failed, reps[1]["attempted"])
        self.assertEqual(attempted, sum(r["attempted"] for r in reps))

    def test_decorator_that_drops_prewarm_fails_the_gate(self):
        reps = [run.run_rep("randread_tiers", 1, False, True),
                run.run_rep("randread_tiers", 1, True, True, ["--drop-prewarm"])]
        _, failed = run.gate(reps)
        self.assertEqual([r["passed"] for r in reps], [True, False])
        self.assertEqual(failed, reps[1]["attempted"])

    def test_step_error_counts_every_op_of_the_repetition(self):
        broken = run.run_rep("postmark_ssd", 1, True, True, ["--fail-step", "5000"])
        self.assertEqual(broken["gate"], "run failed: ENOSPC")
        self.assertEqual(broken["ops"], 4999)
        self.assertEqual(broken["attempted"], 5000)
        reps = [run.run_rep("postmark_ssd", 1, False, True), broken]
        attempted, failed = run.gate(reps)
        self.assertEqual(failed, 5000)
        self.assertEqual(attempted, reps[0]["attempted"] + 5000)

    def test_same_seed_same_digest_other_seed_other_digest(self):
        first = run.run_rep("bigdir_churn", 5, False, True)
        again = run.run_rep("bigdir_churn", 5, True, True)
        other = run.run_rep("bigdir_churn", 6, False, True)
        self.assertEqual(first["digest"], again["digest"])
        self.assertNotEqual(first["digest"], other["digest"])


if __name__ == "__main__":
    unittest.main()
