"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a tera checkout (takes a few seconds):

    python3 perfbench/selftest.py

It checks that each workload, untraced and traced, passes its own output
checks and emits exactly the metrics BENCHMARK.json names, with their
units; that a deliberately wrong job output is counted as failed; and that
the benchmark refuses to run where there is no program to measure.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IMPORT_S = run.load_program(ROOT)

import workloads as wl  # noqa: E402  (needs the program on the path first)

SECONDS = 0.2


def tiny(name):
    return {
        "recovery_sweep": lambda: wl.RecoverySweep(
            wl.RecoveryConfig(shape=16, mode_size=4, steps=20, pairs=2)
        ),
        "expressivity_verify": lambda: wl.ExpressivityVerify(
            wl.ExpressivityConfig(
                sweeps=2, extra_starts=1, polish_steps=5,
                random_instances=2, planted_instances=3,
            )
        ),
        "wide_scheme": lambda: wl.WideScheme(
            wl.WideConfig(
                schemes=(((4, 4, 4, 4), 2), ((2,) * 8, 4)),
                big=((8, 8, 8, 8), 2),
                pool=2,
            )
        ),
        "mlp_pipeline": lambda: wl.MlpPipeline(
            wl.MlpConfig(
                layer_sizes="16,16,16", scheme="16|4,4", n_train=32, n_test=32,
                pretrain_steps=5, max_steps=5, configs=2,
            ),
            work_dir=run.OUT_DIR / "selftest_mlp",
        ),
    }[name]()


class TinyRuns(unittest.TestCase):
    def assert_metrics(self, result, spec):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in spec})
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_workload_set_matches_spec(self):
        self.assertEqual(
            sorted(w["name"] for w in SPEC["workloads"]), sorted(wl.WORKLOADS)
        )

    def test_every_workload_emits_every_metric(self):
        for spec in SPEC["workloads"]:
            name = spec["name"]
            with self.subTest(workload=name, trace=0):
                result = run.run(tiny(name), 1, SECONDS, 0, IMPORT_S)
                self.assertTrue(result["correct"], result["details"]["failures"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics(result, SPEC["end_to_end"])
                for metric, m in result["metrics"].items():
                    # Quality at the tiny size may well be 0; timings may not.
                    if m["unit"] != "ratio":
                        self.assertGreater(m["value"], 0, metric)
            with self.subTest(workload=name, trace=1):
                result = run.run(tiny(name), 1, SECONDS, 1, IMPORT_S)
                self.assertTrue(result["correct"], result["details"]["failures"])
                self.assert_metrics(result, SPEC["per_layer"])

    def test_traced_counts_repeat(self):
        def counts():
            result = run.run(tiny("recovery_sweep"), 3, SECONDS, 1, IMPORT_S)
            return {
                k: m["value"] for k, m in result["metrics"].items()
                if k.endswith((".calls", "_computed", "_ratio"))
            }

        first = counts()
        self.assertGreater(first["adapters.materialize_delta.calls"], 0)
        self.assertEqual(first, counts())

    def test_perturbed_residual_is_a_failure(self):
        workload = tiny("recovery_sweep")
        job = workload.run_job

        def perturbed(state, i):
            family, task, adapter, report = job(state, i)
            report.metrics["final_relative_residual"] += 1e-6
            return family, task, adapter, report

        workload.run_job = perturbed
        result = run.run(workload, 1, SECONDS, 0, IMPORT_S)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_perturbed_apply_is_a_failure(self):
        workload = tiny("wide_scheme")
        job = workload.run_job

        def perturbed(state, i):
            small, y_big = job(state, i)
            rank_rep, grads, y = small[0]
            small[0] = (rank_rep, grads, y + 1e-6)
            return small, y_big

        workload.run_job = perturbed
        result = run.run(workload, 1, SECONDS, 0, IMPORT_S)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_understated_lhs_is_a_failure(self):
        workload = tiny("expressivity_verify")
        job = workload.run_job

        def understated(state, i):
            report = job(state, i)
            if report is not None:
                # Still consistent with its verdict, so only the independent
                # recomputation of lhs can catch it.
                report.lhs *= 0.5
                tol = report.terms["tolerance"]
                report.verdict = "holds" if report.lhs <= report.rhs + tol else "inconclusive"
            return report

        workload.run_job = understated
        result = run.run(workload, 1, SECONDS, 0, IMPORT_S)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(
            all("d vectors reach" in f for f in result["details"]["failures"]),
            result["details"]["failures"],
        )

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT_DIR / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "recovery_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
