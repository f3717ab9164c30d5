"""Self-tests of the benchmark: its checks catch wrong output, and its tracer
fails when a binding site is left unwrapped.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
MODULES = tracing.import_package(ROOT)


def cli_stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = MODULES["cli"].main(argv)
    return code, buf.getvalue()


def small(name: str, degree: int, **changes) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], base_degree=degree, band=0, **changes)


class Checks(unittest.TestCase):
    def test_sieve_matches_divisor_sums(self):
        sigma = workloads.sigma_table(60)
        self.assertEqual(sigma[1:], [sum(k for k in range(1, n + 1) if n % k == 0) for n in range(1, 61)])

    def test_series_check_catches_perturbed_coefficient(self):
        code, out = cli_stdout(workloads.WORKLOADS["series"].argv(300))
        self.assertIsNone(workloads.check_series(out, code, 300))
        obj = json.loads(out)
        obj["coeffs"][144] = str(Fraction(obj["coeffs"][144]) + 1)
        reason = workloads.check_series(json.dumps(obj), code, 300)
        self.assertIn("q^144", reason)

    def test_verify_check_catches_fail_line(self):
        code, out = cli_stdout(workloads.WORKLOADS["verify"].argv(12))
        self.assertIsNone(workloads.check_verify(out, code, 12))
        failed = out.replace("PASS lumpsum", "FAIL lumpsum")
        self.assertIsNotNone(workloads.check_verify(failed, code, 12))
        self.assertIsNotNone(workloads.check_verify(out, 1, 12))

    def test_potential_check_needs_exact_match(self):
        self.assertIsNone(workloads.check_potential("MATCH\n", 0, 10))
        self.assertIsNotNone(workloads.check_potential("MISMATCH t1^4 q^4: 1 != 2\n", 1, 10))

    def test_closed_form_potential_matches_assembled_and_catches_perturbation(self):
        p = MODULES["potential"].assemble_potential(40)
        terms = {mono.exponents: list(series.coeffs) for mono, series in p.terms.items()}
        self.assertIsNone(workloads.check_potential_terms(p.log_term, terms, 40))
        terms[(0, 2, 2, 0, 0)][12] += 1
        self.assertIn("q^12", workloads.check_potential_terms(p.log_term, terms, 40))


class FailureCounting(unittest.TestCase):
    def run_main(self, workload) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(run.WORKLOADS, {workload.name: workload}), redirect_stdout(out), redirect_stderr(err):
            code = run.main(["--workload", workload.name, "--seed", "1", "--seconds", "0", "--trace", "0"])
        return code, out.getvalue()

    def test_wrong_program_output_is_counted_as_failure(self):
        def perturbed(stdout, returncode, degree):
            obj = json.loads(stdout)
            obj["coeffs"][6] = "9"
            return workloads.check_series(json.dumps(obj), returncode, degree)

        code, out = self.run_main(small("series", 50, check=perturbed))
        self.assertEqual(code, 1)
        result = json.loads(out.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_fail_line_is_counted_as_failure(self):
        def with_fail(stdout, returncode, degree):
            return workloads.check_verify(stdout.replace("PASS rh", "FAIL rh"), returncode, degree)

        code, _ = self.run_main(small("verify", 12, check=with_fail))
        self.assertEqual(code, 1)

    def test_correct_run_reports_every_end_to_end_metric(self):
        code, out = self.run_main(small("series", 50))
        self.assertEqual(code, 0)
        result = json.loads(out.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
        self.assertEqual(result["failed"], 0)


class Accounting(unittest.TestCase):
    def test_child_peak_rss_excludes_this_process(self):
        ballast = bytearray(64 << 20)
        ballast[::4096] = b"x" * len(ballast[::4096])
        job = run.run_job(workloads.SETUP_ARGV, workloads.check_setup, 1, run.time.perf_counter() + 60)
        self.assertIsNone(job.failure)
        self.assertLess(job.peak_rss_mb, 60)
        self.assertGreater(job.cpu_s, 0)


class Tracing(unittest.TestCase):
    SIZES = {"potential": 30, "series": 300, "verify": 12}

    def traced(self, name: str, unwrap: tuple[str, str, str] | None = None) -> dict:
        tracer = tracing.Tracer()
        try:
            tracer.install(MODULES)
            if unwrap is not None:
                module, attr, span = unwrap
                setattr(MODULES[module], attr, tracer.originals[span])
            return tracing.run_traced(tracer, MODULES, small(name, self.SIZES[name]), self.SIZES[name])
        finally:
            tracer.restore()

    def test_every_workload_reports_every_per_layer_metric(self):
        for name in self.SIZES:
            values = self.traced(name)
            self.assertEqual(set(values) | {"trace.overhead_s"}, set(tracing.PER_LAYER))
        self.assertGreater(values["oracle.rh.cases"], 0)

    def test_restore_puts_every_original_back(self):
        before = {k: v for k, v in vars(MODULES["orbi"]).items()}
        builders = dict(MODULES["cli"].SERIES_BUILDERS)
        self.traced("series")
        self.assertEqual(before, dict(vars(MODULES["orbi"])))
        self.assertEqual(builders, MODULES["cli"].SERIES_BUILDERS)

    def test_missing_wrapper_fails_the_traced_run(self):
        with self.assertRaisesRegex(tracing.TraceError, "lattice.sigma1"):
            self.traced("series", unwrap=("qseries", "sigma1", "lattice.sigma1"))
        with self.assertRaisesRegex(tracing.TraceError, "lattice.enumerate_sublattices"):
            self.traced("potential", unwrap=("orbi", "enumerate_sublattices", "lattice.enumerate_sublattices"))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}, tracing.PER_LAYER)

    def test_run_without_program_exits_nonzero_and_prints_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
