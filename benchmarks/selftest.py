"""Self-tests of the benchmark.

    python3 benchmarks/selftest.py

- A tiny pass of every workload completes, and every oracle accepts it.
- The operations a run attempts do not depend on the seed.
- Each oracle rejects a corrupted result: a perturbed W entry, a wrong branch
  pattern, a nan index, a wrong finite index, a wrong verdict.
- Traced and untraced runs give identical verdicts.
- Without the package sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(ROOT / "src"))

from ncsurface import representations, spectra  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TMP = ROOT / ".bench_tmp" / "selftest"


def tiny_pass(name: str, seed: int = 0, tracer=None) -> run.Record:
    """The once-per-run items and the first pass, which has every item."""
    workload = workloads.WORKLOADS[name](seed, TMP, tiny=True)
    record = run.Record()
    run.run_items(workload.once, record, tracer)
    run.run_pass(workload, record, tracer)
    return record


class TinyPasses(unittest.TestCase):
    def test_every_workload_completes_and_passes_its_oracles(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                record = tiny_pass(name)
                self.assertGreater(len(record.latencies), 5)
                self.assertEqual(record.failures, [])

    def test_operations_depend_on_the_pass_index_only(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                runs = []
                for seed in (0, 1):
                    workload = workloads.WORKLOADS[name](seed, TMP, tiny=True)
                    record = run.Record()
                    for _ in range(4):
                        run.run_pass(workload, record)
                    self.assertEqual(record.failures, [])
                    kinds = [k for k, _ in record.verdicts]
                    ops = record.pass_ops
                    passes = [kinds[sum(ops[:i]):sum(ops[:i + 1])] for i in range(4)]
                    # a pass that leaves out the heavy items runs a prefix of a full one
                    self.assertEqual(passes[0], passes[3])
                    self.assertEqual(passes[1], passes[0][:len(passes[1])])
                    runs.append(kinds)
                self.assertEqual(runs[0], runs[1])

    def test_traced_and_untraced_verdicts_match(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain = tiny_pass(name, seed=3)
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced = tiny_pass(name, seed=3, tracer=tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain.verdicts, traced.verdicts)
                self.assertTrue(tracer.spans)
                metrics = tracer.layer_metrics(1, traced.oracle_failed)
                self.assertTrue(set(metrics) <= set(spans.metric_names()))

    def test_tracer_uninstall_restores_the_package(self):
        original = representations.verify_relations
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(representations.verify_relations, original)
        self.assertIsNot(spectra.construct_loop_rep, original)
        tracer.uninstall()
        self.assertIs(representations.verify_relations, original)


class OraclesRejectCorruptedResults(unittest.TestCase):
    n, mu, beta = 30, 1.3, 0.4

    def loop(self):
        spec = representations.LoopSpec(n=self.n, k=1, beta=self.beta)
        weights = workloads.loop_weights(self.n, 1, self.beta, self.mu, 1.0)
        rep = representations.construct_loop_rep(spec, self.mu, 1.0)
        return rep, weights, workloads.loop_matrix(weights, [0.0] * self.n)

    def test_perturbed_w_entry(self):
        rep, _, expected = self.loop()
        self.assertIsNone(oracles.matrix_equals(rep, expected))
        W = rep.W.copy()
        W[3, 7] += 1e-6
        bad = representations.Representation(W, rep.params, rep.regime)
        self.assertIsNotNone(oracles.matrix_equals(bad, expected))
        report = representations.verify_relations(bad)
        self.assertIsNotNone(oracles.verification(report, 1.0, self.mu))

    def test_wrong_branch_pattern(self):
        rep, _, _ = self.loop()
        report = spectra.position_spectrum(rep)
        pattern = oracles.expected_pattern(self.mu, 1.0)
        self.assertIsNone(oracles.spectrum(report, self.n, pattern))
        wrong = dataclasses.replace(report.intervals[1], count=1)
        bad = dataclasses.replace(report, intervals=(report.intervals[0], wrong,
                                                     report.intervals[2]))
        self.assertIsNotNone(oracles.spectrum(bad, self.n, pattern))
        swapped = dataclasses.replace(report, eigenvalues=report.eigenvalues[::-1])
        self.assertIsNotNone(oracles.spectrum(swapped, self.n, pattern))

    def test_wrong_sweep_pattern(self):
        rows = spectra.sweep_mu([0.9, 1.3], 1.0, self.n)
        expected = {mu: oracles.expected_pattern(mu, 1.0) for mu in (0.9, 1.3)}
        self.assertIsNone(oracles.sweep_patterns(rows, expected, self.n))
        bad = [dataclasses.replace(r, branches=1) if r.branches == 2 else r for r in rows]
        self.assertIsNotNone(oracles.sweep_patterns(bad, expected, self.n))

    def test_nan_and_wrong_index(self):
        rep, weights, _ = self.loop()
        log_modulus, phase = oracles.log_index(weights, [0.0] * self.n)
        index = representations.rep_index(rep)
        self.assertIsNone(oracles.loop_index(index, log_modulus, phase))
        nan = representations.RepIndex(complex(math.nan, math.nan))
        failure = oracles.loop_index(nan, log_modulus, phase)
        self.assertIsNotNone(failure)
        self.assertIsNone(failure.known)
        turned = representations.RepIndex(index.z * 1j)
        self.assertIsNotNone(oracles.loop_index(turned, log_modulus, phase))
        # the same nan, or a raise, where |z|^2 leaves the double range is the
        # known overflow; a wrong finite z there is not
        self.assertEqual(oracles.loop_index(nan, 400.0, phase).known, oracles.OVERFLOW)
        raised = representations.NotSingleLoopError("W^n != z I")
        self.assertEqual(oracles.loop_index(raised, 400.0, phase).known, oracles.OVERFLOW)
        finite = oracles.loop_index(representations.RepIndex(complex(1e100)), 400.0, 0.0)
        self.assertIsNotNone(finite)
        self.assertIsNone(finite.known)

    def test_log_domain_index_beyond_the_double_range(self):
        @dataclasses.dataclass
        class LogIndex:          # an index that keeps log|z| beside z
            z: complex
            log_modulus: float
            phase: float

        inf = complex(math.inf, math.inf)
        self.assertIsNone(oracles.loop_index(LogIndex(inf, 820.0, 0.5), 820.0, 0.5))
        wrong = oracles.loop_index(LogIndex(inf, 819.0, 0.5), 820.0, 0.5)
        self.assertIsNotNone(wrong)
        self.assertIsNone(wrong.known)
        # where |z| is a double, z is checked too
        self.assertIsNotNone(oracles.loop_index(LogIndex(inf, 1.0, 0.5), 1.0, 0.5))

    def test_wrong_verdicts(self):
        self.assertIsNotNone(oracles.decreasing_errors([(10, 0.1), (20, 0.2)], (10, 20)))
        rep, _, _ = self.loop()
        self.assertIsNone(oracles.equivalence(True, True, rep, rep))
        self.assertIsNone(oracles.equivalence(False, True, rep, rep).known)
        # |z| near 3e3 at N=256: rounding of z alone can exceed the absolute 1e-10
        big = representations.construct_loop_rep(
            representations.LoopSpec(n=256, k=1, beta=self.beta), self.mu, 1.0)
        self.assertEqual(oracles.equivalence(False, True, big, big).known, oracles.ABS_TOL)
        # indices near 1e-42 differ in phase, yet agree to the absolute 1e-10
        a, b = (representations.construct_loop_rep(
            representations.LoopSpec(n=self.n, k=1, phases=[phase] + [0.0] * (self.n - 1)),
            2e-3, 1e-6) for phase in (0.0, 1.0))
        self.assertEqual(oracles.equivalence(True, False, a, b).known, oracles.ABS_TOL)
        self.assertIsNotNone(oracles.raised(ValueError("x")))


class Measurement(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        value, pct = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct), (90.0, 90.0))

    def test_tail_is_p99_of_many_samples(self):
        value, pct = run.tail([float(i) for i in range(1, 3001)])
        self.assertEqual((value, pct), (2970.0, 99.0))

    def test_parse_importtime(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:       400 |        700 |   scipy.linalg",
            "import time:        50 |         50 |     sympy.core",
            "import time:        10 |         60 |   sympy",
            "import time:        20 |       1000 | ncsurface",
        ])
        out = run.parse_importtime(text)
        self.assertAlmostEqual(out["total"], 1000e-6)
        self.assertAlmostEqual(out["scipy"], 1000e-6)
        self.assertAlmostEqual(out["sympy"], 60e-6)

    def test_refuses_without_package_sources(self):
        bare = TMP / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "paper_cli", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        if TMP.parent.is_dir() and not any(TMP.parent.iterdir()):
            TMP.parent.rmdir()
