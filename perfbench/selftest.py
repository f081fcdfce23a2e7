"""Self-tests for the benchmark's generator, oracle and tracer.

    python3 perfbench/selftest.py

Checks that the generator is deterministic per seed, that the oracle
accepts the program's output and rejects a perturbed copy of it, and that
traced and untraced calls print byte-identical stdout.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(os.path.dirname(HERE), ".perfbench_work")
sys.path[:0] = [HERE, SRC]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rabispec import cli, rabi, spectro  # noqa: E402

with open(os.path.join(SRC, "rabispec", "data", "circuit_sets.csv"), encoding="utf-8") as _f:
    CIRCUIT_SETS = _f.read()


def first_index(workload, command):
    return next(i for i, slot in enumerate(workloads.CYCLES[workload]) if slot[0] == command)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class BenchmarkTestCase(unittest.TestCase):
    def setUp(self):
        os.makedirs(WORK, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def generator(self, workload, seed, subdir="a"):
        path = os.path.join(self.workdir, subdir)
        os.makedirs(path, exist_ok=True)
        return workloads.Generator(workload, seed, path, CIRCUIT_SETS)


class GeneratorTest(BenchmarkTestCase):
    def snapshot(self, gen, index):
        task = gen.task(index)
        files = {}
        argv = []
        for arg in task["argv"]:
            if arg.startswith(gen.workdir):
                with open(arg, "rb") as handle:
                    files[os.path.basename(arg)] = handle.read()
                arg = os.path.basename(arg)
            argv.append(arg)
        expected = task.get("expected")
        if isinstance(expected, np.ndarray):
            expected = expected.tolist()
        return argv, files, expected, task.get("truth")

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            indices = sorted({0, 1, 2, len(workloads.CYCLES[workload]) - 1})
            first = self.generator(workload, 7, "a")
            second = self.generator(workload, 7, "b")
            for index in reversed(indices):  # order of generation must not matter
                second.task(index)
            for index in indices:
                with self.subTest(workload=workload, index=index):
                    self.assertEqual(self.snapshot(first, index), self.snapshot(second, index))

    def test_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.snapshot(self.generator(workload, 7, "a"), 1)
                b = self.snapshot(self.generator(workload, 8, "b"), 1)
                self.assertNotEqual(a, b)


def perturb_csv(stdout, column, delta):
    """Add ``delta`` to one numeric cell of the middle data row."""
    rows = list(csv.reader(io.StringIO(stdout)))
    row = rows[1 + (len(rows) - 1) // 2]
    row[column] = repr(float(row[column]) + delta)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


class OracleTest(BenchmarkTestCase):
    # (workload, command, perturbation of the correct stdout)
    CASES = (
        ("levels", "twotone", lambda s, t: perturb_csv(s, 1, 1e-5)),
        ("levels", "shift-table", lambda s, t: perturb_csv(s, 10, 1e-3)),
        ("levels", "overlap", lambda s, t: perturb_csv(s, 1, 1e-5)),
        ("levels", "shift-curves", lambda s, t: perturb_csv(s, 3, 1e-5)),
        ("bias-sweep", "spectrum", lambda s, t: perturb_csv(s, 4, 1e-3)),
        ("fit", "fit-s21", None),
        ("fit", "fit-params", None),
    )

    @staticmethod
    def perturb_json(stdout, task):
        body = json.loads(stdout)
        if task["command"] == "fit-params":
            body["g_ghz"] *= 1.0 + 1e-4
        else:
            fit = body["fits"][0]
            fit["omega0_ghz"] += fit["omega0_ghz"] / fit["q_total"]
        return json.dumps(body)

    def test_accepts_program_output_and_rejects_perturbed(self):
        for workload, command, perturb in self.CASES:
            with self.subTest(command=command):
                task = self.generator(workload, 3).task(first_index(workload, command))
                self.assertEqual(task["command"], command)
                code, stdout = run_cli(task["argv"])
                self.assertEqual(code, 0)
                self.assertEqual(oracle.check(task, stdout), [])
                bad = perturb(stdout, task) if perturb else self.perturb_json(stdout, task)
                self.assertNotEqual(oracle.check(task, bad), [])
                if oracle.fit_count(task):
                    self.assertEqual(oracle.fits_ok(task, stdout), oracle.fit_count(task))
                    self.assertLess(oracle.fits_ok(task, bad), oracle.fit_count(task))

    def test_parity_labels_match_dense_spectrum(self):
        delta, omega, g, n_max = 1.68, 6.345, 7.27, 40
        levels, _ = oracle.parity_chain_levels(delta, omega, g, n_max)
        dense = np.linalg.eigvalsh(oracle.biased_hamiltonian(delta, omega, g, 0.0, n_max))
        ordered = sorted(levels.values())
        np.testing.assert_allclose(ordered[:6], dense[:6], atol=1e-9)
        self.assertLess(levels[("e", 1)], levels[("g", 1)])  # set H is inverted at one photon


class TracerTest(BenchmarkTestCase):
    def test_traced_stdout_is_byte_identical(self):
        trace = tracer.Tracer()
        original_solve = rabi.solve
        for workload, command, _ in OracleTest.CASES:
            if command == "fit-params":
                continue
            with self.subTest(command=command):
                task = self.generator(workload, 5).task(first_index(workload, command))
                untraced = run_cli(task["argv"])
                trace.task = task["index"]
                trace.install()
                try:
                    traced = run_cli(task["argv"])
                finally:
                    trace.uninstall()
                self.assertEqual(traced, untraced)
        self.assertIs(rabi.solve, original_solve)
        names = {span[0] for span in trace.spans}
        for name in ("cli.main", "rabi.solve", "spectro.transition_map", "spectro.fit_lineshape",
                     "levmar.least_squares_lm.model", "twotone.twotone_linemap"):
            self.assertIn(name, names)

    def test_imported_names_are_wrapped_where_looked_up(self):
        trace = tracer.Tracer()
        trace.install()
        try:
            self.assertIsNot(spectro.least_squares_lm.__wrapped__, None)
            self.assertIs(spectro.least_squares_lm, sys.modules["rabispec.levmar"].least_squares_lm)
        finally:
            trace.uninstall()
        self.assertFalse(hasattr(spectro.least_squares_lm, "__wrapped__"))

    def test_self_time_excludes_children(self):
        spans = [
            ("cli.main", 0.0, 10.0, -1, 1, None),
            ("rabi.solve", 1.0, 7.0, 0, 1, ("dense", 40)),
            ("rabi.jacobi_eigh", 2.0, 6.0, 1, 1, None),
        ]
        tasks = {1: {"command": "spectrum", "traced_s": 10.0, "untraced_s": 8.0,
                     "output_bytes": 5, "fits": 0, "fits_ok": 0}}
        m = tracer.layer_metrics(spans, tasks)
        self.assertAlmostEqual(m["rabi.solve.dense_ms_p50_nmax40"], 6e3)
        self.assertAlmostEqual(m["rabi.solve.share"], 0.6)
        self.assertAlmostEqual(m["cli.main.self_ms_p50"], 4e3)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.25)
        self.assertEqual(m["rabi.solve.per_task.spectrum"], 1.0)


def tearDownModule():
    with contextlib.suppress(OSError):
        os.rmdir(WORK)


if __name__ == "__main__":
    unittest.main()
