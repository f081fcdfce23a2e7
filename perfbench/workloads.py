"""Seeded task generators for the three benchmark workloads.

A workload is an endless stream of CLI tasks.  Task ``i`` of a run is drawn
from ``numpy.random.default_rng([seed, i])``, so the stream is the same for
the same seed whatever the run length.  The command, n_max and grid size
of task ``i`` follow a fixed cycle per workload, so every run sees the same
mix; the seed draws the circuits, biases and data within each slot.

Each task carries its argv, the input files it needs (written under the
run's work directory) and the oracle's expected answer, computed here,
outside the timed region.
"""

from __future__ import annotations

import os

import numpy as np

import oracle

# Circuits whose doublets or allowed label elements come closer than this
# (GHz, or dimensionless for the element) are redrawn: the label recursion
# cannot separate them with margin.
LABEL_MARGIN = 0.1
# Smallest level gap (GHz) among the five lowest states on a bias grid;
# below it quadrature elements are ill-conditioned in any solver.
SPECTRUM_GAP = 0.02
# Condition number above which a transition data set cannot pin
# (delta, omega, g); such draws are redrawn.
FIT_CONDITION = 1e4
S21_NOISE = 0.01

# (command, n_max): twotone dominates; shift-table is the heavy minority.
LEVELS_CYCLE = (
    ("twotone", 20),
    ("twotone", 25),
    ("shift-table", 30),
    ("twotone", 30),
    ("twotone", 35),
    ("overlap", None),
    ("twotone", 40),
    ("twotone", 20),
    ("shift-table", 40),
    ("twotone", 30),
    ("shift-curves", None),
    ("twotone", 40),
)
# ("spectrum", grid points, n_max, grid contains epsilon = 0)
SWEEP_CYCLE = (
    ("spectrum", 11, 20, True),
    ("spectrum", 21, 25, False),
    ("spectrum", 11, 40, True),
    ("spectrum", 41, 20, False),
    ("spectrum", 11, 30, True),
    ("spectrum", 21, 30, False),
    ("spectrum", 11, 35, False),
    ("spectrum", 21, 20, True),
)
# ("fit-params", n_max) or ("fit-s21", slices).  A circuit fit costs about
# fifty lineshape fits with the Jacobi solver, so one circuit fit per cycle
# keeps its share of the time bounded and its draw-to-draw spread small;
# the median task is a lineshape fit.
FIT_CYCLE = (("fit-params", 12),) + (("fit-s21", 2), ("fit-s21", 3), ("fit-s21", 4)) * 30
FIT_PAIRS = ((0, 1), (0, 2), (1, 2), (1, 3))
# Every residual evaluation solves once per bias, so the bias count sets a
# circuit fit's cost; holding it at the minimum keeps that cost, and the
# run-to-run spread it causes, small.
FIT_BIASES = 3

CYCLES = {"levels": LEVELS_CYCLE, "bias-sweep": SWEEP_CYCLE, "fit": FIT_CYCLE}
WORKLOADS = tuple(CYCLES)


def _r(x, digits=4):
    return float(round(float(x), digits))


class Generator:
    """Makes task ``i`` of one workload for one seed."""

    def __init__(self, workload, seed, workdir, circuit_sets_csv):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.sets = oracle.reference_sets(circuit_sets_csv)
        self._shift_tables = {}

    def task(self, index):
        rng = np.random.default_rng([self.seed, index])
        if self.workload == "levels":
            command, n_max = LEVELS_CYCLE[index % len(LEVELS_CYCLE)]
            make = {
                "twotone": self._twotone,
                "shift-table": self._shift_table,
                "overlap": self._overlap,
                "shift-curves": self._shift_curves,
            }[command]
            task = make(rng, n_max)
        elif self.workload == "bias-sweep":
            task = self._spectrum(rng, *SWEEP_CYCLE[index % len(SWEEP_CYCLE)][1:])
        else:
            command, size = FIT_CYCLE[index % len(FIT_CYCLE)]
            make = self._fit_s21 if command == "fit-s21" else self._fit_params
            task = make(rng, size, index)
        task["index"] = index
        return task

    # -- levels ------------------------------------------------------------

    def _labelled_circuit(self, rng, n_max):
        while True:
            omega = _r(rng.uniform(5.0, 6.5))
            delta = _r(rng.uniform(0.15, 0.85) * omega)
            g = _r(rng.uniform(0.05, 1.2) * omega)
            if oracle.label_margin(delta, omega, g, n_max) >= LABEL_MARGIN:
                return {"delta": delta, "omega": omega, "g": g}

    def _twotone(self, rng, n_max):
        params = self._labelled_circuit(rng, n_max)
        panel = str(rng.choice(["a", "b", "c"]))
        rabi_bc = _r(rng.uniform(0.005, 0.05))
        argv = ["twotone", "--delta", repr(params["delta"]), "--omega", repr(params["omega"]),
                "--g", repr(params["g"]), "--panel", panel, "--rabi-bc", repr(rabi_bc),
                "--nmax", str(n_max)]
        return {
            "command": "twotone",
            "argv": argv,
            "nmax": n_max,
            "header": ["omega_d_ghz", "branch_lo_ghz", "branch_hi_ghz"],
            "expected": oracle.expect_twotone(params, n_max, panel, rabi_bc),
        }

    def _shift_table(self, rng, n_max):
        if n_max not in self._shift_tables:
            self._shift_tables[n_max] = oracle.expect_shift_table(self.sets, n_max)
        header = ["set", "delta", "omega", "g"]
        for n in range(3):
            header += [f"d{n}_meas", f"d{n}_ref", f"d{n}_calc", f"d{n}_diff_mhz"]
        return {
            "command": "shift-table",
            "argv": ["shift-table", "--nmax", str(n_max)],
            "nmax": n_max,
            "header": header + ["lamb_shift_ratio", "nmax"],
            "expected": self._shift_tables[n_max],
            "sets": self.sets,
        }

    def _overlap(self, rng, _):
        n = int(rng.integers(0, 4))
        stop = _r(rng.uniform(1.0, 1.5), 3)
        points = int(rng.integers(21, 42))
        beta = np.linspace(0.0, stop, points)
        closed = oracle.closed_form_overlap(n, beta)
        return {
            "command": "overlap",
            "argv": ["overlap", "--n", str(n), "--grid-stop", repr(stop), "--grid-points", str(points)],
            "header": ["beta", "overlap_quadrature", "overlap_closed_form", "ratio_to_zero_coupling"],
            "expected": np.column_stack([beta, closed, closed / closed[0]]),
        }

    def _shift_curves(self, rng, _):
        max_n = int(rng.integers(2, 4))
        stop = _r(rng.uniform(1.2, 1.6), 3)
        points = int(rng.integers(41, 82))
        beta = np.linspace(0.0, stop, points)
        curves = [beta] + [oracle.closed_form_overlap(n, beta) for n in range(max_n + 1)]
        return {
            "command": "shift-curves",
            "argv": ["shift-curves", "--max-n", str(max_n), "--grid-stop", repr(stop),
                     "--grid-points", str(points)],
            "header": ["kind", "set", "beta"] + [f"d{n}_over_delta" for n in range(max_n + 1)],
            "expected": np.column_stack(curves),
            "sets": self.sets,
            "max_n": max_n,
        }

    # -- bias-sweep --------------------------------------------------------

    def _spectrum(self, rng, points, n_max, with_zero):
        while True:
            params = {
                "delta": _r(rng.uniform(0.5, 8.0)),
                "omega": _r(rng.uniform(4.5, 7.0)),
            }
            params["g"] = _r(rng.uniform(0.05, 0.8) * params["omega"])
            if with_zero:
                start = -_r(rng.uniform(1.0, 4.0), 3)
                stop = -start
            else:
                start = -_r(rng.uniform(0.3, 4.0), 3)
                stop = _r(rng.uniform(1.0, 4.0), 3)
            grid = np.linspace(start, stop, points)
            if (0.0 in grid) != with_zero:
                continue
            if oracle.spectrum_gap(params, grid, n_max) >= SPECTRUM_GAP:
                break
        argv = ["spectrum", "--delta", repr(params["delta"]), "--omega", repr(params["omega"]),
                "--g", repr(params["g"]), "--nmax", str(n_max), "--grid-start", repr(start),
                "--grid-stop", repr(stop), "--grid-points", str(points)]
        header = ["epsilon_ghz"]
        for k, l in oracle.SPECTRUM_PAIRS:
            header += [f"f{k}{l}_ghz", f"m{k}{l}"]
        return {
            "command": "spectrum",
            "argv": argv,
            "nmax": n_max,
            "header": header,
            "expected": oracle.expect_spectrum(params, grid, n_max),
        }

    # -- fit ---------------------------------------------------------------

    def _fit_params(self, rng, n_max, index):
        while True:
            omega = _r(rng.uniform(5.0, 7.0))
            truth = {
                "delta": _r(rng.uniform(0.8, 4.0)),
                "omega": omega,
                "g": _r(rng.uniform(0.05, 0.3) * omega),
            }
            biases = sorted(_r(b, 3) for b in rng.uniform(-2.0, 2.0, FIT_BIASES))
            chosen = rng.choice(len(FIT_PAIRS), size=int(rng.integers(2, 4)), replace=False)
            pairs = [FIT_PAIRS[i] for i in sorted(chosen)]
            if len(set(biases)) == FIT_BIASES and self._conditioning(truth, biases, pairs, n_max) < FIT_CONDITION:
                break
        rows = oracle.transition_frequencies(truth, biases, pairs, n_max)
        path = os.path.join(self.workdir, f"transitions_{index}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("epsilon_ghz,level_from,level_to,freq_ghz\n")
            handle.writelines(f"{e!r},{k},{l},{f:.12f}\n" for e, k, l, f in rows)
        offsets = rng.uniform(0.02, 0.05, 3) * rng.choice([-1.0, 1.0], 3)
        init = [_r(truth[name] * (1.0 + o)) for name, o in zip(("delta", "omega", "g"), offsets)]
        argv = ["fit-params", "--input", path, "--init-delta", repr(init[0]),
                "--init-omega", repr(init[1]), "--init-g", repr(init[2]), "--nmax", str(n_max)]
        return {
            "command": "fit-params",
            "argv": argv,
            "nmax": n_max,
            "truth": truth,
            "inputs": {"biases": biases, "pairs": pairs, "init": init},
        }

    @staticmethod
    def _conditioning(truth, biases, pairs, n_max):
        """Condition number of the oracle's Jacobian in relative parameters."""
        names = ("delta", "omega", "g")

        def model(scale):
            p = {name: truth[name] * s for name, s in zip(names, scale)}
            return np.array([f for *_, f in oracle.transition_frequencies(p, biases, pairs, n_max)])

        step = 1e-5
        columns = []
        for j in range(3):
            up, down = np.ones(3), np.ones(3)
            up[j] += step
            down[j] -= step
            columns.append((model(up) - model(down)) / (2 * step))
        return float(np.linalg.cond(np.column_stack(columns)))

    def _fit_s21(self, rng, slices, index):
        truths, lines = [], []
        biases = set()
        while len(biases) < slices:
            biases.add(_r(rng.uniform(-1.0, 1.0), 3))
        for eps in sorted(biases):
            shape = {
                "epsilon": eps,
                "omega0": _r(rng.uniform(5.5, 7.0), 6),
                "q_total": _r(rng.uniform(2000.0, 10000.0), 1),
                "phi": _r(rng.uniform(-0.3, 0.3)),
            }
            shape["q_external"] = _r(shape["q_total"] * rng.uniform(1.2, 3.0), 1)
            linewidth = shape["omega0"] / shape["q_total"]
            half = 5.0 * linewidth * rng.uniform(1.0, 1.5)
            points = int(rng.integers(200, 401))
            w = np.linspace(shape["omega0"] - half, shape["omega0"] + half, points)
            center = float(np.mean(w))
            background = [
                rng.uniform(0.9, 1.1),
                rng.uniform(-0.05, 0.05) / half,
                rng.uniform(-0.03, 0.03) / half**2,
                rng.uniform(-0.02, 0.02) / half**3,
            ]
            y = oracle.hanger_magnitude(shape, background, center, w)
            y = y + rng.normal(0.0, S21_NOISE, points)
            lines += [f"{eps!r},{wi:.10f},{yi:.10f}\n" for wi, yi in zip(w, y)]
            truths.append(shape)
        path = os.path.join(self.workdir, f"s21_{index}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("epsilon_ghz,omega_p_ghz,s21_abs\n")
            handle.writelines(lines)
        return {
            "command": "fit-s21",
            "argv": ["fit-s21", "--input", path],
            "truth": truths,
            "noise": S21_NOISE,
        }
