"""Independent reference answers for every task kind the benchmark runs.

Nothing here imports rabispec.  Hamiltonians and parity chains are built
again from the physics and solved with LAPACK (numpy/scipy); levels are
labelled by the parity sector an eigenvector lives in, not by the
program's matrix-element recursion; closed forms use numpy's Laguerre
series.  Fit outputs are compared with the truth the generator drew.

Each ``check_*`` function takes the task and the command's stdout and
returns a list of problems: empty means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from numpy.polynomial import laguerre
from scipy.linalg import eigh_tridiagonal

# Tolerances, in GHz unless stated.  CLI tables print 10 significant
# digits (4 decimals for shift-table); the solvers agree far below these.
FREQ_TOL = 1e-7
ELEMENT_TOL = 1e-5
SHIFT_TABLE_TOL = 6e-5
CLOSED_FORM_TOL = 1e-9
QUADRATURE_TOL = 1e-7
FIT_PARAMS_TOL = 1e-6
SPECTRUM_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
PANEL_TRIPLES = {
    "a": (("g", 0), ("g", 1), ("g", 2)),
    "b": (("e", 0), ("e", 1), ("e", 2)),
    "c": (("g", 0), ("g", 1), ("e", 1)),
}


# ---------------------------------------------------------------------------
# physics, solved with LAPACK


def parity_chain_levels(delta, omega, g, n_max, max_photon=2):
    """Labelled energies {(i, n): E} and the chain eigenvectors at epsilon = 0.

    In the qubit-energy basis the even sector holds |g0>, |e1>, |g2>, ...
    and the odd sector |e0>, |g1>, |e2>, ...  Each sector is an irreducible
    tridiagonal chain whose diagonal rises with the chain index when
    0 < delta < omega, so its eigenvalues never cross as g grows from zero:
    the n-th eigenstate of a sector carries that sector's label at index n.
    """
    k = np.arange(n_max + 1)
    off = g * np.sqrt(k[1:].astype(float))
    levels, vectors = {}, {}
    for sector, first in (("even", "g"), ("odd", "e")):
        sign = np.where(k % 2 == 0, -1.0, 1.0) if first == "g" else np.where(k % 2 == 0, 1.0, -1.0)
        w, v = eigh_tridiagonal(omega * k + 0.5 * delta * sign, off)
        for n in range(max_photon + 2):
            kind = first if n % 2 == 0 else ("e" if first == "g" else "g")
            levels[(kind, n)] = float(w[n])
            vectors[(kind, n)] = (sector, v[:, n])
    return levels, vectors


def label_margin(delta, omega, g, n_max, max_photon=2):
    """Smallest gap that keeps the program's labels unambiguous, in GHz.

    The label recursion takes states 2n and 2n+1 as the pair {g n, e n}, and
    picks g n+1 by its quadrature element to g n.  Both hold with margin when
    consecutive doublets are separated and the allowed element is large.
    Returns min(doublet separation, allowed element), so one threshold
    screens both.
    """
    levels, vectors = parity_chain_levels(delta, omega, g, n_max, max_photon)
    margin = math.inf
    for n in range(max_photon + 1):
        top = max(levels[("g", n)], levels[("e", n)])
        bottom = min(levels[("g", n + 1)], levels[("e", n + 1)])
        margin = min(margin, bottom - top)
    for n in range(max_photon):
        margin = min(margin, chain_quadrature_element(vectors[("g", n)], vectors[("g", n + 1)]))
    return margin


def chain_quadrature_element(state_a, state_b):
    """|<a|(a + a^dag)|b>| for two parity-chain eigenvectors.

    (a + a^dag) moves the chain index by one and flips parity, so the element
    between states of the same sector is zero.
    """
    (sector_a, u), (sector_b, v) = state_a, state_b
    if sector_a == sector_b:
        return 0.0
    ladder = np.sqrt(np.arange(1.0, u.size))
    return float(abs(u[:-1] @ (ladder * v[1:]) + u[1:] @ (ladder * v[:-1])))


def biased_hamiltonian(delta, omega, g, epsilon, n_max):
    """Dense H = -(delta/2) sx - (eps/2) sz + omega a^dag a + g sz (a + a^dag).

    Basis index 2*m + s (qubit-minor; s = 0 is sz = +1), the transpose of
    the program's qubit-major layout.
    """
    size = n_max + 1
    dim = 2 * size
    h = np.zeros((dim, dim))
    m = np.arange(size)
    up, down = 2 * m, 2 * m + 1
    h[up, up] = omega * m - 0.5 * epsilon
    h[down, down] = omega * m + 0.5 * epsilon
    h[up, down] = h[down, up] = -0.5 * delta
    root = g * np.sqrt(m[1:].astype(float))
    h[up[1:], up[:-1]] = h[up[:-1], up[1:]] = root
    h[down[1:], down[:-1]] = h[down[:-1], down[1:]] = -root
    return h


def quadrature_operator(n_max):
    """I (x) (a + a^dag) in the qubit-minor basis."""
    size = n_max + 1
    x = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    return np.kron(x + x.T, np.eye(2))


def dense_spectrum(delta, omega, g, epsilon, n_max):
    """Sorted eigenvalues and eigenvectors of the biased Hamiltonian."""
    return np.linalg.eigh(biased_hamiltonian(delta, omega, g, epsilon, n_max))


def closed_form_overlap(n, beta):
    """exp(-2 beta^2) L_n(4 beta^2), elementwise in beta."""
    beta = np.asarray(beta, dtype=float)
    coefficients = np.zeros(n + 1)
    coefficients[n] = 1.0
    return np.exp(-2.0 * beta * beta) * laguerre.lagval(4.0 * beta * beta, coefficients)


def dressed_branches(e_a, e_b, e_c, rabi_bc, omega_d):
    """Probe branches of the driven three-level system (a lowest, a -> c forbidden).

    The dressed pair is |b, N> with |c, N-1> when b lies below c, and with
    |c, N+1> otherwise; subtracting the spectator |a, N> leaves the 2x2 block
    [[E_b - E_a, R], [R, E_c - E_a -+ omega_d]], whose eigenvalues are the
    branches.
    """
    w_d = np.asarray(omega_d, dtype=float)
    top = e_b - e_a
    bottom = e_c - e_a - w_d if e_b <= e_c else e_c - e_a + w_d
    mean = 0.5 * (top + bottom)
    root = np.sqrt(0.25 * (top - bottom) ** 2 + rabi_bc**2)
    return mean - root, mean + root


# ---------------------------------------------------------------------------
# expected outputs


def reference_sets(csv_text):
    """Parse the bundled circuit-set table: {set_id: row dict of floats/None}."""
    rows = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    out = {}
    for row in csv.DictReader(rows):
        out[row["set"]] = {
            key: (None if value == "" else float(value))
            for key, value in row.items()
            if key != "set"
        }
    return out


def expect_twotone(params, n_max, panel, rabi_bc, points=201):
    """The CLI's default window around the panel's drive resonance, and branches."""
    levels, _ = parity_chain_levels(params["delta"], params["omega"], params["g"], n_max)
    e_a, e_b, e_c = (levels[label] for label in PANEL_TRIPLES[panel])
    resonance = abs(e_c - e_b)
    span = max(25.0 * rabi_bc, 0.05 * resonance, 1e-3)
    grid = np.linspace(resonance - span, resonance + span, points)
    lo, hi = dressed_branches(e_a, e_b, e_c, rabi_bc, grid)
    return np.column_stack([grid, lo, hi])


def expect_shift_table(sets, n_max):
    """{set_id: (d0, d1, d2)} computed at n_max."""
    out = {}
    for set_id, row in sets.items():
        levels, _ = parity_chain_levels(row["delta"], row["omega"], row["g"], n_max)
        out[set_id] = tuple(levels[("e", n)] - levels[("g", n)] for n in range(3))
    return out


def expect_spectrum(params, grid, n_max):
    """Rows [eps, f01, m01, f02, m02, ...] in the CLI's column order."""
    x = quadrature_operator(n_max)
    rows = []
    for eps in grid:
        w, v = dense_spectrum(params["delta"], params["omega"], params["g"], eps, n_max)
        row = [eps]
        for k, l in SPECTRUM_PAIRS:
            row += [w[l] - w[k], abs(v[:, k] @ x @ v[:, l])]
        rows.append(row)
    return np.array(rows)


def spectrum_gap(params, grid, n_max, states=5):
    """Smallest gap among the lowest ``states`` levels over the grid, in GHz.

    Elements between nearly degenerate states are ill-conditioned in any
    solver, so the generator discards circuits with too small a gap.
    """
    smallest = math.inf
    for eps in grid:
        w = np.linalg.eigvalsh(
            biased_hamiltonian(params["delta"], params["omega"], params["g"], eps, n_max)
        )
        smallest = min(smallest, float(np.min(np.diff(w[:states]))))
    return smallest


def transition_frequencies(params, biases, pairs, n_max):
    """Noiseless (eps, k, l, E_l - E_k) rows for a circuit-parameter fit."""
    rows = []
    for eps in biases:
        w = np.linalg.eigvalsh(
            biased_hamiltonian(params["delta"], params["omega"], params["g"], eps, n_max)
        )
        rows += [(eps, k, l, float(w[l] - w[k])) for k, l in pairs]
    return rows


def hanger_magnitude(shape, background, center, omega_p):
    """|background(w) * S21(w)| for the asymmetric notch lineshape."""
    w = np.asarray(omega_p, dtype=float)
    depth = shape["q_total"] / shape["q_external"] * np.exp(1j * shape["phi"])
    s21 = 1.0 - depth / (1.0 + 2j * shape["q_total"] * (w - shape["omega0"]) / shape["omega0"])
    poly = np.polynomial.polynomial.polyval(w - center, background)
    return np.abs(poly * s21)


# ---------------------------------------------------------------------------
# checks


def _csv_table(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows:
        raise ValueError("empty output")
    return rows[0], rows[1:]


def _numeric(rows):
    return np.array([[float(v) if v != "" else math.nan for v in row] for row in rows])


def _compare(name, got, want, tol, problems):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape} != expected {want.shape}")
        return
    err = np.abs(got - want)
    if not np.all(err <= tol):
        worst = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        problems.append(
            f"{name}: off by {err.flat[worst]:.3e} (tolerance {tol:.1e}) at flat index {worst}"
        )


def check_table(task, stdout):
    """Problems with a table command's CSV output (twotone, spectrum, ...)."""
    try:
        header, rows = _csv_table(stdout)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if header != task["header"]:
        return [f"header {header} != expected {task['header']}"]
    kind = task["command"]
    if kind == "shift-table":
        return _check_shift_table(task, rows)
    if kind == "shift-curves":
        return _check_shift_curves(task, rows)
    try:
        got = _numeric(rows)
    except ValueError as exc:
        return [f"non-numeric cell: {exc}"]
    want = np.asarray(task["expected"])
    if kind == "twotone":
        _compare("twotone", got, want, FREQ_TOL, problems)
    elif kind == "spectrum":
        if got.shape != want.shape:
            return [f"spectrum: shape {got.shape} != expected {want.shape}"]
        _compare("spectrum epsilon", got[:, 0], want[:, 0], FREQ_TOL, problems)
        _compare("spectrum frequencies", got[:, 1::2], want[:, 1::2], FREQ_TOL, problems)
        _compare("spectrum elements", got[:, 2::2], want[:, 2::2], ELEMENT_TOL, problems)
    elif kind == "overlap":
        if got.shape != (want.shape[0], 4):
            return [f"overlap: shape {got.shape} != expected ({want.shape[0]}, 4)"]
        _compare("overlap beta", got[:, 0], want[:, 0], CLOSED_FORM_TOL, problems)
        _compare("overlap quadrature", got[:, 1], want[:, 1], QUADRATURE_TOL, problems)
        _compare("overlap closed form", got[:, 2], want[:, 1], CLOSED_FORM_TOL, problems)
        _compare("overlap ratio", got[:, 3], want[:, 2], QUADRATURE_TOL, problems)
    else:
        problems.append(f"no oracle for command {kind}")
    return problems


def _check_shift_table(task, rows):
    problems = []
    want = task["expected"]
    if [row[0] for row in rows] != sorted(want):
        return [f"shift-table sets {[row[0] for row in rows]} != {sorted(want)}"]
    for row in rows:
        set_id, values = row[0], row[1:]
        ref = task["sets"][set_id]
        calc = [float(values[3 + 4 * n + 2]) for n in range(3)]
        _compare(f"shift-table {set_id} d_calc", calc, want[set_id], SHIFT_TABLE_TOL, problems)
        for n in range(3):
            meas, tab, diff = values[3 + 4 * n], values[3 + 4 * n + 1], values[3 + 4 * n + 3]
            if (meas == "") != (ref[f"d{n}_meas"] is None) or (tab == "") != (ref[f"d{n}_calc"] is None):
                problems.append(f"shift-table {set_id} d{n}: missing-value pattern differs")
                continue
            if tab != "":
                expected_diff = 1e3 * (want[set_id][n] - ref[f"d{n}_calc"])
                _compare(f"shift-table {set_id} d{n}_diff_mhz", float(diff), expected_diff, 1e-3, problems)
                _compare(f"shift-table {set_id} d{n}_ref", float(tab), ref[f"d{n}_calc"], 1e-4, problems)
        lamb = 1.0 - want[set_id][0] / ref["delta"]
        _compare(f"shift-table {set_id} lamb_shift_ratio", float(values[-2]), lamb, 1e-4, problems)
    return problems


def _check_shift_curves(task, rows):
    problems = []
    curves = [row for row in rows if row[0] == "curve"]
    points = [row for row in rows if row[0] == "measured"]
    if len(curves) + len(points) != len(rows):
        return ["shift-curves: unexpected row kind"]
    try:
        got = _numeric([row[2:] for row in curves])
    except ValueError as exc:
        return [f"shift-curves: non-numeric cell: {exc}"]
    _compare("shift-curves curves", got, task["expected"], CLOSED_FORM_TOL, problems)
    sets = task["sets"]
    if [row[1] for row in points] != sorted(sets):
        return problems + ["shift-curves: measured sets differ"]
    for row in points:
        ref = sets[row[1]]
        want = [ref["g"] / ref["omega"]] + [
            math.nan if n > 2 or ref[f"d{n}_meas"] is None else ref[f"d{n}_meas"] / ref["delta"]
            for n in range(task["max_n"] + 1)
        ]
        got_row = [math.nan if v == "" else float(v) for v in row[2:]]
        if [math.isnan(v) for v in got_row] != [math.isnan(v) for v in want]:
            problems.append(f"shift-curves {row[1]}: missing-value pattern differs")
            continue
        _compare(
            f"shift-curves {row[1]}",
            np.nan_to_num(got_row),
            np.nan_to_num(want),
            CLOSED_FORM_TOL,
            problems,
        )
    return problems


def check_fit_params(task, stdout):
    """Fitted (delta, omega, g) must reproduce the generating circuit."""
    try:
        body = json.loads(stdout)
    except ValueError as exc:
        return [f"fit-params: not JSON: {exc}"]
    truth = task["truth"]
    problems = []
    for key, name in (("delta_ghz", "delta"), ("omega_ghz", "omega"), ("g_ghz", "g")):
        _compare(f"fit-params {name}", body.get(key, math.nan), truth[name], FIT_PARAMS_TOL, problems)
    if not body.get("rms_residual_ghz", math.inf) < FIT_PARAMS_TOL:
        problems.append(f"fit-params: rms residual {body.get('rms_residual_ghz')} on noiseless data")
    if body.get("residual_above_threshold") is not False:
        problems.append("fit-params: flagged a residual above threshold on noiseless data")
    return problems


def check_fit_s21_slice(truth, fit, noise):
    """Problems with one fitted |S21| slice against the drawn lineshape."""
    problems = []
    linewidth = truth["omega0"] / truth["q_total"]
    if not abs(fit["omega0_ghz"] - truth["omega0"]) <= 0.05 * linewidth:
        problems.append(
            f"omega0 off by {abs(fit['omega0_ghz'] - truth['omega0']) / linewidth:.3f} linewidths"
        )
    for key, name, rel in (("q_total", "q_total", 0.1), ("q_external", "q_external", 0.15)):
        if not abs(fit[key] / truth[name] - 1.0) <= rel:
            problems.append(f"{name} off by {abs(fit[key] / truth[name] - 1.0):.3f} relative")
    if not abs(fit["phi_rad"] - truth["phi"]) <= 0.15:
        problems.append(f"phi off by {abs(fit['phi_rad'] - truth['phi']):.3f} rad")
    if not 0.8 * noise <= fit["rms_residual"] <= 1.2 * noise:
        problems.append(f"rms residual {fit['rms_residual']:.4g} vs noise {noise:.4g}")
    return problems


def check_fit_s21(task, stdout):
    """Every slice's fitted lineshape must match the drawn one within the noise."""
    try:
        fits = json.loads(stdout)["fits"]
    except (ValueError, KeyError) as exc:
        return [f"fit-s21: bad JSON: {exc}"]
    truths = task["truth"]
    if [f["epsilon_ghz"] for f in fits] != [t["epsilon"] for t in truths]:
        return ["fit-s21: slice biases differ"]
    problems = []
    for truth, fit in zip(truths, fits):
        problems += [
            f"fit-s21 slice eps={truth['epsilon']}: {p}"
            for p in check_fit_s21_slice(truth, fit, task["noise"])
        ]
    return problems


def fits_ok(task, stdout):
    """Number of a fit task's fits that match the truth."""
    if task["command"] == "fit-params":
        return int(not check_fit_params(task, stdout))
    try:
        fits = json.loads(stdout)["fits"]
    except (ValueError, KeyError):
        return 0
    return sum(
        not check_fit_s21_slice(truth, fit, task["noise"])
        for truth, fit in zip(task["truth"], fits)
        if fit.get("epsilon_ghz") == truth["epsilon"]
    )


def check(task, stdout):
    """Problems with one task's stdout; empty when the output is correct."""
    if task["command"] == "fit-params":
        return check_fit_params(task, stdout)
    if task["command"] == "fit-s21":
        return check_fit_s21(task, stdout)
    return check_table(task, stdout)


def fit_count(task):
    """Number of separate fits a task performs (0 for non-fit commands)."""
    if task["command"] == "fit-params":
        return 1
    if task["command"] == "fit-s21":
        return len(task["truth"])
    return 0
