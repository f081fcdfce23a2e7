"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest

from rabispec import analytic, rabi, refdata, spectro, twotone

# the seven arrow-marked allowed transitions among the six lowest levels:
# the two photon ladders plus the three qubit-frequency pairs
ALLOWED_PAIRS = (
    (("g", 0), ("e", 0)),
    (("g", 1), ("e", 1)),
    (("g", 2), ("e", 2)),
    (("g", 0), ("g", 1)),
    (("g", 1), ("g", 2)),
    (("e", 0), ("e", 1)),
    (("e", 1), ("e", 2)),
)


def _report(number: int, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {number:2d}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def timed_table():
    """Fresh solve of all nine sets at n_max = 40, wall-clock timed."""
    start = time.perf_counter()
    results = {}
    for set_id, ref in refdata.reference_sets().items():
        spec = rabi.solve(ref.params, 40)
        labels = rabi.assign_labels(spec, ref.params)
        deltas = tuple(rabi.photon_number_qubit_frequency(labels, n) for n in range(3))
        results[set_id] = (ref, spec, labels, deltas)
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_reference_table(timed_table):
    results, elapsed = timed_table
    misses = []
    for set_id, (ref, _, _, deltas) in results.items():
        for n in range(3):
            want = ref.calculated[n]
            if want is None:
                continue
            diff = deltas[n] - want
            if abs(diff) > 2e-3:
                misses.append(f"{set_id}.d{n} off by {1e3 * diff:+.2f} MHz")
    ok = not misses and elapsed < 5.0
    detail = f"runtime {elapsed:.2f} s"
    if misses:
        detail += "; " + "; ".join(misses)
    assert _report(1, ok, detail), detail


def test_criterion_2_level_inversion(timed_table):
    results, _ = timed_table
    d1 = {set_id: deltas[1] for set_id, (_, _, _, deltas) in results.items()}
    ok = d1["A"] > 0 and all(d1[s] < 0 for s in "BCDEFGHI")
    assert _report(2, ok, "one-photon inversion for B-I, none for A"), d1


def test_criterion_3_lamb_shift(timed_table):
    results, _ = timed_table
    ratios = {}
    for set_id in ("H", "I"):
        ref, _, _, deltas = results[set_id]
        ratios[set_id] = 1.0 - deltas[0] / ref.params.delta
    ok = all(r > 0.90 for r in ratios.values())
    detail = ", ".join(f"{s}: {r:.3f}" for s, r in ratios.items())
    assert _report(3, ok, detail), ratios


def test_criterion_4_overlap_oracle():
    grid = np.linspace(0.0, 2.0, 21)
    worst = 0.0
    for n in range(6):
        for beta in grid:
            res = analytic.overlap_integral(n, float(beta))
            worst = max(worst, abs(res.value_quadrature - res.value_closed_form))
    ratio = np.array(
        [analytic.overlap_integral(2, float(b)).value_quadrature for b in grid]
    )
    features = []
    for i in range(grid.size - 1):  # zeros from sign changes, bracket midpoint
        if ratio[i] * ratio[i + 1] < 0:
            features.append(0.5 * (grid[i] + grid[i + 1]))
    minimum = grid[int(np.argmin(ratio))]
    tail = grid > features[-1] if features else grid > 1.0
    maximum = grid[tail][int(np.argmax(ratio[tail]))]
    located = sorted(float(v) for v in (features[0], minimum, features[1], maximum))
    expected = (0.383, 0.622, 0.924, 1.27)
    step = grid[1] - grid[0]
    placed = all(abs(a - b) <= step for a, b in zip(located, expected))
    ok = worst < 1e-8 and len(features) == 2 and placed
    detail = f"max |quad - closed| = {worst:.2e}; features at {[round(f, 3) for f in located]}"
    assert _report(4, ok, detail), detail


def test_criterion_5_parity_selection_rules(timed_table):
    results, _ = timed_table
    worst_forbidden = 0.0
    weakest_allowed = math.inf
    undefined = 0
    for set_id, (_, spec, labels, _) in results.items():
        parities = [rabi.total_parity(spec.eigenvectors[:, k], 40) for k in range(10)]
        undefined += sum(p is None for p in parities)
        for k in range(10):
            for l in range(k, 10):
                if parities[k] == parities[l]:
                    worst_forbidden = max(
                        worst_forbidden, rabi.transition_matrix_element(spec, k, l)
                    )
        for a, b in ALLOWED_PAIRS:
            element = rabi.transition_matrix_element(
                spec, labels.index(*a), labels.index(*b)
            )
            weakest_allowed = min(weakest_allowed, element)
    ok = undefined == 0 and worst_forbidden < 1e-10 and weakest_allowed > 1e-3
    detail = (
        f"forbidden <= {worst_forbidden:.2e}, allowed >= {weakest_allowed:.3f}"
    )
    assert _report(5, ok, detail), detail


def test_criterion_6_eigensolver_quality(timed_table):
    results, _ = timed_table
    worst_res, worst_orth = 0.0, 0.0
    for _, (ref, spec, _, _) in results.items():
        h = rabi.build_hamiltonian(ref.params, 40)
        norm = np.linalg.norm(h)
        v, w = spec.eigenvectors, spec.eigenvalues
        worst_res = max(
            worst_res, float(np.max(np.linalg.norm(h @ v - v * w, axis=0))) / norm
        )
        worst_orth = max(
            worst_orth, float(np.max(np.abs(v.T @ v - np.eye(spec.dim))))
        )
    rng = np.random.default_rng(1234)
    worst_rec = 0.0
    for _ in range(20):
        h = rng.standard_normal((82, 82))
        h = h + h.T
        spec = rabi.eigendecompose(h)
        w, v = spec.eigenvalues, spec.eigenvectors
        rec = np.linalg.norm(v @ np.diag(w) @ v.T - h) / np.linalg.norm(h)
        worst_rec = max(worst_rec, float(rec))
    ok = worst_res <= 1e-9 and worst_orth <= 1e-9 and worst_rec < 1e-10
    detail = (
        f"residual {worst_res:.1e}, orthonormality {worst_orth:.1e}, "
        f"reconstruction {worst_rec:.1e}"
    )
    assert _report(6, ok, detail), detail


def test_criterion_7_truncation_convergence(timed_table):
    results, _ = timed_table
    worst = 0.0
    for set_id, (ref, _, _, deltas40) in results.items():
        spec60 = rabi.solve(ref.params, 60)
        labels60 = rabi.assign_labels(spec60, ref.params)
        for n in range(3):
            drift = abs(deltas40[n] - rabi.photon_number_qubit_frequency(labels60, n))
            worst = max(worst, drift)
    ok = worst < 1e-4
    assert _report(7, ok, f"max |d_n(40) - d_n(60)| = {worst:.2e} GHz"), worst


def _circuit_roundtrip(params, n_max=20):
    observations = []
    for eps in (0.0, 0.5, 1.0):
        p = rabi.CircuitParams(params.delta, params.omega, params.g, eps)
        spec = rabi.solve(p, n_max)
        for k, l in ((0, 1), (0, 2)):
            observations.append(
                (eps, (k, l), float(spec.eigenvalues[l] - spec.eigenvalues[k]))
            )
    init = rabi.CircuitParams(
        delta=params.delta * 1.03, omega=params.omega * 0.99, g=max(params.g * 1.02, 0.3)
    )
    fitted, _ = spectro.fit_circuit_params(observations, init, n_max)
    return max(
        abs(fitted.delta - params.delta),
        abs(fitted.omega - params.omega),
        abs(fitted.g - params.g),
    )


def test_criterion_8_fit_roundtrips():
    reference = refdata.reference_sets()
    circuit_err = max(
        _circuit_roundtrip(reference["A"].params), _circuit_roundtrip(reference["H"].params)
    )

    truth = spectro.LineshapeParams(omega0=6.123, q_total=8e3, q_external=1.1e4, phi=0.35)
    bg = spectro.BackgroundPoly((0.92, 0.01, -0.002, 0.0005), center=6.123)
    w = np.linspace(truth.omega0 * (1 - 60 / 8e3), truth.omega0 * (1 + 60 / 8e3), 300)
    clean = np.abs(bg(w) * spectro.s21(truth, w))
    init = spectro.LineshapeParams(omega0=6.1228, q_total=7e3, q_external=1.2e4, phi=0.2)
    shape, _, _ = spectro.fit_lineshape(np.column_stack([w, clean]), init)
    shape_err = max(
        abs(shape.omega0 - truth.omega0) / truth.omega0,
        abs(shape.q_total - truth.q_total) / truth.q_total,
        abs(shape.q_external - truth.q_external) / truth.q_external,
        abs(shape.phi - truth.phi) / truth.phi,
    )

    center_errors = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
        fit, _, _ = spectro.fit_lineshape(np.column_stack([w, noisy]), init)
        center_errors.append(abs(fit.omega0 - truth.omega0) / truth.omega0)
    median_center = float(np.median(center_errors))

    ok = circuit_err < 1e-3 and shape_err < 1e-3 and median_center < 1e-5
    detail = (
        f"circuit {circuit_err:.1e} GHz, lineshape {shape_err:.1e} rel, "
        f"noisy center {median_center:.1e} rel (median of 100)"
    )
    assert _report(8, ok, detail), detail


def _random_drive(rng, ordering):
    split = rng.uniform(0.3, 1.2)
    gap = rng.uniform(-0.9, 0.9)
    omega_b = 4.0 + split
    omega_c = omega_b + gap
    if (ordering == "b_below_c") != (omega_b <= omega_c):
        omega_b, omega_c = omega_c, omega_b
    return twotone.ThreeLevelDrive(
        omega_a=0.0,
        omega_b=omega_b,
        omega_c=omega_c,
        rabi_bc=rng.uniform(0.005, 0.1),
    )


def test_criterion_9_avoided_crossing_algebra():
    rng = np.random.default_rng(77)
    worst_gap = 0.0
    worst_slope = 0.0
    for ordering in twotone.ORDERINGS:
        want = -1.0 if ordering == "b_below_c" else +1.0
        for _ in range(10):
            tld = _random_drive(rng, ordering)
            gap, _ = twotone.minimum_branch_gap(tld)
            worst_gap = max(worst_gap, abs(gap - 2.0 * tld.rabi_bc))
            w_d = tld.drive_resonance + 100.0 * tld.rabi_bc
            h = 1e-7 * max(w_d, 1.0)
            lo_m, hi_m = twotone.avoided_crossing_branches(tld, w_d - h)
            lo_p, hi_p = twotone.avoided_crossing_branches(tld, w_d + h)
            slope_lo = (lo_p - lo_m) / (2 * h)
            slope_hi = (hi_p - hi_m) / (2 * h)
            diagonal = slope_lo if abs(slope_lo) > abs(slope_hi) else slope_hi
            worst_slope = max(worst_slope, abs(diagonal - want))
    ok = worst_gap <= 1e-9 and worst_slope <= 1e-3
    detail = f"gap error {worst_gap:.1e} GHz, slope error {worst_slope:.1e}"
    assert _report(9, ok, detail), detail


def test_criterion_10_level_reconstruction():
    measured = refdata.reference_sets()["H"].measured
    d0, d1, d2 = measured
    # ladder anchors are multiples of 2^-52 below 2, so every difference in
    # the synthesis and in the reconstruction is exact in binary
    g0, g1, g2 = 0.0, 1.75, 1.21875
    e0, e1, e2 = g0 + d0, g1 + d1, g2 + d2
    five = twotone.FiveFrequencies(
        w_g0g1=g1 - g0, w_g0g2=g2 - g0, w_e0e1=e1 - e0, w_e0e2=e2 - e0, w_g0e1=e1 - g0
    )
    six = twotone.reconstruct_levels(five)
    exact = six.delta_0 == d0 and six.delta_1 == d1 and six.delta_2 == d2
    round_trip = six.five_frequencies() == five
    ok = exact and round_trip
    detail = f"deltas ({six.delta_0}, {six.delta_1}, {six.delta_2}), bitwise round-trip {round_trip}"
    assert _report(10, ok, detail), detail


def test_criterion_11_asymptotic_validity():
    omega = 6.0
    betas = np.linspace(0.1, 1.5, 8)
    deviations = []
    for ratio in (0.5, 0.2, 0.1, 0.05):
        delta = ratio * omega
        worst = 0.0
        for beta in betas:
            p = rabi.CircuitParams(delta=delta, omega=omega, g=float(beta) * omega)
            spec = rabi.solve(p, 40)
            labels = rabi.assign_labels(spec, p)
            for n in range(3):
                numeric = rabi.photon_number_qubit_frequency(labels, n) / delta
                closed = analytic.delta_n_closed_form(delta, float(beta), n) / delta
                worst = max(worst, abs(numeric - closed))
        deviations.append(worst)
    ok = all(a > b for a, b in zip(deviations, deviations[1:]))
    detail = "max deviation " + " > ".join(f"{d:.4f}" for d in deviations)
    assert _report(11, ok, detail), detail
