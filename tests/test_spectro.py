import math

import numpy as np
import pytest

from rabispec import rabi, spectro
from rabispec.errors import IllConditionedDataError


def test_s21_critically_coupled_dip():
    p = spectro.LineshapeParams(omega0=6.0, q_total=5e3, q_external=5e3, phi=0.0)
    assert spectro.s21(p, 6.0) == 0.0


def test_s21_off_resonance_unity():
    p = spectro.LineshapeParams(omega0=6.0, q_total=5e3, q_external=8e3, phi=0.4)
    far = 6.0 * (1.0 + 100.0 / 5e3)
    assert abs(abs(spectro.s21(p, far)) - 1.0) < 5e-3


def test_s21_can_exceed_unity():
    p = spectro.LineshapeParams(omega0=6.0, q_total=5e3, q_external=5e3, phi=math.pi)
    assert abs(spectro.s21(p, 6.0)) == pytest.approx(2.0, rel=1e-12)


def test_s21_symmetric_at_zero_phase():
    p = spectro.LineshapeParams(omega0=6.0, q_total=4e3, q_external=9e3, phi=0.0)
    for detuning in np.linspace(1e-5, 3e-3, 7):
        above = abs(spectro.s21(p, 6.0 + detuning))
        below = abs(spectro.s21(p, 6.0 - detuning))
        assert above == pytest.approx(below, rel=1e-12)


def test_lineshape_validation():
    with pytest.raises(ValueError):
        spectro.LineshapeParams(omega0=-1.0, q_total=1e3, q_external=1e3)
    with pytest.raises(ValueError):
        spectro.LineshapeParams(omega0=6.0, q_total=0.0, q_external=1e3)
    with pytest.raises(ValueError):
        spectro.BackgroundPoly(tuple(range(10)))


def _synthetic_lineshape(noise=0.0, seed=None):
    truth = spectro.LineshapeParams(omega0=6.123, q_total=8e3, q_external=1.1e4, phi=0.35)
    bg = spectro.BackgroundPoly((0.92, 0.01, -0.002, 0.0005), center=6.123)
    w = np.linspace(6.123 * (1 - 60 / 8e3), 6.123 * (1 + 60 / 8e3), 300)
    y = np.abs(bg(w) * spectro.s21(truth, w))
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise * rng.standard_normal(y.size))
    return truth, bg, np.column_stack([w, y])


def test_fit_lineshape_noiseless_roundtrip():
    truth, bg, data = _synthetic_lineshape()
    init = spectro.LineshapeParams(omega0=6.1228, q_total=7e3, q_external=1.2e4, phi=0.2)
    shape, poly, rms = spectro.fit_lineshape(
        data, init, spectro.BackgroundPoly((1.0, 0.0, 0.0, 0.0), center=6.123)
    )
    assert rms < 1e-9
    assert shape.omega0 == pytest.approx(truth.omega0, rel=1e-3)
    assert shape.q_total == pytest.approx(truth.q_total, rel=1e-3)
    assert shape.q_external == pytest.approx(truth.q_external, rel=1e-3)
    assert shape.phi == pytest.approx(truth.phi, rel=1e-3)


def test_fit_lineshape_noisy_center_recovery():
    truth, _, _ = _synthetic_lineshape()
    init = spectro.LineshapeParams(omega0=6.1228, q_total=7e3, q_external=1.2e4, phi=0.2)
    errors = []
    for seed in range(10):
        _, _, data = _synthetic_lineshape(noise=0.01, seed=seed)
        shape, _, _ = spectro.fit_lineshape(
            data, init, spectro.BackgroundPoly((1.0, 0.0, 0.0, 0.0), center=6.123)
        )
        errors.append(abs(shape.omega0 - truth.omega0) / truth.omega0)
    assert np.median(errors) < 1e-5


def test_fit_lineshape_error_shrinks_with_noise():
    truth, _, _ = _synthetic_lineshape()
    init = spectro.LineshapeParams(omega0=6.1228, q_total=7e3, q_external=1.2e4, phi=0.2)
    medians = []
    for noise in (1e-2, 1e-3, 1e-4):
        errs = []
        for seed in range(5):
            _, _, data = _synthetic_lineshape(noise=noise, seed=seed)
            shape, _, _ = spectro.fit_lineshape(
                data, init, spectro.BackgroundPoly((1.0, 0.0, 0.0, 0.0), center=6.123)
            )
            errs.append(abs(shape.omega0 - truth.omega0) / truth.omega0)
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


def test_fit_lineshape_rejects_flat_data():
    w = np.linspace(5.9, 6.1, 50)
    data = np.column_stack([w, np.ones_like(w)])
    init = spectro.LineshapeParams(omega0=6.0, q_total=1e3, q_external=1e3)
    with pytest.raises(IllConditionedDataError):
        spectro.fit_lineshape(data, init)


def test_fit_lineshape_rejects_short_data():
    w = np.linspace(5.9, 6.1, 10)
    data = np.column_stack([w, 1.0 - np.exp(-((w - 6.0) ** 2) / 1e-4)])
    init = spectro.LineshapeParams(omega0=6.0, q_total=1e3, q_external=1e3)
    with pytest.raises(ValueError):
        spectro.fit_lineshape(data, init)


def test_estimate_lineshape_seeds_a_working_fit():
    truth, bg, data = _synthetic_lineshape()
    init = spectro.estimate_lineshape(data[:, 0], data[:, 1])
    shape, _, rms = spectro.fit_lineshape(
        data, init, spectro.BackgroundPoly((1.0, 0.0, 0.0, 0.0), center=6.123)
    )
    assert shape.omega0 == pytest.approx(truth.omega0, rel=1e-6)


def _observations(params, eps_values, pairs, n_max):
    rows = []
    for eps in eps_values:
        p = rabi.CircuitParams(params.delta, params.omega, params.g, eps)
        spec = rabi.solve(p, n_max)
        for k, l in pairs:
            rows.append((eps, (k, l), float(spec.eigenvalues[l] - spec.eigenvalues[k])))
    return rows


def test_fit_circuit_params_roundtrip(reference):
    truth = reference["A"].params
    obs = _observations(truth, (0.0, 0.6, 1.2), ((0, 1), (0, 2)), 16)
    init = rabi.CircuitParams(delta=1.2, omega=6.4, g=0.5)
    fitted, rms = spectro.fit_circuit_params(obs, init, 16)
    assert rms < 1e-9
    assert fitted.delta == pytest.approx(truth.delta, abs=1e-3)
    assert fitted.omega == pytest.approx(truth.omega, abs=1e-3)
    assert fitted.g == pytest.approx(truth.g, abs=1e-3)


def test_fit_circuit_params_flags_inconsistent_data():
    # two incompatible 0->1 frequencies at the same bias cannot be matched
    obs = [
        (0.0, (0, 1), 5.0),
        (0.0, (0, 1), 5.5),
        (0.0, (0, 2), 6.3),
        (0.5, (0, 1), 5.1),
        (0.5, (0, 2), 6.3),
        (1.0, (0, 1), 5.4),
    ]
    init = rabi.CircuitParams(delta=5.0, omega=6.3, g=0.5)
    fitted, rms = spectro.fit_circuit_params(obs, init, 12)
    assert rms > 0.05


def test_fit_circuit_params_validates_observations():
    init = rabi.CircuitParams(delta=1.0, omega=6.0, g=0.5)
    with pytest.raises(IllConditionedDataError):
        spectro.fit_circuit_params([(0.0, (0, 1), 5.0)] * 5, init, 12)
    with pytest.raises(IllConditionedDataError):
        spectro.fit_circuit_params([(0.0, (0, 1), 5.0)] * 6, init, 12)


def test_transition_map_bare_qubit():
    delta = 1.2
    grid = np.linspace(-1.5, 1.5, 7)
    p = rabi.CircuitParams(delta=delta, omega=6.0, g=0.0)
    tmap = spectro.transition_map(p, grid, n_max=12)
    qubit = np.sqrt(delta**2 + grid**2)
    assert np.allclose(tmap.frequencies[(0, 1)], qubit, atol=1e-9)
    # the oscillator line sits at omega and is the one that carries weight
    assert np.allclose(tmap.frequencies[(0, 2)], 6.0, atol=1e-9)
    assert np.all(tmap.elements[(0, 2)] > 0.99)
    # bare qubit transitions move no photons: masked everywhere
    assert np.all(np.isnan(tmap.curves[(0, 1)]))


def test_transition_map_set_a(reference):
    p = reference["A"].params
    grid = np.array([-10.0, 0.0, 10.0])
    tmap = spectro.transition_map(p, grid, n_max=40)
    center = np.where(grid == 0.0)[0][0]
    assert tmap.frequencies[(0, 1)][center] == pytest.approx(1.235, abs=2e-3)
    # far from the symmetry point the 0->1 branch becomes the oscillator line
    assert tmap.frequencies[(0, 1)][0] == pytest.approx(p.omega, abs=0.05)
    assert tmap.frequencies[(0, 1)][-1] == pytest.approx(p.omega, abs=0.05)


def test_transition_map_masks_forbidden_at_symmetry(reference):
    p = reference["H"].params
    grid = np.array([-0.4, 0.0, 0.4])
    tmap = spectro.transition_map(p, grid, n_max=40)
    curves = tmap.curves
    center = 1
    # g0 -> e1 shares parity with the ground state at eps = 0; with the
    # inverted one-photon doublet e1 sits at ordinal 2 here
    labels = rabi.assign_labels(rabi.solve(p, 40), p)
    forbidden = (0, labels.index("e", 1))
    assert math.isnan(curves[forbidden][center])
    assert tmap.elements[forbidden][center] < 1e-10
    assert not math.isnan(curves[(0, 1)][center])


def test_transition_map_matches_labeled_gap_at_symmetry(solved_sets):
    # the lowest visible transition at eps = 0 is the zero-photon qubit line
    for _, (ref, spec, labels) in solved_sets.items():
        tmap = spectro.transition_map(ref.params, np.array([0.0, 0.1]), n_max=40)
        gap = labels.energy("e", 0) - labels.energy("g", 0)
        assert tmap.frequencies[(0, 1)][0] == pytest.approx(gap, abs=1e-9)

