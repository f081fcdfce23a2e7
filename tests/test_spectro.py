import math
import warnings

import numpy as np
import pytest

from rabispec import levmar, rabi, spectro
from rabispec.errors import HamiltonianOverflowError, IllConditionedDataError


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
    for q_total, q_external in ((math.nan, 1e3), (1e3, math.nan), (math.inf, 1e3)):
        with pytest.raises(ValueError):
            spectro.LineshapeParams(omega0=6.0, q_total=q_total, q_external=q_external)
    with pytest.raises(ValueError):
        spectro.BackgroundPoly(tuple(range(10)))
    _, _, data = _synthetic_lineshape()
    init = spectro.LineshapeParams(omega0=6.1228, q_total=7e3, q_external=1.2e4, phi=0.2)
    for degree in (-1, 9):
        with pytest.raises(ValueError, match="background degree"):
            spectro.fit_lineshape(data, init, degree)
    below_zero = data - [6.123 * (1 - 30 / 8e3), 0.0]
    with pytest.raises(ValueError, match="probe frequency must be positive"):
        spectro.fit_lineshape(below_zero, init)
    # one non-finite cell is refused, not fitted to rms nan
    for row, column, value in ((40, 1, math.nan), (40, 0, math.nan), (0, 0, math.inf)):
        bad = data.copy()
        bad[row, column] = value
        with pytest.raises(ValueError, match="must be finite"):
            spectro.fit_lineshape(bad, init)


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
    shape, poly, rms = spectro.fit_lineshape(data, init)
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
        shape, _, _ = spectro.fit_lineshape(data, init)
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
            shape, _, _ = spectro.fit_lineshape(data, init)
            errs.append(abs(shape.omega0 - truth.omega0) / truth.omega0)
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


def test_fit_lineshape_residual_rejects_rows_unevaluated(monkeypatch):
    models = []

    def spy(fun, x0):
        models.append(fun)
        return levmar.least_squares_lm(fun, x0)

    monkeypatch.setattr(spectro, "least_squares_lm", spy)
    _, _, data = _synthetic_lineshape()
    init = spectro.LineshapeParams(omega0=6.1228, q_total=7e3, q_external=1.2e4, phi=0.2)
    spectro.fit_lineshape(data, init)
    good = [6.12, 8e3, 1.1e4, 0.3, 0.9, 0.01, -0.002, 0.0]
    stack = np.array(
        [
            good,
            [0.0] + good[1:],
            good[:2] + [0.0] + good[3:],
            good[:3] + [math.inf] + good[4:],
            [-6.13, -7e3, 1.2e4, -0.1, 1.1, 0.0, 0.003, 0.0001],
            good[:3] + [math.nan] + good[4:],
            [math.nan] + good[1:],
            good[:1] + [math.nan] + good[2:],
            good[:1] + [math.inf] + good[2:],
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = models[0](stack)
    assert residuals.shape == (len(stack), len(data))
    assert np.all(residuals[[1, 2, 3, 5, 6, 7, 8]] == 1e6)
    w, y = data[:, 0], data[:, 1]
    for i in (0, 4):
        shape = spectro.LineshapeParams(*np.abs(stack[i, :3]), phi=stack[i, 3])
        bg = spectro.BackgroundPoly(tuple(stack[i, 4:]), center=6.123)
        expected = np.abs(bg(w) * spectro.s21(shape, w)) - y
        assert residuals[i].tobytes() == expected.tobytes()


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


def test_lineshape_rejects_zero_probe_span():
    w = np.full(40, 6.0)
    y = np.full(40, 0.9)
    y[20] = 0.8
    init = spectro.LineshapeParams(omega0=6.0, q_total=1e3, q_external=1e3)
    with pytest.raises(IllConditionedDataError, match="probe frequencies"):
        spectro.estimate_lineshape(w, y)
    with pytest.raises(IllConditionedDataError, match="probe frequencies"):
        spectro.fit_lineshape(np.column_stack([w, y]), init)


def test_estimate_lineshape_seeds_a_working_fit():
    truth, bg, data = _synthetic_lineshape()
    init = spectro.estimate_lineshape(data[:, 0], data[:, 1])
    shape, _, rms = spectro.fit_lineshape(data, init)
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
    # states outside [0, 26) at n_max 12, a fractional state, a non-finite bias
    # or frequency: refused before the fit, naming the observation
    good = [(0.0, (0, 1), 1.0), (0.5, (0, 2), 6.0)] * 3
    for bad in [(0.3, (-1, 2), 6.0), (0.3, (0, 26), 6.0), (0.3, (0, 1.5), 6.0),
                (math.nan, (0, 1), 1.0), (0.3, (0, 1), math.inf), (0.3, (0, 1), math.nan)]:
        with pytest.raises(ValueError, match=r"observation 6 .*integers in \[0, 26\)") as excinfo:
            spectro.fit_circuit_params(good + [bad], init, 12)
        assert not isinstance(excinfo.value, IllConditionedDataError)


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


def _long_grid():
    # about 200 points at n_max 40, a +0.0 and a -0.0 in the middle block
    grid = np.linspace(-3.0, 3.0, 200)
    rows = spectro._BLOCK_BYTES // (8 * 82 * 82)
    assert rows < 80 and 2 * rows < grid.size
    grid[rows + 10], grid[rows + 20] = 0.0, -0.0
    return tuple(grid)


@pytest.mark.parametrize(
    "set_id, grid, n_max",
    [
        pytest.param("A", (-2.0, 0.0, 0.3, 2.0), 30, id="A-grid0"),
        pytest.param("H", (-0.4, 0.0, 0.1), 30, id="H-grid1"),
        pytest.param("H", _long_grid(), 40, id="H-blocks"),
    ],
)
def test_transition_map_elements_are_the_checked_elements(reference, set_id, grid, n_max):
    # one quadrature pass per block gives the one-at-a-time elements at |eps| exactly
    p = reference[set_id].params
    tmap = spectro.transition_map(p, np.array(grid), n_max=n_max)
    for i, eps in enumerate(grid):
        spec = rabi.solve(rabi.CircuitParams(p.delta, p.omega, p.g, epsilon=abs(eps)), n_max)
        for k, l in spectro.TRANSITIONS:
            assert tmap.elements[(k, l)][i] == rabi.transition_matrix_element(spec, k, l)
            assert tmap.frequencies[(k, l)][i] == spec.eigenvalues[l] - spec.eigenvalues[k]


def _counted_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_transition_map_one_eigh_per_block(reference, monkeypatch):
    # the distinct |eps| come in ascending order, so the +0.0 and -0.0 share
    # one parity solve in the first block; three blocks of dense stacks follow
    calls = _counted_eigh(monkeypatch)
    grid = np.array(_long_grid())
    spectro.transition_map(reference["H"].params, grid, n_max=40)
    rows = spectro._BLOCK_BYTES // (8 * 82 * 82)
    distinct = np.unique(np.abs(grid)).size
    assert 2 * rows < distinct < grid.size
    assert calls == [(2, 41, 41), (rows - 1, 82, 82), (rows, 82, 82), (distinct - 2 * rows, 82, 82)]
    assert all(shape[0] <= rows for shape in calls)


def test_transition_map_symmetric_grid_solves_each_magnitude_once(reference, monkeypatch):
    # 11 exact mirrors about 0: one parity solve at 0 and one stack of the 5 positive points
    calls = _counted_eigh(monkeypatch)
    half = np.linspace(0.0, 2.0, 6)
    grid = np.concatenate([-half[:0:-1], half])
    assert np.array_equal(grid, -grid[::-1])
    tmap = spectro.transition_map(reference["H"].params, grid, n_max=30)
    assert calls == [(2, 31, 31), (5, 62, 62)]
    # rows i and n - 1 - i are the same solve
    for pair in spectro.TRANSITIONS:
        for table in (tmap.frequencies, tmap.elements):
            assert table[pair].tobytes() == table[pair][::-1].tobytes()


@pytest.mark.parametrize("set_id", list("ABCDEFGHI"))
def test_transition_map_mirror_matches_the_signed_solve(reference, set_id):
    # Rows at -eps come from the +eps solve.  LAPACK's eigh is backward
    # stable, so a direct solve at -eps moves each eigenvalue by a few
    # eps_mach * ||H||, about 7e-14 GHz at n_max 40 (||H|| near 330 GHz);
    # 1e-12 GHz leaves a factor of 14.  An element moves by at most about
    # that times ||a + a^dagger|| (about 13) over the smallest gap of the
    # five lowest levels (0.099 GHz, set I): 9e-12, within 1e-11.
    p = reference[set_id].params
    grid = np.linspace(-2.0, 2.0, 41)
    tmap = spectro.transition_map(p, grid, n_max=40)
    for i, eps in enumerate(grid):
        spec = rabi.solve(rabi.CircuitParams(p.delta, p.omega, p.g, epsilon=eps), 40)
        for k, l in spectro.TRANSITIONS:
            freq = spec.eigenvalues[l] - spec.eigenvalues[k]
            assert tmap.frequencies[(k, l)][i] == pytest.approx(freq, rel=0, abs=1e-12)
            element = rabi.transition_matrix_element(spec, k, l)
            assert tmap.elements[(k, l)][i] == pytest.approx(element, rel=0, abs=1e-11)


@pytest.mark.parametrize("n_max", [0, -1])
def test_transition_map_refuses_n_max_below_one(n_max):
    # checked before the overflow guard, whose sqrt(n_max) fails below 0
    p = rabi.CircuitParams(delta=1.0, omega=6.0, g=1.0)
    with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
        spectro.transition_map(p, np.array([-0.5, 0.5]), n_max=n_max)


def test_transition_map_refuses_the_first_bad_point():
    p = rabi.CircuitParams(delta=1.0, omega=6.0, g=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"epsilon must be finite, got {bad}"):
            spectro.transition_map(p, np.array([0.1, 0.0, bad, 1e309 * 0.0]), n_max=12)
    # every point overflows; the error names the first, not the epsilon = 0 one
    huge = rabi.CircuitParams(delta=1.0, omega=1e307, g=1.0)
    with pytest.raises(HamiltonianOverflowError, match="epsilon=-2.0,"):
        spectro.transition_map(huge, np.array([-2.0, 0.0, 2.0]), n_max=40)
    # only the last point overflows
    wide = rabi.CircuitParams(delta=1.0, omega=2.4e307, g=1.0)
    with pytest.raises(HamiltonianOverflowError, match="epsilon=1.7e[+]308,"):
        spectro.transition_map(wide, np.array([0.0, 1.0, 1.7e308]), n_max=4)


def test_transition_matrix_elements_checks_states(solved_sets):
    ref, spec, _ = solved_sets["A"]
    elements = rabi.transition_matrix_elements(spec.eigenvectors, spec.n_max, 5)
    assert elements[0, 3] == rabi.transition_matrix_element(spec, 0, 3)
    assert elements[5, 2] == rabi.transition_matrix_element(spec, 5, 2)
    with pytest.raises(IndexError):
        rabi.transition_matrix_elements(spec.eigenvectors, spec.n_max, spec.dim)
    with pytest.raises(IndexError):
        rabi.transition_matrix_element(spec, 0, spec.dim)
    # a generic spectrum has no Fock truncation to apply the quadrature on
    bare = rabi.Spectrum(spec.eigenvalues, spec.eigenvectors)
    with pytest.raises(ValueError, match="no truncation size"):
        rabi.transition_matrix_elements(bare.eigenvectors, bare.n_max, 1)
    with pytest.raises(ValueError, match="no truncation size"):
        rabi.assign_labels(bare, ref.params)
