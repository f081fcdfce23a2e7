import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabispec import rabi, spectro
from rabispec.errors import AmbiguousLabelError, ConvergenceError, HamiltonianOverflowError


def test_params_validation():
    with pytest.raises(ValueError):
        rabi.CircuitParams(delta=-0.1, omega=6.0, g=1.0)
    with pytest.raises(ValueError):
        rabi.CircuitParams(delta=1.0, omega=0.0, g=1.0)
    with pytest.raises(ValueError):
        rabi.CircuitParams(delta=1.0, omega=6.0, g=-1.0)
    with pytest.raises(ValueError):
        rabi.CircuitParams(delta=float("nan"), omega=6.0, g=1.0)
    # delta = 0 is a valid (pure displaced-oscillator) limit
    rabi.CircuitParams(delta=0.0, omega=6.0, g=1.0)


def test_build_rejects_bad_truncation():
    p = rabi.CircuitParams(delta=1.0, omega=6.0, g=1.0)
    with pytest.raises(ValueError):
        rabi.build_hamiltonian(p, 0)


def kron_hamiltonian(p, n_max):
    """-delta/2 sx(x)I - eps/2 sz(x)I + omega I(x)n + g sz(x)(a + a^dag), by np.kron."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    eye = np.eye(n_max + 1)
    ladder = np.sqrt(np.arange(1.0, n_max + 1))
    quadrature = np.diag(ladder, 1) + np.diag(ladder, -1)
    number = np.diag(np.arange(n_max + 1.0))
    return (
        -0.5 * p.delta * np.kron(sx, eye)
        - 0.5 * p.epsilon * np.kron(sz, eye)
        + p.omega * np.kron(np.eye(2), number)
        + p.g * np.kron(sz, quadrature)
    )


@pytest.mark.parametrize(
    "delta, omega, g, epsilon, n_max",
    [
        (1.68, 6.345, 7.27, 0.7, 40),
        (1.68, 6.345, 7.27, 0.0, 40),
        (1.3, 6.1, 0.0, -2.5, 12),
        (0.0, 5.5, 2.2, 1.0, 1),
        (7.9, 0.5, 3.3, -0.013, 20),
        (1.2, 6.0, 1.0, 12.0, 2),
    ],
)
def test_build_hamiltonian_matches_kron(delta, omega, g, epsilon, n_max):
    p = rabi.CircuitParams(delta=delta, omega=omega, g=g, epsilon=epsilon)
    h = rabi.build_hamiltonian(p, n_max)
    assert h.shape == (2 * (n_max + 1),) * 2
    assert np.array_equal(h, kron_hamiltonian(p, n_max))


def test_biased_solve_is_eigendecompose_bit_for_bit():
    # the dense path skips eigendecompose's checks but not a single bit of its answer
    for delta, omega, g, epsilon, n_max in [
        (1.68, 6.345, 7.27, 0.7, 40),
        (0.5, 6.0, 0.0, -1.0, 12),
        (8.0, 6.2, 3.1, 0.05, 20),
    ]:
        p = rabi.CircuitParams(delta=delta, omega=omega, g=g, epsilon=epsilon)
        fast = rabi.solve(p, n_max)
        checked = rabi.eigendecompose(rabi.build_hamiltonian(p, n_max), n_max=n_max)
        assert fast.eigenvalues.tobytes() == checked.eigenvalues.tobytes()
        assert fast.eigenvectors.tobytes() == checked.eigenvectors.tobytes()
        assert fast.n_max == checked.n_max == n_max
        w, v = rabi.solve_grid(p, [epsilon], n_max)
        assert w.shape == (1, 2 * (n_max + 1)) and v.shape == (1,) + fast.eigenvectors.shape
        assert w[0].tobytes() == fast.eigenvalues.tobytes()
        assert v[0].tobytes() == fast.eigenvectors.tobytes()


def test_solve_grid_rows_are_the_pointwise_solves():
    # one stack for the biased rows, one parity solve shared by both zeros
    p = rabi.CircuitParams(delta=1.68, omega=6.345, g=7.27, epsilon=5.0)
    grid = [-0.4, 0.0, 0.3, -0.0, 2.0]
    w, v = rabi.solve_grid(p, grid, 20)
    for i, epsilon in enumerate(grid):
        spec = rabi.solve(rabi.CircuitParams(p.delta, p.omega, p.g, epsilon=epsilon), 20)
        assert w[i].tobytes() == spec.eigenvalues.tobytes()
        assert v[i].tobytes() == spec.eigenvectors.tobytes()
    for bad in ([], [[0.1]]):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            rabi.solve_grid(p, bad, 20)
    with pytest.raises(ValueError, match="n_max"):
        rabi.solve_grid(p, grid, 0)


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_solve_rejects_overflowing_entries(epsilon):
    # on either path a non-finite entry is refused before numpy can warn;
    # the last case overflows only once delta/2 joins omega * n_max
    for delta, omega, g, n_max in [
        (1.0, 1e307, 1.0, 40),
        (1.0, 1.0, 1e308, 40),
        (1.7e308, 2.5e307, 1.0, 4),
    ]:
        p = rabi.CircuitParams(delta=delta, omega=omega, g=g, epsilon=epsilon)
        with pytest.raises(HamiltonianOverflowError, match="overflow a float"):
            rabi.solve(p, n_max)
        with pytest.raises(HamiltonianOverflowError, match="overflow a float"):
            rabi.build_hamiltonian(p, n_max)
        with pytest.raises(HamiltonianOverflowError, match=f"epsilon={epsilon},"):
            rabi.solve_grid(p, [epsilon, 1.0], n_max)
    # a huge but representable circuit still goes to LAPACK
    p = rabi.CircuitParams(delta=1.0, omega=1e300, g=1.0, epsilon=epsilon)
    assert np.all(np.isfinite(rabi.solve(p, 4).eigenvalues))


def test_decoupled_limit_spectrum():
    # g = 0, eps = 0: eigenvalues are {n w -+ delta/2}, lowest gap is delta
    delta, omega = 1.3, 6.1
    p = rabi.CircuitParams(delta=delta, omega=omega, g=0.0)
    spec = rabi.solve(p, 12)
    want = np.sort(
        np.concatenate(
            [np.arange(13) * omega - delta / 2, np.arange(13) * omega + delta / 2]
        )
    )
    assert np.allclose(spec.eigenvalues, want, atol=1e-12)
    assert spec.eigenvalues[1] - spec.eigenvalues[0] == pytest.approx(delta, abs=1e-12)


def test_displaced_oscillator_ground_energy():
    # delta = 0: exact ground energy -g^2/w from completing the square
    omega, g = 6.0, 7.2
    p = rabi.CircuitParams(delta=0.0, omega=omega, g=g)
    spec = rabi.solve(p, 40)
    assert spec.eigenvalues[0] == pytest.approx(-(g**2) / omega, abs=1e-8)


def test_set_a_zero_photon_gap(solved_sets):
    _, spec, _ = solved_sets["A"]
    assert spec.eigenvalues[1] - spec.eigenvalues[0] == pytest.approx(1.235, abs=2e-3)


def _eigh(matrix):
    spec = rabi.eigendecompose(matrix)
    return spec.eigenvalues, spec.eigenvectors


def test_eigendecompose_two_by_two():
    w, v = _eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(np.abs(v.T @ v), np.eye(2), atol=1e-15)


def test_eigendecompose_diagonal_input():
    d = np.diag([3.0, -1.0, 2.0])
    w, v = _eigh(d)
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    # eigenvectors must be a (signed) permutation of the standard basis
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_eigendecompose_random_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(5):
        h = rng.standard_normal((82, 82))
        h = h + h.T
        w, v = _eigh(h)
        assert np.all(np.diff(w) >= 0)
        rel = np.linalg.norm(v @ np.diag(w) @ v.T - h) / np.linalg.norm(h)
        assert rel < 1e-10


def test_eigendecompose_handles_exact_degeneracy():
    rng = np.random.default_rng(21)
    basis, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    want = np.repeat([1.0, 2.0, 3.0], 4)
    h = basis @ np.diag(want) @ basis.T
    h = 0.5 * (h + h.T)
    w, v = _eigh(h)
    assert np.allclose(w, want, atol=1e-12)
    assert np.linalg.norm(v @ np.diag(w) @ v.T - h) / np.linalg.norm(h) < 1e-12


def test_biased_spectrum_quality():
    # residual and orthonormality bounds hold on the dense (biased) path too
    p = rabi.CircuitParams(delta=1.68, omega=6.345, g=7.27, epsilon=0.7)
    spec = rabi.solve(p, 40)
    h = rabi.build_hamiltonian(p, 40)
    norm = np.linalg.norm(h)
    v, w = spec.eigenvectors, spec.eigenvalues
    assert np.max(np.linalg.norm(h @ v - v * w, axis=0)) <= 1e-9 * norm
    assert np.max(np.abs(v.T @ v - np.eye(spec.dim))) <= 1e-9


def test_eigendecompose_rejects_asymmetric():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        rabi.eigendecompose(m)


def test_lapack_failure_is_convergence_error(monkeypatch):
    # a LAPACK failure on either solver path or in eigendecompose surfaces as ConvergenceError
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    for epsilon in (0.0, 0.3):
        p = rabi.CircuitParams(delta=1.68, omega=6.345, g=7.27, epsilon=epsilon)
        with pytest.raises(ConvergenceError):
            rabi.solve(p, 10)
        with pytest.raises(ConvergenceError):
            rabi.solve_grid(p, [epsilon, 0.5], 10)
        with pytest.raises(ConvergenceError):
            spectro.transition_map(p, [epsilon, 0.5], 10)
    with pytest.raises(ConvergenceError):
        rabi.eigendecompose(np.eye(3))


_biases = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-5.0, 5.0))


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(0.0, 8.0),
    omega=st.floats(0.5, 8.0),
    g=st.floats(0.0, 8.0),
    epsilons=st.lists(_biases, min_size=1, max_size=4),
    n_max=st.integers(1, 12),
    top=st.integers(0, 7),
)
def test_transition_matrix_elements_is_the_reference_bit_for_bit(
    delta, omega, g, epsilons, n_max, top
):
    # the kernel copies the columns it reads, so no memory layout of the
    # eigenvectors changes a bit of an element
    p = rabi.CircuitParams(delta=delta, omega=omega, g=g)
    w, stack = rabi.solve_grid(p, epsilons, n_max)
    dim = 2 * (n_max + 1)
    top = min(top, dim - 1)
    stacked = rabi.transition_matrix_elements(stack, n_max, top)
    assert stacked.shape == (len(epsilons), top + 1, top + 1)
    for values, v, row in zip(w, stack, stacked):
        spec = rabi.Spectrum(eigenvalues=values, eigenvectors=v, n_max=n_max)
        states = range(top + 1)
        reference = np.array([[rabi.transition_matrix_element(spec, k, l) for l in states]
                              for k in states])
        padded = np.zeros((2 * dim, 3 * dim))
        padded[::2, ::3] = v
        assert row.tobytes() == reference.tobytes()
        for layout in (np.ascontiguousarray(v), np.asfortranarray(v), padded[::2, ::3]):
            elements = rabi.transition_matrix_elements(layout, n_max, top)
            assert elements.tobytes() == reference.tobytes()


def test_blocked_and_dense_paths_agree():
    p = rabi.CircuitParams(delta=1.68, omega=6.345, g=7.27)
    blocked = rabi.solve(p, 40)
    dense = rabi.eigendecompose(rabi.build_hamiltonian(p, 40), n_max=40)
    scale = np.max(np.abs(dense.eigenvalues))
    assert np.max(np.abs(blocked.eigenvalues - dense.eigenvalues)) < 1e-9 * scale


def test_parity_sharp_at_symmetry_point():
    # any parameters at eps = 0 give sharp parities, whichever solver path ran
    for delta, omega, g in [(1.3, 6.0, 0.7), (2.5, 5.5, 5.0), (0.9, 6.3, 7.0)]:
        p = rabi.CircuitParams(delta=delta, omega=omega, g=g)
        dense = rabi.eigendecompose(rabi.build_hamiltonian(p, 30), n_max=30)
        for k in range(6):
            assert rabi.total_parity(dense.eigenvectors[:, k], 30) is not None


def test_parity_of_bare_states():
    p = rabi.CircuitParams(delta=1.2, omega=6.0, g=0.0)
    spec = rabi.solve(p, 10)
    ground = rabi.total_parity(spec.eigenvectors[:, 0], 10)
    excited = rabi.total_parity(spec.eigenvectors[:, 1], 10)
    assert ground is not None and excited is not None
    assert excited == -ground


def parity_matrix(n_max):
    """Parity operator sx (-1)^(a^dag a) in the product basis."""
    size = n_max + 1
    block = np.diag((-1.0) ** np.arange(size))
    p = np.zeros((2 * size, 2 * size))
    p[:size, size:] = block
    p[size:, :size] = block
    return p


def test_parity_expectation_matches_dense_operator():
    rng = np.random.default_rng(3)
    p = parity_matrix(7)
    for _ in range(5):
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        assert rabi.parity_expectation(v, 7) == pytest.approx(v @ p @ v, abs=1e-14)


def test_parity_undefined_at_finite_bias():
    p = rabi.CircuitParams(delta=1.68, omega=6.345, g=7.27, epsilon=0.3)
    spec = rabi.solve(p, 40)
    for k in range(4):
        assert rabi.total_parity(spec.eigenvectors[:, k], 40) is None


def test_ladder_element_at_zero_coupling():
    p = rabi.CircuitParams(delta=1.2, omega=6.0, g=0.0)
    spec = rabi.solve(p, 12)
    labels = rabi.assign_labels(spec, p)
    elem = rabi.transition_matrix_element(
        spec, labels.index("g", 0), labels.index("g", 1)
    )
    assert elem == pytest.approx(1.0, abs=1e-12)


def test_selection_rules_set_h(solved_sets):
    ref, spec, labels = solved_sets["H"]
    # same total parity (g0 and e1): the element vanishes
    forbidden = rabi.transition_matrix_element(
        spec, labels.index("g", 0), labels.index("e", 1)
    )
    assert forbidden < 1e-10
    # opposite parity neighbors are strongly allowed
    g0g1 = rabi.transition_matrix_element(
        spec, labels.index("g", 0), labels.index("g", 1)
    )
    assert g0g1 > 0.1
    # the zero-photon qubit transition element approaches 2 g/w (cat states)
    g0e0 = rabi.transition_matrix_element(
        spec, labels.index("g", 0), labels.index("e", 0)
    )
    assert g0e0 > 1e-3
    assert g0e0 == pytest.approx(2.0 * ref.params.beta, rel=0.05)


def test_labels_at_zero_coupling_are_factorized():
    p = rabi.CircuitParams(delta=1.2, omega=6.0, g=0.0)
    spec = rabi.solve(p, 12)
    labels = rabi.assign_labels(spec, p)
    for n in range(3):
        assert rabi.photon_number_qubit_frequency(labels, n) == pytest.approx(
            1.2, abs=1e-12
        )


def test_labels_set_h_inverted(solved_sets):
    _, spec, labels = solved_sets["H"]
    d1 = rabi.photon_number_qubit_frequency(labels, 1)
    assert d1 == pytest.approx(-0.514, abs=2e-3)
    assert labels.energy("g", 1) > labels.energy("e", 1)


def test_labels_set_e_two_photon(solved_sets):
    _, _, labels = solved_sets["E"]
    assert rabi.photon_number_qubit_frequency(labels, 2) == pytest.approx(
        1.018, abs=2e-3
    )


def test_qubit_frequency_reference_values(solved_sets):
    _, _, labels_a = solved_sets["A"]
    assert rabi.photon_number_qubit_frequency(labels_a, 0) == pytest.approx(
        1.235, abs=2e-3
    )
    _, _, labels_b = solved_sets["B"]
    assert rabi.photon_number_qubit_frequency(labels_b, 1) == pytest.approx(
        -0.448, abs=2e-3
    )


def test_labels_require_symmetry_point():
    p = rabi.CircuitParams(delta=1.68, omega=6.345, g=7.27, epsilon=0.2)
    spec = rabi.solve(p, 20)
    with pytest.raises(ValueError):
        rabi.assign_labels(spec, p)


def test_labels_require_delta_below_omega():
    p = rabi.CircuitParams(delta=7.0, omega=6.3, g=1.0)
    spec = rabi.solve(p, 20)
    with pytest.raises(ValueError):
        rabi.assign_labels(spec, p)


def test_ambiguous_assignment_raises_with_both_elements(solved_sets):
    ref, spec, _ = solved_sets["H"]
    # mix the two candidate states by 45 degrees: both then couple to g0
    v = spec.eigenvectors.copy()
    c = math.cos(math.pi / 4)
    v2, v3 = v[:, 2].copy(), v[:, 3].copy()
    v[:, 2] = c * (v2 - v3)
    v[:, 3] = c * (v2 + v3)
    mixed = rabi.Spectrum(eigenvalues=spec.eigenvalues, eigenvectors=v, n_max=40)
    with pytest.raises(AmbiguousLabelError) as excinfo:
        rabi.assign_labels(mixed, ref.params)
    err = excinfo.value
    assert err.element_a > 1e-6 and err.element_b > 1e-6
    # the labels read the same bits as the one-pair reference
    assert err.element_a == rabi.transition_matrix_element(mixed, 2, 0)
    assert err.element_b == rabi.transition_matrix_element(mixed, 3, 0)


def test_missing_label_raises(solved_sets):
    _, _, labels = solved_sets["A"]
    with pytest.raises(KeyError):
        labels.energy("g", 9)


def test_parity_conservation_random_params():
    # same-parity quadrature elements vanish for any delta < omega circuit
    rng = np.random.default_rng(9)
    for _ in range(3):
        omega = rng.uniform(5.0, 7.0)
        p = rabi.CircuitParams(
            delta=rng.uniform(0.5, 0.9) * omega,
            omega=omega,
            g=rng.uniform(0.2, 7.5),
        )
        spec = rabi.solve(p, 40)
        parities = [rabi.total_parity(spec.eigenvectors[:, k], 40) for k in range(10)]
        assert all(par is not None for par in parities)
        for k in range(10):
            for l in range(k, 10):
                if parities[k] == parities[l]:
                    assert rabi.transition_matrix_element(spec, k, l) < 1e-10


def test_ground_energy_monotone_in_coupling():
    delta, omega = 1.68, 6.345
    energies = []
    for g in np.linspace(0.0, 8.0, 17):
        p = rabi.CircuitParams(delta=delta, omega=omega, g=float(g))
        energies.append(rabi.solve(p, 40).eigenvalues[0])
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10)


def test_label_ordinals_stable_under_truncation(reference):
    for ref in reference.values():
        spec40 = rabi.solve(ref.params, 40)
        spec60 = rabi.solve(ref.params, 60)
        idx40 = rabi.assign_labels(spec40, ref.params).indices
        idx60 = rabi.assign_labels(spec60, ref.params).indices
        assert idx40 == idx60
