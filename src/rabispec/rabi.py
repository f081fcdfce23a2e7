"""Biased qubit-oscillator Hamiltonian: construction, diagonalization, labels.

The Hamiltonian (divided by Planck's constant, all entries in GHz) is

    H = -(delta/2) sx - (epsilon/2) sz + omega a^dag a + g sz (a + a^dag)

on the product basis {|s> (x) |m>} with s the persistent-current qubit state
(sz eigenstates) and m the oscillator Fock index, laid out qubit-major:
component  s*(n_max+1) + m.  The s = +1 branch is the one whose oscillator
ground state is displaced by -g/omega.

At epsilon = 0 the Hamiltonian commutes with the parity operator
P = sx (-1)^(a^dag a), and each eigenstate carries parity +-1.  Level labels
|i n> (i in {g, e}, n the real-photon number) are assigned by the parity
recursion implemented in :func:`assign_labels`.

Eigendecomposition uses LAPACK: at epsilon = 0 each of the two parity
chains is a real symmetric tridiagonal matrix, solved by
``scipy.linalg.eigh_tridiagonal``, which keeps the eigenvectors exact parity
states; at finite bias the dense matrix goes to ``np.linalg.eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import AmbiguousLabelError, ConvergenceError

DEFAULT_N_MAX = 40
# assign_labels: the winning quadrature element must exceed this floor and
# this multiple of the losing one, or the label is ambiguous.
LABEL_ELEMENT_FLOOR = 1e-6
LABEL_ELEMENT_RATIO = 10.0

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CircuitParams:
    """Circuit parameters in linear-frequency GHz.

    delta:   bare qubit splitting (tunnel coupling); >= 0
    omega:   oscillator frequency; > 0
    g:       qubit-oscillator coupling; >= 0
    epsilon: qubit energy bias; any real (0 at the symmetry point)

    Level labeling additionally requires 0 < delta < omega; that is checked
    where labels are assigned, not here.
    """

    delta: float
    omega: float
    g: float
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("delta", "omega", "g", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")

    @property
    def beta(self) -> float:
        """Dimensionless displacement g/omega."""
        return self.g / self.omega


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.  ``n_max`` is the
    Fock truncation when the matrix came from :func:`build_hamiltonian`
    (dimension 2*(n_max+1)); None for generic matrices.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n_max: int | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class LabeledLevels:
    """Labels (i, n) with i in {'g', 'e'} mapped to ordinals of a spectrum.

    ``eigenvalues`` is the labeled spectrum's own array, not a copy.
    """

    indices: dict
    eigenvalues: np.ndarray

    def energy(self, i: str, n: int) -> float:
        return float(self.eigenvalues[self.index(i, n)])

    def index(self, i: str, n: int) -> int:
        key = (i, n)
        if key not in self.indices:
            raise KeyError(f"no label ({i}, {n}); labels go up to n = {self.max_photon}")
        return self.indices[key]

    @property
    def max_photon(self) -> int:
        return max(n for (_, n) in self.indices)


def build_hamiltonian(params: CircuitParams, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Dense real-symmetric Hamiltonian matrix in GHz, dimension 2*(n_max+1)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    size = n_max + 1
    m = np.arange(size)
    ladder = np.sqrt(m[1:].astype(float))
    x = np.diag(ladder, 1) + np.diag(ladder, -1)  # a + a^dag
    h = np.zeros((2 * size, 2 * size))
    osc = params.omega * m
    h[:size, :size] = params.g * x + np.diag(osc - 0.5 * params.epsilon)
    h[size:, size:] = -params.g * x + np.diag(osc + 0.5 * params.epsilon)
    h[:size, size:] = np.diag(np.full(size, -0.5 * params.delta))
    h[size:, :size] = h[:size, size:]
    return h


def _sorted_system(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    peaks = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[peaks, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return w, v * signs


def eigendecompose(matrix: np.ndarray, n_max: int | None = None) -> Spectrum:
    """Decompose a real symmetric matrix into a :class:`Spectrum` (LAPACK).

    Eigenvalues ascend; each eigenvector's largest-magnitude component is
    made positive for determinism.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if np.linalg.norm(a - a.T) > 1e-12 * max(float(np.linalg.norm(a)), 1e-300):
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed on a {a.shape} matrix: {exc}") from exc
    w, v = _sorted_system(w, v)
    return Spectrum(eigenvalues=w, eigenvectors=v, n_max=n_max)


def _parity_chain(params: CircuitParams, n_max: int, even: bool):
    """Diagonal and off-diagonal of one parity sector's tridiagonal chain.

    In the rotated (qubit-energy) basis the sector basis vector at chain
    coordinate k pairs qubit state g (k even) or e (k odd) with Fock state
    |k> for the even sector, and the opposite qubit assignment for the odd
    sector.
    """
    k = np.arange(n_max + 1)
    qubit_sign = np.where(k % 2 == 0, -1.0, 1.0)
    if not even:
        qubit_sign = -qubit_sign
    return params.omega * k + 0.5 * params.delta * qubit_sign, params.g * np.sqrt(k[1:])


def _assemble_sector_vectors(w_sector: np.ndarray, even: bool) -> np.ndarray:
    """Lift parity-chain eigenvectors back to the full product basis."""
    size, count = w_sector.shape
    k = np.arange(size)
    qubit_sign = np.where(k % 2 == 0, 1.0, -1.0)
    if not even:
        qubit_sign = -qubit_sign
    full = np.empty((2 * size, count))
    full[:size] = _SQRT_HALF * w_sector
    full[size:] = _SQRT_HALF * qubit_sign[:, None] * w_sector
    return full


def solve(params: CircuitParams, n_max: int = DEFAULT_N_MAX) -> Spectrum:
    """Spectrum of the circuit Hamiltonian at the given truncation.

    At epsilon = 0 the two parity chains are diagonalized separately as
    tridiagonal matrices, which is faster and keeps forbidden transition
    matrix elements at the rounding floor; otherwise the full dense matrix
    is used.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if params.epsilon != 0.0:
        return eigendecompose(build_hamiltonian(params, n_max), n_max=n_max)
    sectors = []
    for even in (True, False):
        try:
            w, v = eigh_tridiagonal(*_parity_chain(params, n_max, even))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigh_tridiagonal failed on a parity chain: {exc}") from exc
        sectors.append((w, _assemble_sector_vectors(v, even)))
    w, v = _sorted_system(
        np.concatenate([w for w, _ in sectors]), np.hstack([v for _, v in sectors])
    )
    return Spectrum(eigenvalues=w, eigenvectors=v, n_max=n_max)


def parity_matrix(n_max: int) -> np.ndarray:
    """Parity operator sx (-1)^(a^dag a) in the product basis."""
    size = n_max + 1
    block = np.diag((-1.0) ** np.arange(size))
    p = np.zeros((2 * size, 2 * size))
    p[:size, size:] = block
    p[size:, :size] = block
    return p


def parity_expectation(vector: np.ndarray, n_max: int) -> float:
    """<v|P|v> for a normalized state vector."""
    size = n_max + 1
    signs = (-1.0) ** np.arange(size)
    return float(2.0 * np.sum(signs * vector[:size] * vector[size:]))


def total_parity(vector: np.ndarray, n_max: int) -> int | None:
    """Sharp parity of an eigenstate: +-1, or None when parity is not sharp.

    A None on a state that should be an epsilon = 0 eigenstate signals a
    diagonalization or gauge bug.
    """
    expectation = parity_expectation(vector, n_max)
    if abs(expectation) > 0.999:
        return 1 if expectation > 0 else -1
    return None


def _apply_quadrature(vector: np.ndarray, n_max: int) -> np.ndarray:
    """Apply I (x) (a + a^dag) to a product-basis vector."""
    size = n_max + 1
    u = vector.reshape(2, size)
    ladder = np.sqrt(np.arange(1.0, size))
    out = np.zeros_like(u)
    out[:, :-1] += ladder * u[:, 1:]
    out[:, 1:] += ladder * u[:, :-1]
    return out.ravel()


def transition_matrix_element(spec: Spectrum, k: int, l: int) -> float:
    """|<k|(a + a^dag)|l>| between eigenstates k and l."""
    if spec.n_max is None:
        raise ValueError("spectrum carries no truncation size")
    if not (0 <= k < spec.dim and 0 <= l < spec.dim):
        raise IndexError(f"state indices ({k}, {l}) out of range for dim {spec.dim}")
    return float(
        abs(spec.eigenvectors[:, k] @ _apply_quadrature(spec.eigenvectors[:, l], spec.n_max))
    )


def assign_labels(spec: Spectrum, params: CircuitParams, max_photon: int = 2) -> LabeledLevels:
    """Label eigenstates |i n> by the parity recursion.

    The two lowest states are |g0> and |e0>.  Among the (2n+2)-th and
    (2n+3)-th excited states, the one with the larger quadrature matrix
    element to |g n> is |g n+1> and the other |e n+1>; the winner must
    exceed the loser by LABEL_ELEMENT_RATIO and exceed LABEL_ELEMENT_FLOOR,
    otherwise the assignment is ambiguous and an error is raised.

    Requires epsilon = 0 and 0 < delta < omega.
    """
    if params.epsilon != 0.0:
        raise ValueError("labels are defined only at epsilon = 0")
    if not 0.0 < params.delta < params.omega:
        raise ValueError(
            f"label recursion requires 0 < delta < omega, got "
            f"delta={params.delta}, omega={params.omega}"
        )
    if spec.dim < 2 * max_photon + 2:
        raise ValueError(
            f"need at least {2 * max_photon + 2} states for labels up to "
            f"n = {max_photon}, spectrum has {spec.dim}"
        )
    indices = {("g", 0): 0, ("e", 0): 1}
    for n in range(max_photon):
        cand_a, cand_b = 2 * n + 2, 2 * n + 3
        elem_a = transition_matrix_element(spec, cand_a, indices[("g", n)])
        elem_b = transition_matrix_element(spec, cand_b, indices[("g", n)])
        a_wins = elem_a > LABEL_ELEMENT_FLOOR and elem_a > LABEL_ELEMENT_RATIO * elem_b
        b_wins = elem_b > LABEL_ELEMENT_FLOOR and elem_b > LABEL_ELEMENT_RATIO * elem_a
        if a_wins == b_wins:
            raise AmbiguousLabelError(n, elem_a, elem_b)
        g_next, e_next = (cand_a, cand_b) if a_wins else (cand_b, cand_a)
        indices[("g", n + 1)], indices[("e", n + 1)] = g_next, e_next
    return LabeledLevels(indices=indices, eigenvalues=spec.eigenvalues)


def photon_number_qubit_frequency(labels: LabeledLevels, n: int) -> float:
    """Signed qubit frequency at n photons: E(e, n) - E(g, n)."""
    return labels.energy("e", n) - labels.energy("g", n)
