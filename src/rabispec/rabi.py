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

Eigendecomposition uses LAPACK through numpy's ``eigh``: at epsilon = 0
in one call on the stack of the two parity chains, real symmetric
tridiagonal matrices of dimension n_max+1, which keeps the eigenvectors
exact parity states; at finite bias on the dense matrix.  The one solve
path is :func:`solve_grid`: one check of the whole bias grid, then the
matrices of the grid in one stack, in one LAPACK call, with no symmetry or
finiteness pass, since each matrix is symmetric by construction and one
scalar guard refuses entries that would overflow a float.  :func:`solve`
is its one-point row.  Matrices that callers supply go through
:func:`eigendecompose`, which checks shape, finiteness and symmetry first.
Every quadrature element comes from one kernel,
:func:`transition_matrix_elements`, which copies the columns it reads, so
no memory layout of the eigenvectors is promised.  Eigenvectors keep
LAPACK's sign; no sign convention is imposed, since every quantity read
from them (|matrix elements|, parities) is sign-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousLabelError, ConvergenceError, HamiltonianOverflowError

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
    """Dense real-symmetric Hamiltonian matrix in GHz, dimension 2*(n_max+1).

    The one-point case of the stack that :func:`solve_grid` solves, after its grid check.
    """
    return _fill_hamiltonians(params, _check_grid(params, [params.epsilon], n_max), n_max)[0]


def _fill_hamiltonians(params: CircuitParams, epsilons: np.ndarray, n_max: int) -> np.ndarray:
    """The (P, d, d) stack of Hamiltonians at the P biases ``epsilons``, filled in place.

    Each matrix holds the diagonal omega*m -+ epsilon/2, the couplings
    +-g*sqrt(m) beside it in each qubit block, and -delta/2 on the diagonals
    of the blocks that sigma_x couples.  Every other entry is +0.0.
    """
    size = n_max + 1
    dim = 2 * size
    osc = params.omega * np.arange(size)
    coupling = params.g * np.sqrt(np.arange(1.0, size))
    half_bias = 0.5 * epsilons[:, np.newaxis]
    h = np.zeros((epsilons.size, dim, dim))
    flat = h.reshape(epsilons.size, -1)  # a view: entry (p, r, c) is flat[p, r * dim + c]
    step = dim + 1  # from one entry of a diagonal to the next
    diagonal = flat[:, ::step]
    diagonal[:, :size] = osc - half_bias
    diagonal[:, size:] = osc + half_bias
    # entries (r, r+1) and (r+1, r); r = size-1 crosses the qubit blocks and stays 0
    for band in (flat[:, 1::step], flat[:, dim::step]):
        band[:, : size - 1] = coupling
        band[:, size:] = 0.0 - coupling  # at g = 0 this is +0.0, like every other zero
    flat[:, size : size * dim : step] = -0.5 * params.delta
    flat[:, size * dim :: step] = -0.5 * params.delta
    return h


def eigendecompose(matrix: np.ndarray, n_max: int | None = None) -> Spectrum:
    """Decompose a real symmetric matrix into a :class:`Spectrum` (LAPACK).

    Eigenvalues ascend; each eigenvector carries whatever sign LAPACK gave it.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if np.linalg.norm(a - a.T) > 1e-12 * max(float(np.linalg.norm(a)), 1e-300):
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    w, v = _eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v, n_max=n_max)


def _eigh(a: np.ndarray):
    """numpy's ``eigh`` of a matrix or a stack; a LAPACK failure is a ConvergenceError."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed on a {a.shape} matrix: {exc}") from exc


def solve(params: CircuitParams, n_max: int = DEFAULT_N_MAX) -> Spectrum:
    """Spectrum of the circuit Hamiltonian at the given truncation.

    The one row of :func:`solve_grid` on the grid [params.epsilon]: at
    epsilon = 0 the two parity chains, which keeps forbidden transition
    matrix elements at the rounding floor; otherwise the dense matrix.
    """
    w, v = solve_grid(params, [params.epsilon], n_max)
    return Spectrum(eigenvalues=w[0], eigenvectors=v[0], n_max=n_max)


def solve_grid(params: CircuitParams, epsilons, n_max: int = DEFAULT_N_MAX):
    """Eigenvalues (P, d) and eigenvectors (P, d, d) at each of P biases.

    Each point is ``params`` with epsilon set to the grid value (GHz); the
    epsilon of ``params`` itself is ignored.  ``[p, :, k]`` is the
    eigenvector of eigenvalue ``[p, k]``.  The grid passes
    :func:`_check_grid` before anything is solved, so an error names the
    first point that fails.  The biased points are filled into one
    (P', d, d) stack and solved in one LAPACK call; points at epsilon = 0
    (or -0.0) share one parity-chain solve.  The stack takes 8*P*d*d
    bytes: callers bound P.
    """
    eps = _check_grid(params, epsilons, n_max)
    zero = eps == 0.0
    if not zero.any():
        return _eigh(_fill_hamiltonians(params, eps, n_max))
    dim = 2 * (n_max + 1)
    w, v = np.empty((eps.size, dim)), np.empty((eps.size, dim, dim))
    w[zero], v[zero] = _solve_parity_chains(params, n_max)
    if not zero.all():
        w[~zero], v[~zero] = _eigh(_fill_hamiltonians(params, eps[~zero], n_max))
    return w, v


def _solve_parity_chains(params: CircuitParams, n_max: int):
    """Eigenvalues and eigenvectors at epsilon = 0, from the parity chains.

    In the rotated (qubit-energy) basis, even-sector chain coordinate k pairs
    qubit g (k even) or e (k odd) with Fock state |k>; the odd sector swaps g
    and e.  A chain vector c lifts to (c, sign * c)/sqrt(2), sign +1 on g.
    """
    k = np.arange(n_max + 1)
    signs = np.where(k % 2 == 0, 1.0, -1.0) * [[1.0], [-1.0]]  # (chain, k): even sector first
    chains = np.zeros((2, k.size, k.size))
    chains[:, k, k] = params.omega * k - 0.5 * params.delta * signs
    chains[:, k[1:], k[:-1]] = chains[:, k[:-1], k[1:]] = params.g * np.sqrt(k[1:])
    w, v = _eigh(chains)
    lifted = _SQRT_HALF * np.concatenate([v, signs[:, :, None] * v], axis=1)  # (chain, row, col)
    order = np.argsort(w.reshape(-1), kind="stable")
    chain, column = np.divmod(order, k.size)
    return w.reshape(-1)[order], lifted[chain, :, column].T


def _check_grid(params: CircuitParams, epsilons, n_max: int) -> np.ndarray:
    """The bias grid as a float array, once every check of a grid solve has passed.

    The grid must be a non-empty 1-d array and n_max at least 1 (ValueError).
    No entry of the dense matrix or of a parity chain then exceeds
    omega*n_max + (|epsilon| + delta)/2 or g*sqrt(n_max) in magnitude.  That
    bound grows with |epsilon|, so one test at the largest |epsilon| clears
    a whole grid.  Only when it fails are the biases walked in order: a
    HamiltonianOverflowError names the first one whose entries overflow a
    float, and a non-finite bias raises CircuitParams' ValueError.  The
    products run on Python floats, so an overflow is an inf, not a warning.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("epsilon grid must be a non-empty 1-d array")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    def entries_finite(epsilon):
        diagonal = float(params.omega) * n_max + 0.5 * (abs(epsilon) + float(params.delta))
        return math.isfinite(diagonal) and math.isfinite(float(params.g) * math.sqrt(n_max))

    if not entries_finite(float(np.max(np.abs(eps)))):
        for epsilon in eps:
            point = replace(params, epsilon=float(epsilon))
            if not entries_finite(point.epsilon):
                raise HamiltonianOverflowError(
                    f"Hamiltonian entries overflow a float at delta={point.delta}, "
                    f"omega={point.omega}, g={point.g}, epsilon={point.epsilon}, n_max={n_max}"
                )
    return eps


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


def _apply_quadrature(vectors: np.ndarray, n_max: int) -> np.ndarray:
    """Apply I (x) (a + a^dag) along the last axis of a (..., d) array."""
    size = n_max + 1
    u = vectors.reshape(vectors.shape[:-1] + (2, size))
    ladder = np.sqrt(np.arange(1.0, size))
    out = np.zeros_like(u)
    out[..., :-1] += ladder * u[..., 1:]
    out[..., 1:] += ladder * u[..., :-1]
    return out.reshape(vectors.shape)


def _check_states(n_max: int | None, dim: int, states):
    if n_max is None:
        raise ValueError("spectrum carries no truncation size")
    if min(states) < 0 or max(states) >= dim:
        raise IndexError(f"state indices {tuple(states)} out of range for dim {dim}")


def transition_matrix_element(spec: Spectrum, k: int, l: int) -> float:
    """|<k|(a + a^dag)|l>| between eigenstates k and l.

    The one-pair reference that :func:`transition_matrix_elements` matches
    bit for bit: both dot contiguous copies of the columns.
    """
    _check_states(spec.n_max, spec.dim, (k, l))
    bra, ket = spec.eigenvectors[:, k].copy(), spec.eigenvectors[:, l].copy()
    return float(abs(bra @ _apply_quadrature(ket, spec.n_max)))


def transition_matrix_elements(eigenvectors: np.ndarray, n_max: int | None, top: int):
    """|<k|(a + a^dag)|l>| for all states k, l <= top: a (..., top+1, top+1) array.

    ``eigenvectors`` holds eigenstates as columns: a :class:`Spectrum`'s
    (d, d) array or the (P, d, d) stack of :func:`solve_grid`, of any
    memory layout.  Each element is :func:`transition_matrix_element`'s,
    bit for bit: the columns of states 0..top are copied contiguous, the
    quadrature is applied to them once, and each element is the same
    contiguous dot product, taken by one broadcast ``np.vecdot``.
    """
    v = np.asarray(eigenvectors)
    _check_states(n_max, v.shape[-1], (0, top))
    states = np.swapaxes(v[..., : top + 1], -1, -2).copy()  # (..., top+1, d): row k is state k
    applied = _apply_quadrature(states, n_max)
    return np.abs(np.vecdot(states[..., :, np.newaxis, :], applied[..., np.newaxis, :, :]))


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
    elements = transition_matrix_elements(spec.eigenvectors, spec.n_max, 2 * max_photon + 1)
    indices = {("g", 0): 0, ("e", 0): 1}
    for n in range(max_photon):
        cand_a, cand_b = 2 * n + 2, 2 * n + 3
        g_n = indices[("g", n)]
        elem_a, elem_b = float(elements[cand_a, g_n]), float(elements[cand_b, g_n])
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
