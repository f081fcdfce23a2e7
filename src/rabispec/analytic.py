"""Deep-strong-coupling closed forms and their comparison against numerics.

In the limit delta << omega the low eigenstates are cat-like superpositions
of oppositely displaced Fock states,

    |g n> ~ (|+> D(-beta)|n> + |-> D(+beta)|n>) / sqrt(2),
    |e n> ~ (|+> D(-beta)|n> - |-> D(+beta)|n>) / sqrt(2),

with beta = g/omega, and the photon-number-dependent qubit frequency has
the closed form  delta_n = delta * exp(-2 beta^2) * L_n(4 beta^2).  The
same quantity equals the overlap integral of the two displaced-Fock
wavefunctions, which this module also evaluates by quadrature so that the
two routes cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rabi, specfun
from .errors import ConvergenceError, TruncationLeakageError

QUADRATURE_POINTS = 4001
QUADRATURE_MARGIN = 8.0
# largest norm a cat state may lose to the Fock truncation
CAT_MAX_LEAKAGE = 1e-6


def _displaced_overlap(n: int, beta):
    """exp(-2 beta^2) L_n(4 beta^2) for scalar or array beta, unvalidated."""
    return np.exp(-2.0 * beta * beta) * specfun.laguerre(n, 4.0 * beta * beta)


def delta_n_closed_form(delta: float, beta: float, n: int) -> float:
    """Closed-form qubit frequency at n photons: delta e^(-2 b^2) L_n(4 b^2)."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return delta * float(_displaced_overlap(n, beta))


def delta_2_zeros() -> tuple[float, float]:
    """The two couplings beta = g/omega where the two-photon frequency vanishes.

    L_2(4 beta^2) = 0 at 4 beta^2 = 2 -+ sqrt(2), i.e. beta ~ 0.3827, 0.9239.
    """
    return (
        math.sqrt(2.0 - math.sqrt(2.0)) / 2.0,
        math.sqrt(2.0 + math.sqrt(2.0)) / 2.0,
    )


@dataclass(frozen=True)
class OverlapResult:
    """Overlap of oppositely displaced n-photon wavepackets, both routes.

    ``value_quadrature`` integrates the normalized wavefunctions on a grid;
    ``value_closed_form`` is exp(-2 beta^2) L_n(4 beta^2).  The two agree to
    better than 1e-8 for n <= 5, beta <= 2 (that agreement is the oracle
    test for the closed form).
    """

    n: int
    beta: float
    value_quadrature: float
    value_closed_form: float


def quadrature_grid(beta: float, num_points: int = QUADRATURE_POINTS) -> np.ndarray:
    """Coordinate grid wide enough that Gaussian tails are below 1e-14."""
    half = QUADRATURE_MARGIN + abs(beta)
    return np.linspace(-half, half, num_points)


def overlap_integral(n: int, beta: float, num_points: int = QUADRATURE_POINTS) -> OverlapResult:
    """Overlap integral of phi_n(x, -beta) and phi_n(x, +beta)."""
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    x = quadrature_grid(beta, num_points)
    left = specfun.displaced_fock_wavefunction(n, -beta, x)
    right = specfun.displaced_fock_wavefunction(n, +beta, x)
    norm_left = float(np.trapezoid(left * left, x))
    norm_right = float(np.trapezoid(right * right, x))
    if abs(norm_left - 1.0) > 1e-8 or abs(norm_right - 1.0) > 1e-8:
        raise ConvergenceError(
            f"quadrature grid does not resolve phi_{n}(x, +-{beta}): "
            f"norms {norm_left:.12f}, {norm_right:.12f}"
        )
    value = float(np.trapezoid(left * right, x))
    closed = float(_displaced_overlap(n, beta))
    return OverlapResult(n=n, beta=beta, value_quadrature=value, value_closed_form=closed)


@dataclass(frozen=True)
class CatState:
    """Cat-like trial eigenstate in the truncated product basis.

    ``amplitudes`` follows the layout of :mod:`rabispec.rabi`; ``leakage``
    is the norm-squared lost to truncation before renormalization.
    """

    label: tuple[str, int]
    beta: float
    amplitudes: np.ndarray
    leakage: float


def cat_state(
    params: rabi.CircuitParams,
    label: tuple[str, int],
    n_max: int = rabi.DEFAULT_N_MAX,
) -> CatState:
    """Construct the displaced-Fock cat approximation to eigenstate |i n>.

    Valid at epsilon = 0 only.  Raises TruncationLeakageError when the
    truncated basis loses more than CAT_MAX_LEAKAGE of the norm.
    """
    kind, n = label
    if kind not in ("g", "e"):
        raise ValueError(f"label kind must be 'g' or 'e', got {kind!r}")
    if n < 0:
        raise ValueError(f"photon label must be >= 0, got {n}")
    if params.epsilon != 0.0:
        raise ValueError("cat states are defined only at epsilon = 0")
    size = n_max + 1
    beta = params.beta
    sign = 1.0 if kind == "g" else -1.0
    upper = specfun.displaced_fock_vector(n, -beta, size)
    lower = sign * specfun.displaced_fock_vector(n, +beta, size)
    amplitudes = np.concatenate([upper, lower]) / math.sqrt(2.0)
    norm_sq = float(amplitudes @ amplitudes)
    leakage = 1.0 - norm_sq
    if leakage > CAT_MAX_LEAKAGE:
        raise TruncationLeakageError(
            f"cat state ({kind}, {n}) at beta={beta:.4f} loses {leakage:.3e} "
            f"of its norm at n_max={n_max}"
        )
    return CatState(
        label=(kind, n),
        beta=beta,
        amplitudes=amplitudes / math.sqrt(norm_sq),
        leakage=leakage,
    )


def cat_state_fidelity(
    params: rabi.CircuitParams,
    label: tuple[str, int],
    n_max: int = rabi.DEFAULT_N_MAX,
) -> float:
    """Squared overlap of the cat approximation with the exact eigenstate."""
    cat = cat_state(params, label, n_max)
    spec = rabi.solve(params, n_max)
    labels = rabi.assign_labels(spec, params, max_photon=max(label[1], 1))
    exact = spec.eigenvectors[:, labels.index(*label)]
    return float(cat.amplitudes @ exact) ** 2


def normalized_shift_curves(beta_grid: np.ndarray, max_n: int = 2) -> np.ndarray:
    """Closed-form delta_n/delta curves on a beta grid.

    Returns an array of shape (len(grid), max_n + 2) whose first column is
    beta and whose remaining columns are delta_n/delta for n = 0..max_n.
    """
    beta = np.asarray(beta_grid, dtype=float)
    if beta.ndim != 1 or beta.size == 0:
        raise ValueError("beta grid must be a non-empty 1-d array")
    cols = [beta] + [_displaced_overlap(n, beta) for n in range(max_n + 1)]
    return np.column_stack(cols)

