"""Deep-strong-coupling closed forms and their comparison against numerics.

In the limit delta << omega the low eigenstates are cat-like superpositions
of oppositely displaced Fock states,

    |g n> ~ (|+> D(-beta)|n> + |-> D(+beta)|n>) / sqrt(2),
    |e n> ~ (|+> D(-beta)|n> - |-> D(+beta)|n>) / sqrt(2),

with beta = g/omega, and the photon-number-dependent qubit frequency has
the closed form  delta_n = delta * exp(-2 beta^2) * L_n(4 beta^2).  The
same quantity equals the overlap integral of the two displaced-Fock
wavefunctions, which this module also evaluates by Gauss-Hermite quadrature
so that the two routes cross-check each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConvergenceError

# Largest (2, rows, n+1) Hermite stack of one overlap block, in bytes; the
# recursion's few arrays of that size then fit in a core's L2 cache.
_BLOCK_BYTES = 1 << 17


def _displaced_overlap(n: int, beta):
    """exp(-2 beta^2) L_n(4 beta^2) for scalar or array beta, unvalidated."""
    return np.exp(-2.0 * beta * beta) * specfun.laguerre(n, 4.0 * beta * beta)


@functools.cache
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n+1)-node Gauss-Hermite nodes and weights times e^(x^2).

    Built once per photon number; the CLI caps n at ``cli.MAX_PHOTONS``, so
    it holds at most MAX_PHOTONS + 1 rules.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n + 1)
    weights = weights * np.exp(nodes * nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def delta_n_closed_form(delta: float, beta: float, n: int) -> float:
    """Closed-form qubit frequency at n photons: delta e^(-2 b^2) L_n(4 b^2)."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return delta * float(_displaced_overlap(n, beta))


@dataclass(frozen=True)
class OverlapResult:
    """Overlap of oppositely displaced n-photon wavepackets, both routes.

    ``value_quadrature`` integrates the normalized wavefunctions by an exact
    Gauss-Hermite rule; ``value_closed_form`` is exp(-2 beta^2) L_n(4 beta^2).
    The two agree to rounding (that agreement is the oracle test for the
    closed form).  Both are floats for a scalar beta and arrays of beta's
    shape for an array beta.
    """

    value_quadrature: float | np.ndarray
    value_closed_form: float | np.ndarray


def overlap_integral(n: int, beta) -> OverlapResult:
    """Overlap integral of phi_n(x, -beta) and phi_n(x, +beta), scalar or array beta.

    phi_n(x, beta) is the normalized coordinate wavefunction of D(beta)|n>,
    centered at x = beta.  With u = sqrt(2) x the two wavefunctions are psi_n(u +- sqrt(2) beta),
    and their product is exp(-u^2) times a polynomial of degree 2n, so the
    (n+1)-node Gauss-Hermite rule integrates it exactly.  The same rule
    must integrate psi_n^2 to one; a norm off by more than 1e-8 means the
    rule or the Hermite functions are broken.  That check does not depend
    on beta, so it runs once per call.

    An array beta is evaluated in blocks whose (2, rows, n+1) Hermite stacks
    stay within _BLOCK_BYTES, so working memory is bounded at any grid size
    and n; only the outputs grow with the grid.  Each value equals the
    scalar call's bit for bit: the recursion is elementwise, and
    ``np.vecdot`` takes the same dot product as the 1-d ``weights @ ...``.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    nodes, weights = _hermite_rule(n)
    centered = specfun.hermite_function(n, nodes)
    norm = float(weights @ (centered * centered))
    if abs(norm - 1.0) > 1e-8:
        raise ConvergenceError(
            f"{nodes.size}-node Gauss-Hermite rule does not normalize phi_{n}: norm {norm:.12f}"
        )
    beta = np.asarray(beta, dtype=float)
    shifts = math.sqrt(2.0) * beta.reshape(-1, 1)
    value = np.empty(beta.size)
    rows = max(1, _BLOCK_BYTES // (16 * nodes.size))
    for start in range(0, beta.size, rows):
        shift = shifts[start : start + rows]
        left, right = specfun.hermite_function(n, np.stack([nodes + shift, nodes - shift]))
        value[start : start + rows] = np.vecdot(left * right, weights)
    value = value.reshape(beta.shape)
    closed = _displaced_overlap(n, beta)
    if beta.ndim == 0:
        value, closed = float(value), float(closed)
    return OverlapResult(value_quadrature=value, value_closed_form=closed)


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

