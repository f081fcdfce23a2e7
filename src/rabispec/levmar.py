"""Damped least squares (Levenberg-Marquardt) with numerical Jacobians.

Small, self-contained implementation for the toolkit's fitting needs
(parameter counts of order ten, smooth models).  The model is evaluated on
a stack of parameter vectors, so a Jacobian, built by central differences
with a relative step, is one model call on 2p rows.  Damping follows the
classic Marquardt diagonal scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

MAX_ITERATIONS = 200
REL_COST_TOL = 1e-10
FD_STEP = 1e-6


@dataclass(frozen=True)
class FitResult:
    x: np.ndarray
    cost: float
    rms: float
    iterations: int
    message: str


def _numerical_jacobian(fun, x):
    """Central-difference Jacobian (m, p), C-contiguous, from one call of ``fun``.

    The stack holds the 2p rows x + h_j e_j (rows 0..p-1) and x - h_j e_j
    (rows p..2p-1).  The layout matters: ``jac.T @ jac`` sums in another
    order on an F-order array, which moves a fit's last digits.
    """
    p = x.size
    h = FD_STEP * np.maximum(np.abs(x), 1.0)
    stack = np.tile(x, (2 * p, 1))
    columns = np.arange(p)
    stack[columns, columns] += h
    stack[p + columns, columns] -= h
    r = np.asarray(fun(stack), dtype=float)
    return np.ascontiguousarray((r[:p] - r[p:]).T / (2.0 * h))


def least_squares_lm(fun, x0) -> FitResult:
    """Minimize sum(fun(x)^2) starting from x0.

    ``fun`` maps a (k, p) stack of parameter vectors to the (k, m) stack of
    their residual vectors.  Each Jacobian is one call on 2p rows; the
    initial residual and each damping trial are calls on one row.
    Convergence is declared when an accepted step changes the cost by less
    than REL_COST_TOL relative, when the gradient vanishes, or when damping
    can no longer produce a downhill step (a stall at a local minimum,
    reported in the result message rather than raised).  Exceeding MAX_ITERATIONS
    Jacobian builds raises ConvergenceError.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.size == 0:
        raise ValueError("parameter vector must be 1-d and non-empty")
    r = _one_row(fun, x)
    cost = float(r @ r)
    lam = 1e-3
    for iteration in range(1, MAX_ITERATIONS + 1):
        jac = _numerical_jacobian(fun, x)
        grad = jac.T @ r
        normal = jac.T @ jac
        if np.max(np.abs(grad)) < 1e-14 * max(cost, 1.0):
            return FitResult(x, cost, _rms(cost, r.size), iteration, "gradient vanished")
        diag = np.diag(normal).copy()
        floor = 1e-12 * max(float(diag.max()), 1.0)
        diag = np.maximum(diag, floor)
        accepted = False
        while lam < 1e14:
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_trial = x + step
            r_trial = _one_row(fun, x_trial)
            cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial < cost:
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            return FitResult(x, cost, _rms(cost, r.size), iteration, "stalled (local minimum)")
        improvement = cost - cost_trial
        x, r, cost = x_trial, r_trial, cost_trial
        lam = max(lam / 3.0, 1e-12)
        if improvement <= REL_COST_TOL * max(cost, 1e-300) or cost == 0.0:
            return FitResult(x, cost, _rms(cost, r.size), iteration, "converged")
    raise ConvergenceError(
        f"least-squares fit did not converge within {MAX_ITERATIONS} iterations "
        f"(cost {cost:.6e})"
    )


def _one_row(fun, x):
    return np.asarray(fun(x[np.newaxis]), dtype=float)[0]


def _rms(cost: float, size: int) -> float:
    return float(np.sqrt(cost / size))
