"""Special functions: Laguerre polynomials and normalized Hermite functions.

Conventions used throughout the toolkit:

- Laguerre polynomials follow ``L_0 = 1, L_1 = 1 - x`` and are evaluated by
  their three-term recurrence, which is numerically stable for the orders
  needed here (n up to a few tens).
- Hermite functions are the normalized oscillator eigenfunctions
  ``psi_n(u) = H_n(u) exp(-u^2/2) / sqrt(2^n n! sqrt(pi))`` of the physicists'
  Hermite polynomials ``H_0 = 1, H_1 = 2u``, so that the squares of
  ``psi_n`` integrate to one over u.  In the oscillator coordinate
  ``x = (a + a^dag)/2`` used by the toolkit, ``u = sqrt(2) x``.
"""

from __future__ import annotations

import math

import numpy as np


def laguerre(n: int, x):
    """Evaluate the Laguerre polynomial L_n(x).

    Accepts a scalar or ndarray argument; returns the same shape.
    """
    if n < 0:
        raise ValueError(f"polynomial order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev[()]
    p = 1.0 - x
    for k in range(1, n):
        p, p_prev = ((2 * k + 1 - x) * p - k * p_prev) / (k + 1), p
    return p[()]


def hermite_function(n: int, u):
    """Evaluate the normalized Hermite function psi_n(u).

    Runs the recurrence of the psi_k themselves, starting from
    ``psi_0 = pi^(-1/4) exp(-u^2/2)``, so neither H_n nor the normalization
    sqrt(2^n n!) is ever formed and nothing overflows for n in the hundreds.
    """
    if n < 0:
        raise ValueError(f"function order must be >= 0, got {n}")
    u = np.asarray(u, dtype=float)
    psi_prev = np.zeros_like(u)
    psi = math.pi**-0.25 * np.exp(-0.5 * u * u)
    for k in range(n):
        psi, psi_prev = (
            math.sqrt(2.0 / (k + 1)) * u * psi - math.sqrt(k / (k + 1)) * psi_prev,
            psi,
        )
    return psi[()]
