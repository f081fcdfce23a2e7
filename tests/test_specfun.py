import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_laguerre

from rabispec import specfun


def laguerre_coefficients(n):
    """Exact rational coefficients of L_n: sum_k (-1)^k C(n,k)/k! x^k."""
    return [
        Fraction((-1) ** k) * Fraction(math.comb(n, k), math.factorial(k))
        for k in range(n + 1)
    ]


def hermite_coefficients(n):
    """Exact integer coefficients of H_n from the recurrence."""
    coeffs = {0: [Fraction(1)], 1: [Fraction(0), Fraction(2)]}
    for k in range(1, n):
        prev, cur = coeffs[k - 1], coeffs[k]
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        coeffs[k + 1] = nxt
    return coeffs[n]


def eval_exact(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_laguerre_low_order_values():
    assert specfun.laguerre(0, 3.7) == 1.0
    assert specfun.laguerre(1, 1.0) == 0.0
    # L_2(x) = (x^2 - 4x + 2)/2 evaluated exactly at the float argument
    x = Fraction(5.25126)
    exact = float((x * x - 4 * x + 2) / 2)
    assert specfun.laguerre(2, 5.25126) == pytest.approx(exact, abs=1e-12)
    # at x = 4 (g/w)^2 for the strongest-coupling circuit geometry
    assert abs(specfun.laguerre(2, 4.0 * (7.27 / 6.345) ** 2) - 4.2855) < 1e-4


def test_laguerre_matches_exact_rational_evaluation():
    for n in range(11):
        coeffs = laguerre_coefficients(n)
        for x in np.linspace(0.0, 20.0, 41):
            exact = float(eval_exact(coeffs, Fraction(float(x))))
            got = float(specfun.laguerre(n, float(x)))
            assert got == pytest.approx(exact, rel=1e-10, abs=1e-13)


def hermite_function_exact(n, u):
    """psi_n(u) from the exact rational H_n(u) and a float normalization."""
    h = float(eval_exact(hermite_coefficients(n), Fraction(u)))
    return h * math.exp(-0.5 * u * u) / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))


def test_hermite_low_order_values():
    assert specfun.hermite_function(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)
    # H_1(0.5) = 1 and H_2(1) = 2
    assert specfun.hermite_function(1, 0.5) == pytest.approx(
        math.exp(-0.125) / math.sqrt(2.0 * math.sqrt(math.pi)), rel=1e-15
    )
    assert specfun.hermite_function(2, 1.0) == pytest.approx(
        2.0 * math.exp(-0.5) / math.sqrt(8.0 * math.sqrt(math.pi)), rel=1e-15
    )


def test_hermite_matches_exact_rational_evaluation():
    for n in range(11):
        for u in np.linspace(-4.0, 4.0, 17):
            want = hermite_function_exact(n, float(u))
            got = float(specfun.hermite_function(n, float(u)))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_laguerre_against_scipy():
    for n in (0, 1, 2, 5, 8, 20, 40):
        x = np.linspace(0.0, 12.0, 25)
        got = specfun.laguerre(n, x)
        want = eval_laguerre(n, x)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_polynomials_reject_negative_order():
    with pytest.raises(ValueError):
        specfun.laguerre(-1, 0.0)
    with pytest.raises(ValueError):
        specfun.hermite_function(-2, 0.0)


def test_wavefunction_ground_state_normalized():
    u = np.linspace(-12.0, 12.0, 4001)
    psi = specfun.hermite_function(0, u)
    assert abs(np.trapezoid(psi * psi, u) - 1.0) < 1e-10


def test_wavefunction_two_photon_node_count():
    # psi_n has exactly n nodes; an even point count keeps u = 0 off the grid
    u = np.linspace(-12.0, 12.0, 4000)
    for n in range(8):
        psi = specfun.hermite_function(n, u)
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(psi))) > 1))
        assert sign_changes == n


def test_wavefunction_vanishes_at_displaced_center():
    # psi_n has the parity of n, so the odd ones vanish exactly at the
    # center of the (displaced) packet
    u = np.linspace(-3.0, 3.0, 13)
    for n in range(8):
        psi = specfun.hermite_function(n, u)
        assert np.array_equal(specfun.hermite_function(n, -u), (-1) ** n * psi)
    for n in (1, 3, 5, 99):
        assert specfun.hermite_function(n, 0.5 - 0.5) == 0.0


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_wavefunction_orthonormality(beta):
    # low orders, and the highest orders the overlap command reaches, which
    # H_n^2 / (2^n n!) would overflow
    shift = math.sqrt(2.0) * beta
    u = np.linspace(-22.0 + shift, 22.0 + shift, 8001)
    orders = (0, 1, 2, 3, 4, 5, 97, 98, 99, 100)
    funcs = [specfun.hermite_function(n, u - shift) for n in orders]
    for i in range(len(orders)):
        for j in range(len(orders)):
            overlap = np.trapezoid(funcs[i] * funcs[j], u)
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-8
