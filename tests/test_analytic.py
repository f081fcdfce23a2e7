import math

import numpy as np
import pytest

from rabispec import analytic, rabi
from rabispec.cli import MAX_PHOTONS
from rabispec.errors import ConvergenceError


def test_closed_form_at_zero_coupling():
    for n in range(6):
        assert analytic.delta_n_closed_form(1.7, 0.0, n) == 1.7


def test_closed_form_one_photon_zero():
    # L_1(4 beta^2) vanishes at beta = 1/2
    assert analytic.delta_n_closed_form(2.0, 0.5, 1) == 0.0


def test_closed_form_strong_coupling_value():
    delta, beta = 1.68, 7.27 / 6.345
    got = analytic.delta_n_closed_form(delta, beta, 0)
    assert got == pytest.approx(delta * math.exp(-2.0 * beta**2), rel=1e-13)
    assert abs(got - 0.1216) < 1e-3  # close to the tabulated 0.122


def test_closed_form_validates():
    with pytest.raises(ValueError):
        analytic.delta_n_closed_form(0.0, 0.5, 1)
    with pytest.raises(ValueError):
        analytic.delta_n_closed_form(1.0, -0.1, 1)


def test_two_photon_zeros():
    # L_2(4 beta^2) = 0 at 4 beta^2 = 2 -+ sqrt(2); criterion 4 places the
    # zeros of the two-photon overlap at 0.383 and 0.924
    z1 = math.sqrt(2.0 - math.sqrt(2.0)) / 2.0
    z2 = math.sqrt(2.0 + math.sqrt(2.0)) / 2.0
    assert abs(z1 - 0.3827) < 1e-3
    assert abs(z2 - 0.9239) < 1e-3
    for z in (z1, z2):
        assert abs(analytic.delta_n_closed_form(1.0, z, 2)) < 1e-12
        assert abs(analytic.overlap_integral(2, z).value_quadrature) < 1e-12


def test_overlap_trivial_point():
    res = analytic.overlap_integral(0, 0.0)
    assert res.value_closed_form == 1.0
    assert res.value_quadrature == pytest.approx(1.0, abs=1e-10)


def test_overlap_quadrature_matches_closed_form():
    for n in range(MAX_PHOTONS + 1):
        res = analytic.overlap_integral(n, np.linspace(0.0, 2.0, 21))
        assert np.all(abs(res.value_quadrature - res.value_closed_form) < 1e-12), n


def test_overlap_two_photon_extrema():
    # stationary points of e^(-2b^2) L_2(4b^2) solve x^2 - 8x + 10 = 0
    # with x = 4 b^2, giving the interior minimum and maximum below
    b_min = math.sqrt(4.0 - math.sqrt(6.0)) / 2.0
    b_max = math.sqrt(4.0 + math.sqrt(6.0)) / 2.0
    grid = np.linspace(0.0, 1.6, 161)
    ratio = np.array(
        [analytic.overlap_integral(2, float(b)).value_quadrature for b in grid]
    )
    assert grid[int(np.argmin(ratio))] == pytest.approx(b_min, abs=0.01)
    interior = (grid > 1.0) & (grid < 1.6)
    assert grid[interior][int(np.argmax(ratio[interior]))] == pytest.approx(
        b_max, abs=0.01
    )
    assert b_min == pytest.approx(0.622, abs=1e-3)
    assert b_max == pytest.approx(1.27, abs=2e-3)


@pytest.mark.parametrize("n", [*range(9), 100])
@pytest.mark.parametrize("block_rows", [1, 4, None])
def test_overlap_array_is_the_scalar_loop(n, block_rows, monkeypatch):
    # None keeps the default block size; 1 and 4 rows put block edges inside
    # the 41-point grid, which holds beta = 0
    if block_rows is not None:
        monkeypatch.setattr(analytic, "_BLOCK_BYTES", 16 * (n + 1) * block_rows)
    grid = np.linspace(0.0, 2.0, 41)
    got = analytic.overlap_integral(n, grid)
    want = [analytic.overlap_integral(n, float(beta)) for beta in grid]
    assert type(want[0].value_quadrature) is float and type(want[0].value_closed_form) is float
    assert np.array_equal(got.value_quadrature, [w.value_quadrature for w in want])
    assert np.array_equal(got.value_closed_form, [w.value_closed_form for w in want])
    square = analytic.overlap_integral(n, grid[1:].reshape(5, 8))
    assert np.array_equal(square.value_quadrature.ravel(), got.value_quadrature[1:])


def test_overlap_grid_memory_is_bounded():
    import tracemalloc

    grid = np.linspace(0.0, 1.5, 100_000)
    tracemalloc.start()
    try:
        analytic.overlap_integral(MAX_PHOTONS, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # grid-sized arrays: the closed form's Laguerre recursion holds six at
    # once, beside the shift column and the quadrature output; block-sized:
    # the Hermite recursion of one block holds about seven.  An unblocked
    # (2, 100000, 101) stack alone is 162 MB.
    assert peak < 10 * grid.nbytes + 8 * analytic._BLOCK_BYTES, peak


@pytest.fixture
def fresh_rules():
    """An empty Gauss-Hermite rule cache, emptied again afterwards."""
    analytic._hermite_rule.cache_clear()
    yield
    analytic._hermite_rule.cache_clear()


def test_overlap_reports_bad_quadrature(monkeypatch, fresh_rules):
    # a rule one node short cannot integrate psi_n^2 exactly
    hermgauss = np.polynomial.hermite.hermgauss
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", lambda deg: hermgauss(deg - 1))
    with pytest.raises(ConvergenceError):
        analytic.overlap_integral(5, 2.0)
    with pytest.raises(ConvergenceError):
        analytic.overlap_integral(5, np.linspace(0.0, 2.0, 5))


def test_overlap_rule_built_once_per_order(monkeypatch, fresh_rules):
    hermgauss = np.polynomial.hermite.hermgauss
    orders = []

    def counting(deg):
        orders.append(deg)
        return hermgauss(deg)

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counting)
    first = analytic.overlap_integral(7, 0.4)
    second = analytic.overlap_integral(7, 0.9)
    # an array call spanning several blocks takes the cached rule too
    monkeypatch.setattr(analytic, "_BLOCK_BYTES", 16 * 8 * 3)
    analytic.overlap_integral(7, np.linspace(0.0, 1.0, 10))
    assert orders == [8]
    assert first != second
    nodes, weights = analytic._hermite_rule(7)
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_shift_curves_rows():
    rows = analytic.normalized_shift_curves(np.array([0.0, 0.5, 7.27 / 6.345]), 2)
    assert np.allclose(rows[0], [0.0, 1.0, 1.0, 1.0])
    assert rows[1, 2] == 0.0  # one-photon curve crosses zero at beta = 1/2
    beta = 7.27 / 6.345
    assert rows[2, 1] == pytest.approx(math.exp(-2.0 * beta**2), rel=1e-12)
    assert rows[2, 1] == pytest.approx(0.0724, abs=1e-4)


def test_numeric_vs_closed_no_coupling():
    p = rabi.CircuitParams(delta=1.2, omega=6.0, g=0.0)
    labels = rabi.assign_labels(rabi.solve(p, 20), p, max_photon=1)
    numeric = rabi.photon_number_qubit_frequency(labels, 1)
    closed = analytic.delta_n_closed_form(p.delta, p.beta, 1)
    assert numeric == pytest.approx(1.2, abs=1e-9)
    assert closed == 1.2


def test_numeric_vs_closed_set_b(reference):
    p = reference["B"].params
    labels = rabi.assign_labels(rabi.solve(p, 40), p, max_photon=1)
    numeric = rabi.photon_number_qubit_frequency(labels, 0)
    assert numeric == pytest.approx(0.229, abs=2e-3)


def test_numeric_vs_closed_differ_at_large_delta(reference):
    # delta/omega = 0.933: the asymptotic formula is visibly off the numerics
    p = reference["E"].params
    labels = rabi.assign_labels(rabi.solve(p, 40), p, max_photon=1)
    numeric = rabi.photon_number_qubit_frequency(labels, 1)
    closed = analytic.delta_n_closed_form(p.delta, p.beta, 1)
    assert numeric == pytest.approx(-1.741, abs=2e-3)
    beta = p.beta
    want_closed = p.delta * math.exp(-2 * beta**2) * (1.0 - 4.0 * beta**2)
    assert closed == pytest.approx(want_closed, rel=1e-12)
    assert abs(numeric - closed) > 0.1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sign_alternation(n):
    beta = np.linspace(1e-6, 3.0, 2000)
    values = np.array([analytic.delta_n_closed_form(1.0, float(b), n) for b in beta])
    changes = int(np.sum(np.abs(np.diff(np.sign(values))) > 1))
    assert changes == n
