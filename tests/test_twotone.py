import math

import numpy as np
import pytest

from rabispec import rabi, twotone


def _drive(ordering, rabi_bc=0.02):
    if ordering == "b_below_c":
        return twotone.ThreeLevelDrive(0.0, 5.7, 11.3, rabi_bc, ordering)
    return twotone.ThreeLevelDrive(0.0, 5.7, 5.2, rabi_bc, ordering)


def test_drive_validation():
    with pytest.raises(ValueError):
        twotone.ThreeLevelDrive(6.0, 5.7, 11.3, 0.1, "b_below_c")  # a not lowest
    with pytest.raises(ValueError):
        twotone.ThreeLevelDrive(0.0, 5.7, 11.3, -0.1, "b_below_c")
    with pytest.raises(ValueError):
        twotone.ThreeLevelDrive(0.0, 5.7, 5.2, 0.1, "b_below_c")  # wrong ordering
    with pytest.raises(ValueError):
        twotone.ThreeLevelDrive(0.0, 5.7, 11.3, 0.1, "sideways")


def test_on_resonance_splitting():
    tld = _drive("b_below_c")
    lo, hi = twotone.avoided_crossing_branches(tld, tld.drive_resonance)
    assert hi - lo == pytest.approx(2.0 * tld.rabi_bc, abs=1e-15)


def test_zero_drive_bare_lines_b_below_c():
    tld = _drive("b_below_c", rabi_bc=0.0)
    for w_d in (4.0, 5.6, 7.3):
        lo, hi = twotone.avoided_crossing_branches(tld, w_d)
        bare = {round(tld.omega_b - tld.omega_a, 12), round(tld.omega_c - tld.omega_a - w_d, 12)}
        assert {round(lo, 12), round(hi, 12)} == bare


def test_zero_drive_bare_lines_c_below_b():
    tld = _drive("c_below_b", rabi_bc=0.0)
    for w_d in (0.3, 0.5, 0.9):
        lo, hi = twotone.avoided_crossing_branches(tld, w_d)
        bare = {round(tld.omega_b - tld.omega_a, 12), round(tld.omega_c - tld.omega_a + w_d, 12)}
        assert {round(lo, 12), round(hi, 12)} == bare


def dressed_eigen(tld, omega_d, n_drive):
    """Dressed energies at drive photon number n_drive, two independent ways.

    Returns (spectator, lower, upper, block): the spectator |a, N>, the
    closed-form pair mixing |b, N> with |c, N-1> (b below c) or |c, N+1>
    (c below b), and the eigenvalues of that pair's 2x2 block.
    """
    spectator = tld.omega_a + n_drive * omega_d
    if tld.ordering == "b_below_c":
        mean = 0.5 * (tld.omega_b + tld.omega_c + (2 * n_drive - 1) * omega_d)
        detuning = (tld.omega_c - tld.omega_b) - omega_d
        e_c = tld.omega_c + (n_drive - 1) * omega_d
    else:
        mean = 0.5 * (tld.omega_b + tld.omega_c + (2 * n_drive + 1) * omega_d)
        detuning = (tld.omega_b - tld.omega_c) - omega_d
        e_c = tld.omega_c + (n_drive + 1) * omega_d
    e_b = tld.omega_b + n_drive * omega_d
    root = math.sqrt(0.25 * detuning**2 + tld.rabi_bc**2)
    half_sum = 0.5 * (e_b + e_c)
    block_root = math.sqrt(0.25 * (e_b - e_c) ** 2 + tld.rabi_bc**2)
    block = (half_sum - block_root, half_sum + block_root)
    return spectator, mean - root, mean + root, block


def test_dressed_block_identity():
    for ordering in twotone.ORDERINGS:
        tld = _drive(ordering)
        for w_d in (tld.drive_resonance, tld.drive_resonance + 0.13):
            spectator, lower, upper, block = dressed_eigen(tld, w_d, n_drive=7)
            assert block[0] == pytest.approx(lower, abs=1e-12)
            assert block[1] == pytest.approx(upper, abs=1e-12)
            assert spectator == pytest.approx(tld.omega_a + 7 * w_d, abs=1e-12)


def test_dressed_matches_branches():
    # branch frequencies are dressed energies minus the spectator
    tld = _drive("b_below_c")
    w_d = tld.drive_resonance + 0.07
    spectator, lower, upper, _ = dressed_eigen(tld, w_d, n_drive=3)
    lo, hi = twotone.avoided_crossing_branches(tld, w_d)
    assert lower - spectator == pytest.approx(lo, abs=1e-12)
    assert upper - spectator == pytest.approx(hi, abs=1e-12)


def test_dressed_degenerate_pair_without_drive():
    tld = _drive("b_below_c", rabi_bc=0.0)
    _, lower, upper, _ = dressed_eigen(tld, tld.drive_resonance, n_drive=2)
    assert upper == pytest.approx(lower, abs=1e-12)


def test_far_detuned_perturbative_tail():
    tld = _drive("b_below_c")
    detuning = 100.0 * tld.rabi_bc
    lo, hi = twotone.avoided_crossing_branches(tld, tld.drive_resonance + detuning)
    horizontal = tld.omega_b - tld.omega_a
    shift = abs(hi - horizontal)
    assert shift == pytest.approx(tld.rabi_bc**2 / detuning, rel=1e-2)


def test_branch_product_identity():
    tld = _drive("b_below_c", rabi_bc=0.035)
    lo, hi = twotone.avoided_crossing_branches(tld, tld.drive_resonance)
    w_ab = tld.omega_b - tld.omega_a
    assert (hi - w_ab) * (lo - w_ab) == pytest.approx(-tld.rabi_bc**2, rel=1e-9)


@pytest.mark.parametrize("ordering", twotone.ORDERINGS)
def test_asymptotic_slope_matches_classification(ordering):
    tld = _drive(ordering)
    # absorbing a drive photon (b below c) gives -1, emitting one gives +1
    want = -1.0 if ordering == "b_below_c" else +1.0
    w_d = tld.drive_resonance + 100.0 * tld.rabi_bc
    h = 1e-6
    lo_m, hi_m = twotone.avoided_crossing_branches(tld, w_d - h)
    lo_p, hi_p = twotone.avoided_crossing_branches(tld, w_d + h)
    # past the crossing the diagonal is the branch moving with the drive
    slope_lo = (lo_p - lo_m) / (2 * h)
    slope_hi = (hi_p - hi_m) / (2 * h)
    diagonal = slope_lo if abs(slope_lo) > abs(slope_hi) else slope_hi
    assert diagonal == pytest.approx(want, abs=1e-3)


def test_minimum_gap_closed_form():
    rng = np.random.default_rng(5)
    for ordering in twotone.ORDERINGS:
        for _ in range(5):
            base = rng.uniform(4.0, 7.0)
            split = rng.uniform(0.2, 1.0)
            omega_bc = rng.uniform(-0.8, 0.8)
            omega_b = base + max(omega_bc, 0.0) + split
            omega_c = omega_b - omega_bc
            if (ordering == "b_below_c") != (omega_b <= omega_c):
                omega_b, omega_c = omega_c, omega_b
            tld = twotone.ThreeLevelDrive(
                0.0, omega_b, omega_c, rng.uniform(0.005, 0.08), ordering
            )
            gap, at = twotone.minimum_branch_gap(tld)
            assert abs(gap - 2.0 * tld.rabi_bc) < 1e-9
            assert at == pytest.approx(tld.drive_resonance, abs=1e-6)
            grid = at + np.linspace(-50.0, 50.0, 201) * tld.rabi_bc
            lo, hi = twotone.avoided_crossing_branches(tld, grid)
            assert np.all(hi - lo >= gap)


def test_five_frequencies_validation():
    with pytest.raises(ValueError):
        twotone.FiveFrequencies(0.0, 1.0, 1.0, 1.0, 1.0)


def _exact_five(meas):
    """Five frequencies from a binary-aligned ladder so differences are exact."""
    d0, d1, d2 = meas
    g0, g1, g2 = 0.0, 1.75, 1.21875
    e0, e1, e2 = g0 + d0, g1 + d1, g2 + d2
    return twotone.FiveFrequencies(
        w_g0g1=g1 - g0, w_g0g2=g2 - g0, w_e0e1=e1 - e0, w_e0e2=e2 - e0, w_g0e1=e1 - g0
    )


def test_reconstruct_levels_exact(reference):
    meas = reference["H"].measured
    six = twotone.reconstruct_levels(_exact_five(meas))
    assert six.g0 == 0.0
    assert six.delta_0 == meas[0]
    assert six.delta_1 == meas[1]
    assert six.delta_2 == meas[2]
    assert six.delta_1 < 0  # one-photon inversion


def test_reconstruct_round_trip_bitwise(reference):
    five = _exact_five(reference["H"].measured)
    assert twotone.reconstruct_levels(five).five_frequencies() == five


def test_reconstruct_degenerate_ladder():
    w = 6.0
    six = twotone.reconstruct_levels(twotone.FiveFrequencies(w, w, w, w, w))
    assert six.delta_0 == 0.0
    assert six.delta_1 == 0.0
    assert six.delta_2 == 0.0


def test_reconstruct_detects_inversion():
    five = twotone.FiveFrequencies(
        w_g0g1=5.9, w_g0g2=11.4, w_e0e1=5.3, w_e0e2=11.2, w_g0e1=5.4
    )
    six = twotone.reconstruct_levels(five)
    assert (six.delta_1 < 0) == (five.w_g0e1 < five.w_g0g1)


def test_linemap_panel_geometry(reference):
    p = reference["H"].params
    drive = twotone.twotone_linemap(p, 40, "c", rabi_bc=0.01)
    assert drive.ordering == "c_below_b"
    # crossing pinch sits at the drive resonance |E(g1) - E(e1)|
    assert drive.drive_resonance == pytest.approx(0.514, abs=2e-3)
    gap, at = twotone.minimum_branch_gap(drive)
    assert at == pytest.approx(drive.drive_resonance, abs=1e-6)

    spec = rabi.solve(p, 40)
    labels = rabi.assign_labels(spec, p)
    panel_a = twotone.twotone_linemap(p, 40, "a", 0.02)
    assert panel_a.ordering == "b_below_c"
    w_g0g1 = labels.energy("g", 1) - labels.energy("g", 0)
    w_g0g2 = labels.energy("g", 2) - labels.energy("g", 0)
    # far-detuned: horizontal branch at the one-photon line, diagonal with slope -1
    far = panel_a.drive_resonance + 50.0
    lo, hi = twotone.avoided_crossing_branches(panel_a, far)
    assert min(abs(lo - w_g0g1), abs(hi - w_g0g1)) < 1e-3
    diag = lo if abs(lo - w_g0g1) > abs(hi - w_g0g1) else hi
    assert diag == pytest.approx(w_g0g2 - far, abs=1e-3)


def test_linemap_zero_drive_degenerates_to_bare_lines(reference):
    p = reference["H"].params
    grid = np.linspace(0.3, 0.8, 5)
    branch_lo, branch_hi = twotone.avoided_crossing_branches(
        twotone.twotone_linemap(p, 40, "c", rabi_bc=0.0), grid
    )
    spec = rabi.solve(p, 40)
    labels = rabi.assign_labels(spec, p)
    w_ab = labels.energy("g", 1) - labels.energy("g", 0)
    w_ac = labels.energy("e", 1) - labels.energy("g", 0)
    for i, w_d in enumerate(grid):
        got = {round(float(branch_lo[i]), 10), round(float(branch_hi[i]), 10)}
        assert got == {round(w_ab, 10), round(w_ac + w_d, 10)}


def test_linemap_rejects_unknown_panel(reference):
    with pytest.raises(ValueError):
        twotone.twotone_linemap(reference["H"].params, 20, "d", 0.01)
