"""Two-tone spectroscopy: driven three-level models and level reconstruction.

A drive near an allowed transition of a three-level system (a below the
other two, a -> c forbidden) dresses the levels and splits the probe line
into two branches.  With omega_ij = omega_j - omega_i and the drive
amplitude Omega_bc, the probe branches are

    b below c:  (w_ab + w_ac - w_d)/2 +- sqrt((w_bc - w_d)^2/4 + Omega^2)
    c below b:  (w_ab + w_ac + w_d)/2 +- sqrt((w_cb - w_d)^2/4 + Omega^2)

Far from resonance one branch is the horizontal probe line and the other a
diagonal with slope -1 (drive-photon absorption) or +1 (emission).  Five
such measured frequencies fix the six lowest circuit levels up to a common
shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import rabi

ORDERINGS = ("b_below_c", "c_below_b")
PANEL_TRIPLES = {
    "a": (("g", 0), ("g", 1), ("g", 2)),
    "b": (("e", 0), ("e", 1), ("e", 2)),
    "c": (("g", 0), ("g", 1), ("e", 1)),
}


@dataclass(frozen=True)
class ThreeLevelDrive:
    """Driven three-level system; a is the lowest level, a -> c forbidden.

    ``rabi_bc`` is the drive-induced coupling Omega_bc between b and c (the
    drive amplitude times the root photon number); the a -> c transition
    carries no drive coupling by construction.
    """

    omega_a: float
    omega_b: float
    omega_c: float
    rabi_bc: float

    def __post_init__(self):
        if not self.omega_a < min(self.omega_b, self.omega_c):
            raise ValueError("level a must lie below both b and c")
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError(f"levels and drive coupling must be finite, got {self}")
        if self.rabi_bc < 0:
            raise ValueError(f"drive coupling must be >= 0, got {self.rabi_bc}")

    @property
    def ordering(self) -> str:
        """Which of b and c lies lower, one of ORDERINGS; a tie reads 'b_below_c'."""
        return "b_below_c" if self.omega_b <= self.omega_c else "c_below_b"

    @property
    def drive_resonance(self) -> float:
        """Drive frequency at which the dressed branches pinch: |omega_bc|."""
        return abs(self.omega_c - self.omega_b)


def avoided_crossing_branches(tld: ThreeLevelDrive, omega_d):
    """Probe-branch frequencies (lower, upper) at drive frequency omega_d."""
    w_d = np.asarray(omega_d, dtype=float)
    w_ab = tld.omega_b - tld.omega_a
    w_ac = tld.omega_c - tld.omega_a
    s = 1.0 if tld.ordering == "b_below_c" else -1.0
    center = 0.5 * (w_ab + w_ac - s * w_d)
    detuning = tld.drive_resonance - w_d
    root = np.sqrt(0.25 * detuning**2 + tld.rabi_bc**2)
    return (center - root)[()], (center + root)[()]


def minimum_branch_gap(tld: ThreeLevelDrive) -> tuple[float, float]:
    """Minimum branch splitting over drive frequency: (gap, omega_d at it).

    The splitting 2 sqrt(detuning^2/4 + Omega^2) is smallest where the
    detuning vanishes, at the drive resonance, where it equals 2 Omega_bc.
    """
    res = tld.drive_resonance
    lo, hi = avoided_crossing_branches(tld, res)
    return float(hi - lo), res


@dataclass(frozen=True)
class FiveFrequencies:
    """The five measurable transition frequencies (GHz, all positive)."""

    w_g0g1: float
    w_g0g2: float
    w_e0e1: float
    w_e0e2: float
    w_g0e1: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{f.name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SixLevels:
    """Energies of the six lowest levels with E(g0) = 0 by convention."""

    g0: float
    e0: float
    g1: float
    e1: float
    g2: float
    e2: float

    @property
    def delta_0(self) -> float:
        return self.e0 - self.g0

    @property
    def delta_1(self) -> float:
        return self.e1 - self.g1

    @property
    def delta_2(self) -> float:
        return self.e2 - self.g2

    def five_frequencies(self) -> FiveFrequencies:
        """Regenerate the transition frequencies (exact inverse of the map)."""
        return FiveFrequencies(
            w_g0g1=self.g1 - self.g0,
            w_g0g2=self.g2 - self.g0,
            w_e0e1=self.e1 - self.e0,
            w_e0e2=self.e2 - self.e0,
            w_g0e1=self.e1 - self.g0,
        )


def reconstruct_levels(f: FiveFrequencies) -> SixLevels:
    """Six level energies from five transition frequencies, E(g0) = 0.

    The map is linear and exactly determined; the overall energy shift is
    not observable and is fixed by the g0 = 0 convention.
    """
    e1 = f.w_g0e1
    e0 = f.w_g0e1 - f.w_e0e1
    return SixLevels(
        g0=0.0,
        e0=e0,
        g1=f.w_g0g1,
        e1=e1,
        g2=f.w_g0g2,
        e2=e0 + f.w_e0e2,
    )


def twotone_linemap(
    params: rabi.CircuitParams, n_max: int, panel: str, rabi_bc: float
) -> ThreeLevelDrive:
    """Driven three-level model of one two-tone panel of the circuit.

    Panels select the level triple (a, b, c): 'a' probes g0 -> g1 while the
    drive scans g1 -> g2; 'b' the same on the e ladder; 'c' probes g0 -> g1
    while the drive scans between g1 and e1.  Level energies come from the
    labeled circuit spectrum; the drive amplitude is a free input.  The
    branches on a drive grid are :func:`avoided_crossing_branches` of the
    returned model.
    """
    if panel not in PANEL_TRIPLES:
        raise ValueError(f"panel must be one of {tuple(PANEL_TRIPLES)}, got {panel!r}")
    spec = rabi.solve(params, n_max)
    labels = rabi.assign_labels(spec, params, max_photon=2)
    e_a, e_b, e_c = (labels.energy(i, n) for i, n in PANEL_TRIPLES[panel])
    return ThreeLevelDrive(omega_a=e_a, omega_b=e_b, omega_c=e_c, rabi_bc=rabi_bc)
