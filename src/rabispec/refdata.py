"""Bundled reference data: the nine circuit parameter sets A-I.

Golden tests and the CLI read expected values from the versioned CSV in
``data/`` instead of hand-copied literals.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from importlib import resources

from .rabi import CircuitParams


@dataclass(frozen=True)
class ReferenceSet:
    """One tabulated circuit: parameters plus measured/calculated shifts.

    ``measured`` and ``calculated`` are (d0, d1, d2) tuples of the qubit
    frequency at 0, 1, 2 photons; entries are None where the table has no
    value (set A has no two-photon data).
    """

    set_id: str
    params: CircuitParams
    measured: tuple
    calculated: tuple


def _parse(value: str):
    return float(value) if value != "" else None


def reference_sets() -> dict[str, ReferenceSet]:
    """All bundled parameter sets, keyed by their one-letter id.

    The CSV is parsed once per process; each call gets its own dict.
    """
    return dict(_parsed())


@functools.cache
def _parsed() -> dict[str, ReferenceSet]:
    text = resources.files("rabispec").joinpath("data/circuit_sets.csv").read_text()
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    out = {}
    for row in csv.DictReader(rows):
        set_id = row["set"]
        out[set_id] = ReferenceSet(
            set_id=set_id,
            params=CircuitParams(
                delta=float(row["delta"]), omega=float(row["omega"]), g=float(row["g"])
            ),
            measured=tuple(_parse(row[f"d{n}_meas"]) for n in range(3)),
            calculated=tuple(_parse(row[f"d{n}_calc"]) for n in range(3)),
        )
    return out
