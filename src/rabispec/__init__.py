"""Spectroscopy toolkit for qubit-oscillator circuits with very large coupling.

Submodules:

- ``specfun``: Laguerre polynomials and normalized Hermite functions
- ``rabi``:    Hamiltonian construction, LAPACK eigensolves, parity labels
- ``analytic``: closed-form frequency shifts, overlap oracle
- ``levmar``:  Levenberg-Marquardt least squares for the fits
- ``spectro``: transition maps, hanger lineshape, least-squares fits
- ``twotone``: driven three-level models and level reconstruction
- ``refdata``: bundled reference parameter sets A-I
- ``cli``:     command-line front end
"""

from .rabi import CircuitParams, LabeledLevels, Spectrum

__all__ = ["CircuitParams", "LabeledLevels", "Spectrum"]
__version__ = "0.1.0"
