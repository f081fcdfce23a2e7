"""Single-tone spectroscopy: transition maps, hanger lineshape, parameter fits.

Transmission through the feed line dips when the probe hits a transition
|k> -> |l> of the coupled circuit with a nonvanishing quadrature matrix
element.  The resonance itself follows the asymmetric notch ("hanger")
lineshape

    S21(w_p) = 1 - (Q_L/Q_e) e^(i phi) / (1 + 2i Q_L (w_p - w0)/w0),

multiplied by a smooth background polynomial of the probe frequency, and
|S21| may exceed one for some phi.  Circuit parameters (delta, omega, g)
are extracted by least-squares fits of measured transition frequencies to
the diagonalized Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rabi
from .errors import IllConditionedDataError
from .levmar import least_squares_lm

MAX_BACKGROUND_DEGREE = 8
MIN_OBSERVATIONS = 6
TRANSITIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
# quadrature element at or below which a transition is invisible
ELEMENT_FLOOR = 1e-3


@dataclass(frozen=True)
class LineshapeParams:
    """Notch resonance: frequency, total and external Q, asymmetry phase.

    q_total <= q_external is not required; the asymmetric lineshape allows
    either ordering.
    """

    omega0: float
    q_total: float
    q_external: float
    phi: float = 0.0

    def __post_init__(self):
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if self.q_total <= 0 or self.q_external <= 0:
            raise ValueError("quality factors must be positive")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")


@dataclass(frozen=True)
class BackgroundPoly:
    """Background transmission vs probe frequency, independent of bias.

    ``coefficients`` are ascending powers of (omega_p - center); fitting
    uses a centered variable because raw powers of a ~6 GHz frequency over
    a narrow window are badly collinear.
    """

    coefficients: tuple
    center: float = 0.0

    def __post_init__(self):
        if len(self.coefficients) == 0 or len(self.coefficients) - 1 > MAX_BACKGROUND_DEGREE:
            raise ValueError(f"background degree must be between 0 and {MAX_BACKGROUND_DEGREE}")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    def __call__(self, omega_p):
        u = np.asarray(omega_p, dtype=float) - self.center
        out = np.zeros_like(u)
        for c in reversed(self.coefficients):
            out = out * u + c
        return out[()]


@dataclass(frozen=True)
class TransitionMap:
    """Transition frequencies and quadrature elements on a bias grid.

    ``frequencies[(k, l)]`` holds E_l - E_k at each grid point regardless of
    visibility; ``curves`` masks (with NaN) every point whose matrix element
    is at or below ELEMENT_FLOOR, which is what a transmission measurement
    would actually show.
    """

    frequencies: dict
    elements: dict

    @property
    def curves(self) -> dict:
        masked = {}
        for pair, freq in self.frequencies.items():
            visible = self.elements[pair] > ELEMENT_FLOOR
            masked[pair] = np.where(visible, freq, np.nan)
        return masked


def transition_map(
    params: rabi.CircuitParams, epsilon_grid, n_max: int = rabi.DEFAULT_N_MAX
) -> TransitionMap:
    """Diagonalize along a bias grid and collect the TRANSITIONS frequencies.

    Each grid point is ``params`` with epsilon set to the grid value (GHz);
    the epsilon of ``params`` itself is ignored.  States are ordinal (labels
    |i n> are not defined away from the symmetry point).
    """
    grid = np.asarray(epsilon_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("epsilon grid must be a non-empty 1-d array")
    freqs = {pair: np.empty(grid.size) for pair in TRANSITIONS}
    elems = {pair: np.empty(grid.size) for pair in TRANSITIONS}
    for i, eps in enumerate(grid):
        spec = rabi.solve(replace(params, epsilon=float(eps)), n_max)
        for k, l in TRANSITIONS:
            freqs[(k, l)][i] = spec.eigenvalues[l] - spec.eigenvalues[k]
            elems[(k, l)][i] = rabi.transition_matrix_element(spec, k, l)
    return TransitionMap(frequencies=freqs, elements=elems)


def s21(params: LineshapeParams, omega_p):
    """Complex transmission of the side-coupled resonator at probe frequency."""
    w = np.asarray(omega_p, dtype=float)
    if np.any(w <= 0):
        raise ValueError("probe frequency must be positive")
    depth = (params.q_total / params.q_external) * np.exp(1j * params.phi)
    detuning = 1.0 + 2j * params.q_total * (w - params.omega0) / params.omega0
    return (1.0 - depth / detuning)[()]


def fit_lineshape(
    data,
    init: LineshapeParams,
    background: BackgroundPoly | None = None,
) -> tuple[LineshapeParams, BackgroundPoly, float]:
    """Fit |S21_bg * S21| to measured magnitude data.

    ``data`` is a sequence of (omega_p, |S21|) pairs, at least 20 points
    spanning the resonance.  The background polynomial is fitted jointly
    with the lineshape (they enter multiplicatively).  Returns the fitted
    lineshape, background, and RMS residual.
    """
    points = np.asarray(data, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("data must be a sequence of (omega_p, magnitude) pairs")
    if points.shape[0] < 20:
        raise ValueError(f"need at least 20 data points, got {points.shape[0]}")
    w, y = points[:, 0], points[:, 1]
    if np.ptp(y) < 1e-12 * max(float(np.max(np.abs(y))), 1.0):
        raise IllConditionedDataError("data show no resonance dip (flat magnitude)")
    if background is None:
        background = BackgroundPoly((1.0, 0.0, 0.0, 0.0), center=float(np.mean(w)))
    n_coef = len(background.coefficients)
    center = background.center

    def unpack(x):
        shape = LineshapeParams(
            omega0=abs(x[0]), q_total=abs(x[1]), q_external=abs(x[2]), phi=x[3]
        )
        return shape, BackgroundPoly(tuple(x[4:]), center=center)

    def residual(x):
        try:
            shape, poly = unpack(x)
        except ValueError:
            return np.full(y.size, 1e6)
        return np.abs(poly(w) * s21(shape, w)) - y

    x0 = np.concatenate(
        [[init.omega0, init.q_total, init.q_external, init.phi], background.coefficients]
    )
    result = least_squares_lm(residual, x0)
    shape, poly = unpack(result.x)
    return shape, poly, result.rms


def estimate_lineshape(omega_p, magnitude) -> LineshapeParams:
    """Rough lineshape parameters from magnitude data, for fit seeding.

    Takes the dip position as the resonance, the half-depth width as the
    loaded linewidth, and the relative dip depth as q_total/q_external.
    """
    w = np.asarray(omega_p, dtype=float)
    y = np.asarray(magnitude, dtype=float)
    dip = int(np.argmin(y))
    omega0 = float(w[dip])
    edge = max(y.size // 10, 2)
    baseline = float(np.median(np.concatenate([y[:edge], y[-edge:]])))
    depth = max(baseline - float(y[dip]), 1e-6 * max(baseline, 1.0))
    below = w[y <= baseline - 0.5 * depth]
    fwhm = float(np.ptp(below)) if below.size >= 2 else float(np.ptp(w)) / 10.0
    fwhm = max(fwhm, float(np.ptp(w)) / (10.0 * y.size))
    q_total = max(omega0 / fwhm, 1.0)
    q_external = max(q_total * baseline / depth, 1.0)
    return LineshapeParams(omega0=omega0, q_total=q_total, q_external=q_external, phi=0.0)


def fit_circuit_params(
    observed,
    init: rabi.CircuitParams,
    n_max: int = rabi.DEFAULT_N_MAX,
) -> tuple[rabi.CircuitParams, float]:
    """Fit (delta, omega, g) to observed transition frequencies.

    ``observed`` is a sequence of (epsilon, (k, l), frequency) with ordinal
    state indices; fewer than MIN_OBSERVATIONS observations, or fewer than 2
    distinct transitions, raise IllConditionedDataError.  Bias values are
    held fixed; delta, omega, g are scaled to order one by the initial guess
    for conditioning.  Returns the fitted
    parameters and the RMS residual; a residual far above the measurement
    scale means the observations are inconsistent with any parameter set.
    """
    rows = [(float(eps), (int(pair[0]), int(pair[1])), float(freq)) for eps, pair, freq in observed]
    transitions = len({pair for _, pair, _ in rows})
    if len(rows) < MIN_OBSERVATIONS or transitions < 2:
        raise IllConditionedDataError(
            f"{len(rows)} observations of {transitions} transitions; fit-params needs "
            f"at least {MIN_OBSERVATIONS} observations of 2 transitions"
        )
    scale = np.array([max(init.delta, 0.1), init.omega, max(init.g, 0.1)])
    targets = np.array([freq for _, _, freq in rows])
    by_eps = {}
    for i, (eps, pair, _) in enumerate(rows):
        by_eps.setdefault(eps, []).append((i, pair))

    def residual(x):
        delta, omega, g = np.abs(x) * scale
        out = np.empty(len(rows))
        for eps, entries in by_eps.items():
            spec = rabi.solve(
                rabi.CircuitParams(delta=delta, omega=omega, g=g, epsilon=eps), n_max
            )
            for i, (k, l) in entries:
                out[i] = spec.eigenvalues[l] - spec.eigenvalues[k]
        return out - targets

    result = least_squares_lm(residual, np.array([init.delta, init.omega, init.g]) / scale)
    delta, omega, g = np.abs(result.x) * scale
    return rabi.CircuitParams(delta=float(delta), omega=float(omega), g=float(g)), result.rms

