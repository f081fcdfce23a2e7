"""Single-tone spectroscopy: transition maps, hanger lineshape, parameter fits.

Transmission through the feed line dips when the probe hits a transition
|k> -> |l> of the coupled circuit with a nonvanishing quadrature matrix
element.  The resonance itself follows the asymmetric notch ("hanger")
lineshape

    S21(w_p) = 1 - (Q_L/Q_e) e^(i phi) / (1 + 2i Q_L (w_p - w0)/w0),

multiplied by a smooth background polynomial of the probe frequency, and
|S21| may exceed one for some phi.  The lineshape fit takes the background's
degree and starts it flat, centred on the mean probe frequency.  Circuit
parameters (delta, omega, g) are extracted by least-squares fits of measured
transition frequencies to the diagonalized Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rabi
from .errors import IllConditionedDataError
from .levmar import least_squares_lm

MAX_BACKGROUND_DEGREE = 8
MIN_LINESHAPE_POINTS = 20
MIN_OBSERVATIONS = 6
TRANSITIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
# quadrature element at or below which a transition is invisible
ELEMENT_FLOOR = 1e-3
# bytes of Hamiltonian stack per rabi.solve_grid call in transition_map
_BLOCK_BYTES = 1 << 22


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
        if _lineshape_rejected(self.omega0, self.q_total, self.q_external, self.phi):
            raise ValueError(
                "omega0 and quality factors must be positive and finite and phi "
                f"finite, got {self}"
            )


def _lineshape_rejected(omega0, q_total, q_external, phi):
    """Where LineshapeParams rejects its fields, elementwise over stacked fields."""
    positive = (omega0 > 0) & (q_total > 0) & (q_external > 0)  # False on NaN
    finite = np.isfinite(omega0) & np.isfinite(q_total) & np.isfinite(q_external)
    return ~(positive & finite & np.isfinite(phi))


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
        coefficients = tuple(float(c) for c in self.coefficients)
        if not 1 <= len(coefficients) <= MAX_BACKGROUND_DEGREE + 1:
            raise ValueError(f"background degree must be between 0 and {MAX_BACKGROUND_DEGREE}")
        object.__setattr__(self, "coefficients", coefficients)

    def __call__(self, omega_p):
        u = np.asarray(omega_p, dtype=float) - self.center
        return np.polynomial.polynomial.polyval(u, self.coefficients)


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
    |i n> are not defined away from the symmetry point).  With U = sigma_x
    (x) (-1)^(a^dagger a), H(-epsilon) = U H(epsilon) U^dagger and U maps
    (a + a^dagger) to its negative, so the frequencies and |elements| at
    -epsilon are those at +epsilon: each distinct |epsilon| of the grid is
    solved once, and a row at -epsilon is the row of the |epsilon| solve.
    The signed grid is checked first, so an error names its first bad
    point with its sign.  The distinct |epsilon| are solved in blocks, one
    :func:`rabi.solve_grid` and one :func:`rabi.transition_matrix_elements`
    call each, whose Hamiltonian stacks stay within _BLOCK_BYTES, so
    working memory is bounded at any grid size and n_max; only the output
    arrays grow with the grid.  Values are those of :func:`rabi.solve` and
    :func:`rabi.transition_matrix_element` at |epsilon|, bit for bit.
    """
    grid = rabi._check_grid(params, epsilon_grid, n_max)
    # -0.0 folds onto +0.0 and so onto the parity path
    mags, inverse = np.unique(np.abs(grid), return_inverse=True)
    lower, upper = np.array(TRANSITIONS).T
    top = int(upper.max())
    freqs = np.empty((len(TRANSITIONS), mags.size))
    elems = np.empty((len(TRANSITIONS), mags.size))
    dim = 2 * (n_max + 1)
    rows = max(1, _BLOCK_BYTES // (8 * dim * dim))
    for start in range(0, mags.size, rows):
        block = slice(start, start + rows)
        w, v = rabi.solve_grid(params, mags[block], n_max)
        freqs[:, block] = (w[:, upper] - w[:, lower]).T
        elems[:, block] = rabi.transition_matrix_elements(v, n_max, top)[:, lower, upper].T
    freqs, elems = freqs[:, inverse], elems[:, inverse]
    return TransitionMap(
        frequencies=dict(zip(TRANSITIONS, freqs)), elements=dict(zip(TRANSITIONS, elems))
    )


def _notch(w, omega0, q_total, q_external, phi):
    """The S21 formula, broadcast over its arguments; fields are not checked."""
    depth = (q_total / q_external) * np.exp(1j * phi)
    detuning = 1.0 + 2j * q_total * (w - omega0) / omega0
    return 1.0 - depth / detuning


def s21(params: LineshapeParams, omega_p):
    """Complex transmission of the side-coupled resonator at probe frequency."""
    w = np.asarray(omega_p, dtype=float)
    if np.any(w <= 0):
        raise ValueError("probe frequency must be positive")
    return _notch(w, params.omega0, params.q_total, params.q_external, params.phi)[()]


def fit_lineshape(
    data, init: LineshapeParams, degree: int = 3
) -> tuple[LineshapeParams, BackgroundPoly, float]:
    """Fit |S21_bg * S21| to measured magnitude data.

    ``data`` is a sequence of (omega_p, |S21|) pairs, MIN_LINESHAPE_POINTS or
    more spanning the resonance, all finite and at positive probe
    frequencies.  The background polynomial of the given ``degree`` is
    fitted jointly with the lineshape (they enter multiplicatively); it
    starts flat at one and is centred on the mean probe frequency.  Returns
    the fitted lineshape, background, and RMS residual.
    """
    points = np.asarray(data, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("data must be a sequence of (omega_p, magnitude) pairs")
    if points.shape[0] < MIN_LINESHAPE_POINTS:
        raise IllConditionedDataError(
            f"need at least {MIN_LINESHAPE_POINTS} data points, got {points.shape[0]}"
        )
    if not np.all(np.isfinite(points)):
        raise ValueError("probe frequencies and magnitudes must be finite")
    w, y = points[:, 0], points[:, 1]
    if np.ptp(w) == 0:
        raise IllConditionedDataError("probe frequencies span no range")
    if np.ptp(y) < 1e-12 * max(float(np.max(np.abs(y))), 1.0):
        raise IllConditionedDataError("data show no resonance dip (flat magnitude)")
    if np.any(w <= 0):
        raise ValueError("probe frequency must be positive")
    center = float(np.mean(w))
    start = BackgroundPoly(tuple(float(k == 0) for k in range(degree + 1)), center)
    u = w - center

    def fields(x):
        return abs(x[0]), abs(x[1]), abs(x[2]), x[3]

    def residual(stack):
        # rows that LineshapeParams rejects read 1e6 unevaluated: evaluating them warns
        x = stack.T[:, :, np.newaxis]
        ok = ~_lineshape_rejected(*fields(x))[:, 0]
        out = np.full((len(stack), y.size), 1e6)
        if ok.any():
            poly = np.polynomial.polynomial.polyval(u, x[4:, ok], tensor=False)
            out[ok] = np.abs(poly * _notch(w, *fields(x[:, ok]))) - y
        return out

    x0 = np.array([init.omega0, init.q_total, init.q_external, init.phi, *start.coefficients])
    result = least_squares_lm(residual, x0)
    shape = LineshapeParams(*fields(result.x))
    return shape, BackgroundPoly(tuple(result.x[4:]), center), result.rms


def estimate_lineshape(omega_p, magnitude) -> LineshapeParams:
    """Rough lineshape parameters from magnitude data, for fit seeding.

    Takes the dip position as the resonance, the half-depth width as the
    loaded linewidth, and the relative dip depth as q_total/q_external.
    Probe frequencies that all coincide raise IllConditionedDataError.
    """
    w = np.asarray(omega_p, dtype=float)
    y = np.asarray(magnitude, dtype=float)
    if np.ptp(w) == 0:
        raise IllConditionedDataError("probe frequencies span no range")
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
    state indices; an observation whose states are not integers in
    [0, 2*(n_max+1)) or whose bias or frequency is not finite raises
    ValueError, and fewer than MIN_OBSERVATIONS observations, or fewer than
    2 distinct transitions, raise IllConditionedDataError.  Bias values are
    held fixed; delta, omega, g are scaled to order one by the initial guess
    for conditioning.  Returns the fitted
    parameters and the RMS residual; a residual far above the measurement
    scale means the observations are inconsistent with any parameter set.
    """
    levels = 2 * (n_max + 1)
    rows = []
    for i, (eps, (k, l), freq) in enumerate(observed):
        states_ok = all(float(s).is_integer() and 0 <= s < levels for s in (k, l))
        if not (states_ok and np.isfinite(eps) and np.isfinite(freq)):
            raise ValueError(
                f"observation {i} {(eps, (k, l), freq)}: states must be integers in "
                f"[0, {levels}) and bias and frequency finite"
            )
        rows.append((float(eps), (int(k), int(l)), float(freq)))
    transitions = len({pair for _, pair, _ in rows})
    if len(rows) < MIN_OBSERVATIONS or transitions < 2:
        raise IllConditionedDataError(
            f"{len(rows)} observations of {transitions} transitions; fit-params needs "
            f"at least {MIN_OBSERVATIONS} observations of 2 transitions"
        )
    scale = np.array([max(init.delta, 0.1), init.omega, max(init.g, 0.1)])
    targets = np.array([freq for _, _, freq in rows])
    stack_row = {}  # distinct bias -> its row in the solve_grid stack, in first-seen order
    at = np.array([stack_row.setdefault(eps, len(stack_row)) for eps, _, _ in rows])
    lower, upper = np.array([pair for _, pair, _ in rows]).T
    biases = list(stack_row)

    def residual(stack):
        out = np.empty((len(stack), len(rows)))
        for x, row in zip(stack, out):
            delta, omega, g = np.abs(x) * scale
            w, _ = rabi.solve_grid(rabi.CircuitParams(delta=delta, omega=omega, g=g), biases, n_max)
            row[:] = w[at, upper] - w[at, lower]
        return out - targets

    result = least_squares_lm(residual, np.array([init.delta, init.omega, init.g]) / scale)
    delta, omega, g = np.abs(result.x) * scale
    return rabi.CircuitParams(delta=float(delta), omega=float(omega), g=float(g)), result.rms

