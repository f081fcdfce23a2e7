"""Command-line front end: reference tables, curves, line maps, fits.

Commands emit CSV (default), JSON, or minimal SVG; fits emit JSON only.
Exit codes: 0 success, 1 usage error, 2 computation error, with a
single-line ``error: ...`` message on stderr for any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import analytic, rabi, refdata, spectro, svgplot, twotone
from .errors import HamiltonianOverflowError, IllConditionedDataError

GHZ_FMT = "%.4f"
FLOAT_FMT = "%.10g"
SET_IDS = tuple("ABCDEFGHI")
# largest --grid-points; np.linspace allocates the whole grid before any
# command looks at it
MAX_GRID_POINTS = 10**5
# largest --max-n and --n; shift-curves costs grow as its square
MAX_PHOTONS = 100


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage problems; this tool uses 1."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value, fmt=FLOAT_FMT) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else fmt % value
    return "" if value is None else str(value)


def _write(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _render_table(args, command, header, rows, fmt=FLOAT_FMT, plot=None):
    """Write a table as ``--format`` asks; argparse offers svg only with a plot.

    ``rows`` is a 2-d float array or a list of rows.  NaN, None and "" print
    as a blank cell, ``null`` in JSON.  An array prints every other cell with
    ``fmt`` by one ``%`` over the whole table: every row shares one template
    of ``fmt`` fields, and a row holding NaN gets its own template with those
    fields left empty and their values dropped.  In a list a float prints
    with ``fmt`` and any other value with ``str``, cell by cell, since it may
    hold text, None or ints.  No header or cell holds a comma, a quote or a
    newline, so the CSV is the cells joined with "," and needs no quoting.
    ``plot`` holds the keyword arguments of :func:`svgplot.line_plot_svg`
    other than ``csv_text``, which is that CSV.
    """
    if args.format == "json":
        values = rows.tolist() if isinstance(rows, np.ndarray) else rows
        nulled = [[None if v is None or v == "" or v != v else v for v in row] for row in values]
        body = {"command": command, "columns": list(header), "rows": nulled}
        _write(json.dumps(body, indent=2) + "\n", args.out)
        return
    if isinstance(rows, np.ndarray):
        blank = np.isnan(rows)
        lines = [",".join([fmt] * rows.shape[1]) + "\n"] * rows.shape[0]
        for r in np.flatnonzero(blank.any(axis=1)).tolist():
            lines[r] = ",".join(["" if b else fmt for b in blank[r].tolist()]) + "\n"
        body = "".join(lines) % tuple(rows[~blank].tolist())
    else:
        body = "".join(",".join([_cell(v, fmt) for v in row]) + "\n" for row in rows)
    text = ",".join(header) + "\n" + body
    if args.format == "svg":
        text = svgplot.line_plot_svg(csv_text=text, **plot)
    _write(text, args.out)


# ---------------------------------------------------------------------------
# shared flags


def _add_output_flags(sp, formats=("csv", "json", "svg")):
    sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
    sp.add_argument("--format", choices=formats, default=formats[0])


def _add_param_flags(sp):
    sp.add_argument("--set", choices=SET_IDS, help="bundled parameter set")
    sp.add_argument("--delta", type=float, help="qubit splitting, GHz")
    sp.add_argument("--omega", type=float, help="oscillator frequency, GHz")
    sp.add_argument("--g", type=float, help="coupling, GHz")


def _resolve_params(args) -> rabi.CircuitParams:
    explicit = [args.delta, args.omega, args.g]
    if args.set is not None:
        if any(v is not None for v in explicit):
            raise UsageError("give either --set or explicit --delta/--omega/--g, not both")
        return refdata.reference_sets()[args.set].params
    if any(v is None for v in explicit):
        raise UsageError("need --set or all of --delta, --omega, --g")
    try:
        return rabi.CircuitParams(delta=args.delta, omega=args.omega, g=args.g)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high], unbounded above without high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _finite_float(relation: str | None = None):
    """argparse type: a finite float, also ``relation`` 0 ('>' or '>=') when given."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        in_range = relation is None or (value > 0 if relation == ">" else value >= 0)
        if not (math.isfinite(value) and in_range):
            bound = f" and {relation} 0" if relation else ""
            raise argparse.ArgumentTypeError(f"must be finite{bound}, got {text}")
        return value

    return parse


# flag types: a Fock truncation, one that holds six labelled levels, a photon number,
# a background degree, a grid size, and finite floats of any sign, >= 0 and > 0
_nmax = _int_in(1)
_nmax_labelled = _int_in(2)
_photons = _int_in(0, MAX_PHOTONS)
_degree = _int_in(0, spectro.MAX_BACKGROUND_DEGREE)
_grid_points = _int_in(2, MAX_GRID_POINTS)
_finite = _finite_float()
_nonnegative = _finite_float(">=")
_positive = _finite_float(">")


def _add_grid_flags(sp, start, stop, points):
    sp.add_argument("--grid-start", type=_finite, default=start)
    sp.add_argument("--grid-stop", type=_finite, default=stop)
    sp.add_argument("--grid-points", type=_grid_points, default=points)


NARROW_GRID = "narrow --grid-start/--grid-stop"


@contextlib.contextmanager
def _grid_overflow(args, what: str, remedy: str = NARROW_GRID):
    """Turn a float overflow in the block into a usage error naming the flags at fault."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise UsageError(f"{what} [{args.grid_start}, {args.grid_stop}]; {remedy}") from exc


LOWER_CIRCUIT = "lower --delta, --omega or --g, or --nmax"


@contextlib.contextmanager
def _hamiltonian_overflow(remedy: str = LOWER_CIRCUIT):
    """Turn rabi's overflow guard into a usage error naming the flags at fault."""
    try:
        yield
    except HamiltonianOverflowError as exc:
        raise UsageError(f"{exc}; {remedy}") from exc


def _resolve_grid(args, remedy: str = NARROW_GRID) -> np.ndarray:
    """The --grid-* flags as an array; a range symmetric about 0 is an exact mirror.

    np.linspace mirrors a symmetric range only up to rounding, and an odd
    grid's midpoint lands near, not on, 0.  Averaging it with its negated
    reverse gives grid == -grid[::-1] exactly, keeps both endpoints and puts
    the midpoint at +0.0.
    """
    if not args.grid_start < args.grid_stop:
        raise UsageError("grid start must be below grid stop")
    with _grid_overflow(args, f"{args.grid_points} grid points overflow a float on", remedy):
        grid = np.linspace(args.grid_start, args.grid_stop, args.grid_points)
        if args.grid_start == -args.grid_stop:
            grid = 0.5 * (grid - grid[::-1])
        return grid


def _read_csv_input(path, expected_header):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    except OSError as exc:
        raise UsageError(f"cannot read input file {path}: {exc}") from exc
    if not lines:
        raise UsageError(f"input file {path} is empty")
    header = lines[0].split(",")
    if header != list(expected_header):
        raise UsageError(
            f"input header must be {','.join(expected_header)!r}, got {lines[0]!r}"
        )
    body, width = lines[1:], len(header)
    # Fast path: parse the whole table at once.  A finite sum means every
    # value is finite; a sum that overflows only sends the table to the loop.
    with contextlib.suppress(ValueError):
        values = list(map(float, ",".join(body).split(",")))
        if all(ln.count(",") == width - 1 for ln in body) and math.isfinite(sum(values)):
            return [values[i : i + width] for i in range(0, len(values), width)]
    rows = []
    for ln in body:
        try:
            row = [float(v) for v in ln.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad numeric row in {path}: {ln!r}") from exc
        if len(row) != width:
            raise UsageError(f"row in {path} needs {width} values: {ln!r}")
        if not all(math.isfinite(v) for v in row):
            raise UsageError(f"non-finite value in {path}: {ln!r}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# commands


def cmd_shift_table(args):
    """Computed vs tabulated photon-number qubit frequencies for sets A-I."""
    header = ["set", "delta", "omega", "g"]
    for n in range(3):
        header += [f"d{n}_meas", f"d{n}_ref", f"d{n}_calc", f"d{n}_diff_mhz"]
    header += ["lamb_shift_ratio", "nmax"]
    rows = []
    for set_id, ref in refdata.reference_sets().items():
        p = ref.params
        try:
            spec = rabi.solve(p, args.nmax)
            labels = rabi.assign_labels(spec, p)
        except Exception as exc:
            raise RuntimeError(f"set {set_id}: {exc}") from exc
        row = [set_id, p.delta, p.omega, p.g]
        computed = [rabi.photon_number_qubit_frequency(labels, n) for n in range(3)]
        for n in range(3):
            reference = ref.calculated[n]
            diff_mhz = None if reference is None else 1e3 * (computed[n] - reference)
            row += [ref.measured[n], reference, computed[n], diff_mhz]
        row += [1.0 - computed[0] / p.delta, args.nmax]
        rows.append(row)
    _render_table(args, "shift-table", header, rows, fmt=GHZ_FMT)


def cmd_shift_curves(args):
    """Closed-form delta_n/delta curves plus the measured reference points."""
    grid = _resolve_grid(args)
    what = f"delta_n/delta up to --max-n {args.max_n} overflows on the beta grid"
    with _grid_overflow(args, what):
        curves = analytic.normalized_shift_curves(grid, args.max_n)
    header = ["kind", "set", "beta"] + [f"d{n}_over_delta" for n in range(args.max_n + 1)]
    rows = [["curve", ""] + row for row in curves.tolist()]
    points = []
    for set_id, ref in refdata.reference_sets().items():
        beta = ref.params.beta
        row = ["measured", set_id, beta]
        for n in range(args.max_n + 1):
            meas = ref.measured[n] if n < len(ref.measured) else None
            row.append(None if meas is None else meas / ref.params.delta)
            if row[-1] is not None:
                points.append((set_id, beta, row[-1]))
        rows.append(row)
    plot = {
        "title": "normalized qubit frequency vs coupling",
        "xlabel": "g/omega",
        "ylabel": "delta_n/delta",
        "series": [(f"n={n}", curves[:, 0], curves[:, n + 1]) for n in range(args.max_n + 1)],
        "points": points,
    }
    _render_table(args, "shift-curves", header, rows, plot=plot)


def cmd_spectrum(args):
    """Transition frequencies and quadrature elements vs qubit bias."""
    params = _resolve_params(args)
    grid = _resolve_grid(args)
    with _hamiltonian_overflow(f"{LOWER_CIRCUIT}, or {NARROW_GRID}"):
        tmap = spectro.transition_map(params, grid, n_max=args.nmax)
    pairs = sorted(tmap.frequencies)
    freqs = tmap.curves if args.visible_only else tmap.frequencies
    header, columns = ["epsilon_ghz"], [grid]
    for k, l in pairs:
        header += [f"f{k}{l}_ghz", f"m{k}{l}"]
        columns += [freqs[(k, l)], tmap.elements[(k, l)]]
    plot = {
        "title": "transition frequencies vs bias",
        "xlabel": "epsilon (GHz)",
        "ylabel": "frequency (GHz)",
        "series": [(f"{k}-{l}", grid, freqs[(k, l)]) for k, l in pairs],
    }
    _render_table(args, "spectrum", header, np.column_stack(columns), plot=plot)


def cmd_twotone(args):
    """Dressed-state branch frequencies vs drive frequency for one panel."""
    params = _resolve_params(args)
    explicit = args.grid_start is not None and args.grid_stop is not None
    # a bad explicit grid is a usage error before the solve
    grid = _resolve_grid(args) if explicit else None
    with _hamiltonian_overflow():
        drive = twotone.twotone_linemap(params, args.nmax, args.panel, args.rabi_bc)
    remedy = NARROW_GRID
    if grid is None:
        # default window centered on the drive resonance of the panel
        res = drive.drive_resonance
        span = max(25.0 * args.rabi_bc, 0.05 * res, 1e-3)
        if args.grid_start is None:
            args.grid_start = res - span
        if args.grid_stop is None:
            args.grid_stop = res + span
        remedy = (
            "lower --rabi-bc, which sets the default window, or give --grid-start and --grid-stop"
        )
        grid = _resolve_grid(args, remedy)
    with _grid_overflow(args, "the two-tone branches overflow on the drive grid", remedy):
        branch_lo, branch_hi = twotone.avoided_crossing_branches(drive, grid)
    header = ["omega_d_ghz", "branch_lo_ghz", "branch_hi_ghz"]
    rows = np.column_stack([grid, branch_lo, branch_hi])
    plot = {
        "title": f"two-tone branches, panel {args.panel}",
        "xlabel": "drive frequency (GHz)",
        "ylabel": "probe frequency (GHz)",
        "series": [("lower", grid, branch_lo), ("upper", grid, branch_hi)],
    }
    _render_table(args, "twotone", header, rows, plot=plot)


def cmd_overlap(args):
    """Displaced-Fock overlap integral vs coupling, both evaluation routes."""
    grid = _resolve_grid(args)
    if args.grid_start < 0:
        raise UsageError("overlap grid must start at beta >= 0")
    ref = analytic.overlap_integral(args.n, 0.0).value_quadrature
    header = ["beta", "overlap_quadrature", "overlap_closed_form", "ratio_to_zero_coupling"]
    with _grid_overflow(args, f"the {args.n}-photon overlap overflows on the beta grid"):
        res = analytic.overlap_integral(args.n, grid)
        ratio = res.value_quadrature / ref
    rows = np.column_stack([grid, res.value_quadrature, res.value_closed_form, ratio])
    plot = {
        "title": f"overlap of oppositely displaced {args.n}-photon packets",
        "xlabel": "g/omega",
        "ylabel": "overlap",
        "series": [("ratio", grid, ratio)],
    }
    _render_table(args, "overlap", header, rows, plot=plot)


def cmd_fit_s21(args):
    """Fit the notch lineshape(s) in a measured |S21| CSV file."""
    rows = _read_csv_input(args.input, ("epsilon_ghz", "omega_p_ghz", "s21_abs"))
    if not rows:
        raise UsageError(f"input file {args.input} has no data rows")
    slices: dict[float, list] = {}
    for row in rows:
        if row[1] <= 0:
            raise UsageError(f"omega_p_ghz must be positive, got row {','.join(map(_cell, row))!r}")
        slices.setdefault(row[0], []).append(row[1:])
    fits = []
    for eps in sorted(slices):
        data = np.asarray(slices[eps])
        try:
            init = spectro.estimate_lineshape(data[:, 0], data[:, 1])
            shape, poly, rms = spectro.fit_lineshape(data, init, args.degree)
        except IllConditionedDataError as exc:
            raise UsageError(f"input file {args.input} at epsilon_ghz {_cell(eps)}: {exc}") from exc
        fits.append(
            {
                "epsilon_ghz": eps,
                "omega0_ghz": shape.omega0,
                "q_total": shape.q_total,
                "q_external": shape.q_external,
                "phi_rad": shape.phi,
                "background_coefficients": list(poly.coefficients),
                "background_center_ghz": poly.center,
                "rms_residual": rms,
            }
        )
    _write(json.dumps({"command": "fit-s21", "fits": fits}, indent=2) + "\n", args.out)


def cmd_fit_params(args):
    """Fit circuit parameters to observed transition frequencies."""
    rows = _read_csv_input(
        args.input, ("epsilon_ghz", "level_from", "level_to", "freq_ghz")
    )
    levels = 2 * (args.nmax + 1)
    for row in rows:
        if not all(v.is_integer() and 0 <= v < levels for v in row[1:3]):
            raise UsageError(
                f"level indices must be integers in [0, {levels}) at --nmax {args.nmax}, "
                f"got row {','.join(map(_cell, row))!r}"
            )
    observed = [(eps, (int(k), int(l)), freq) for eps, k, l, freq in rows]
    init = rabi.CircuitParams(delta=args.init_delta, omega=args.init_omega, g=args.init_g)
    try:
        fitted, rms = spectro.fit_circuit_params(observed, init, n_max=args.nmax)
    except IllConditionedDataError as exc:
        raise UsageError(f"input file {args.input} has {exc}") from exc
    body = {
        "command": "fit-params",
        "delta_ghz": fitted.delta,
        "omega_ghz": fitted.omega,
        "g_ghz": fitted.g,
        "rms_residual_ghz": rms,
        "residual_above_threshold": bool(rms > args.residual_threshold),
        "residual_threshold_ghz": args.residual_threshold,
        "nmax": args.nmax,
    }
    _write(json.dumps(body, indent=2) + "\n", args.out)


def cmd_reconstruct(args):
    """Six level energies from the five measured transition frequencies."""
    five = twotone.FiveFrequencies(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(twotone.FiveFrequencies)}
    )
    six = twotone.reconstruct_levels(five)
    body = {
        "command": "reconstruct",
        "energies_ghz": dataclasses.asdict(six),
        "delta_0_ghz": six.delta_0,
        "delta_1_ghz": six.delta_1,
        "delta_2_ghz": six.delta_2,
        "levels_inverted_at_one_photon": bool(six.delta_1 < 0),
    }
    _write(json.dumps(body, indent=2) + "\n", args.out)


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rabispec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("shift-table", help="computed vs reference qubit frequencies")
    sp.add_argument("--nmax", type=_nmax_labelled, default=rabi.DEFAULT_N_MAX)
    _add_output_flags(sp, formats=("csv", "json"))

    sp = sub.add_parser("shift-curves", help="normalized frequency curves and points")
    sp.add_argument("--max-n", type=_photons, default=2)
    _add_grid_flags(sp, 0.0, 1.6, 81)
    _add_output_flags(sp)

    sp = sub.add_parser("spectrum", help="transition map vs qubit bias")
    _add_param_flags(sp)
    sp.add_argument("--nmax", type=_nmax, default=rabi.DEFAULT_N_MAX)
    sp.add_argument(
        "--visible-only",
        action="store_true",
        help="blank out transitions whose matrix element is below the floor",
    )
    _add_grid_flags(sp, -2.0, 2.0, 41)
    _add_output_flags(sp)

    sp = sub.add_parser("twotone", help="dressed branch map vs drive frequency")
    _add_param_flags(sp)
    sp.add_argument("--panel", choices=tuple(twotone.PANEL_TRIPLES), required=True)
    sp.add_argument("--rabi-bc", type=_nonnegative, required=True, help="drive coupling, GHz")
    sp.add_argument("--nmax", type=_nmax_labelled, default=rabi.DEFAULT_N_MAX)
    _add_grid_flags(sp, None, None, 201)
    _add_output_flags(sp)

    sp = sub.add_parser("overlap", help="displaced-Fock overlap integral vs coupling")
    sp.add_argument("--n", type=_photons, default=2, help="photon number")
    _add_grid_flags(sp, 0.0, 1.5, 31)
    _add_output_flags(sp)

    sp = sub.add_parser("fit-s21", help="fit notch lineshapes in an |S21| CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--degree", type=_degree, default=3, help="background polynomial degree")
    _add_output_flags(sp, formats=("json",))

    sp = sub.add_parser("fit-params", help="fit circuit parameters to transitions")
    sp.add_argument("--input", required=True)
    sp.add_argument("--init-delta", type=_nonnegative, required=True)
    sp.add_argument("--init-omega", type=_positive, required=True)
    sp.add_argument("--init-g", type=_nonnegative, required=True)
    sp.add_argument("--nmax", type=_nmax, default=24)
    sp.add_argument("--residual-threshold", type=_nonnegative, default=1e-3)
    _add_output_flags(sp, formats=("json",))

    sp = sub.add_parser("reconstruct", help="six level energies from five frequencies")
    for f in dataclasses.fields(twotone.FiveFrequencies):
        sp.add_argument(f"--{f.name.replace('_', '-')}", type=_positive, required=True)
    _add_output_flags(sp, formats=("json",))

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process; it holds no per-call state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help has printed its text
        return exc.code
    try:
        # looked up at call time, so a rebound cmd_* is the one that runs
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - single-line contract for any failure
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2
    return 0


def _one_line(exc) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
