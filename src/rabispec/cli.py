"""Command-line front end: reference tables, curves, line maps, fits.

Commands emit CSV (default), JSON, or minimal SVG; fits emit JSON only.
Exit codes: 0 success, 1 usage error, 2 computation error, with a
single-line ``error: ...`` message on stderr for any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import analytic, rabi, refdata, spectro, svgplot, twotone
from .errors import IllConditionedDataError

GHZ_FMT = "%.4f"
FLOAT_FMT = "%.10g"
SET_IDS = tuple("ABCDEFGHI")
# largest --grid-points; np.linspace allocates the whole grid before any
# command looks at it
MAX_GRID_POINTS = 10**5
# largest --max-n and --n; shift-curves costs grow as its square, and the
# overlap normalization overflows a float from n = 171
MAX_PHOTONS = 100


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage problems; this tool uses 1."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value, fmt=FLOAT_FMT) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return fmt % value
    return str(value)


def _table_csv(header, rows, fmt=FLOAT_FMT) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v, fmt) for v in row])
    return out.getvalue()


def _table_json(command, header, rows, fmt=FLOAT_FMT) -> str:
    body = {
        "command": command,
        "columns": list(header),
        "rows": [[None if _fmt(v, fmt) == "" else v for v in row] for row in rows],
    }
    return json.dumps(body, indent=2) + "\n"


def _write(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _render_table(args, command, header, rows, fmt=FLOAT_FMT, plot=None):
    """Write a table as ``--format`` asks; argparse offers svg only with a plot."""
    if args.format == "csv":
        _write(_table_csv(header, rows, fmt), args.out)
    elif args.format == "json":
        _write(_table_json(command, header, rows, fmt), args.out)
    else:
        csv_text = _table_csv(header, rows, fmt)
        _write(_plot_svg(plot, header, rows, csv_text), args.out)


def _plot_svg(plot, header, rows, csv_text) -> str:
    index = {name: i for i, name in enumerate(header)}

    def column(name):
        col = index[name]
        return np.array(
            [row[col] if isinstance(row[col], (int, float)) else np.nan for row in rows],
            dtype=float,
        )

    series = [(label, column(x), column(y)) for label, x, y in plot["series"]]
    points = plot.get("points", ())
    return svgplot.line_plot_svg(
        plot["title"], plot["xlabel"], plot["ylabel"], series, points, csv_text
    )


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


# flag types: a Fock truncation, a photon number, a background degree, a
# grid size, and finite floats of any sign, >= 0 and > 0
_nmax = _int_in(1)
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


@contextlib.contextmanager
def _grid_overflow(args, what: str):
    """Turn a float overflow in the block into a usage error naming the grid flags."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise UsageError(
            f"{what} [{args.grid_start}, {args.grid_stop}]; narrow --grid-start/--grid-stop"
        ) from exc


def _resolve_grid(args) -> np.ndarray:
    if not args.grid_start < args.grid_stop:
        raise UsageError("grid start must be below grid stop")
    with _grid_overflow(args, f"{args.grid_points} grid points overflow a float on"):
        return np.linspace(args.grid_start, args.grid_stop, args.grid_points)


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
    rows = []
    for ln in lines[1:]:
        try:
            row = [float(v) for v in ln.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad numeric row in {path}: {ln!r}") from exc
        if len(row) != len(header):
            raise UsageError(f"row in {path} needs {len(header)} values: {ln!r}")
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
    rows = [["curve", ""] + list(map(float, row)) for row in curves]
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
        "series": [
            (f"n={n}", "beta", f"d{n}_over_delta") for n in range(args.max_n + 1)
        ],
        "points": points,
    }
    _render_table(args, "shift-curves", header, rows, plot=plot)


def cmd_spectrum(args):
    """Transition frequencies and quadrature elements vs qubit bias."""
    params = _resolve_params(args)
    grid = _resolve_grid(args)
    tmap = spectro.transition_map(params, grid, n_max=args.nmax)
    pairs = sorted(tmap.frequencies)
    header = ["epsilon_ghz"]
    for k, l in pairs:
        header += [f"f{k}{l}_ghz", f"m{k}{l}"]
    freqs = tmap.curves if args.visible_only else tmap.frequencies
    rows = []
    for i, eps in enumerate(grid):
        row = [float(eps)]
        for pair in pairs:
            row += [float(freqs[pair][i]), float(tmap.elements[pair][i])]
        rows.append(row)
    plot = {
        "title": "transition frequencies vs bias",
        "xlabel": "epsilon (GHz)",
        "ylabel": "frequency (GHz)",
        "series": [(f"{k}-{l}", "epsilon_ghz", f"f{k}{l}_ghz") for k, l in pairs],
    }
    _render_table(args, "spectrum", header, rows, plot=plot)


def cmd_twotone(args):
    """Dressed-state branch frequencies vs drive frequency for one panel."""
    params = _resolve_params(args)
    explicit = args.grid_start is not None and args.grid_stop is not None
    # a bad explicit grid is a usage error before the solve
    grid = _resolve_grid(args) if explicit else None
    drive = twotone.twotone_linemap(params, args.nmax, args.panel, args.rabi_bc)
    if grid is None:
        # default window centered on the drive resonance of the panel
        res = drive.drive_resonance
        span = max(25.0 * args.rabi_bc, 0.05 * res, 1e-3)
        if args.grid_start is None:
            args.grid_start = res - span
        if args.grid_stop is None:
            args.grid_stop = res + span
        grid = _resolve_grid(args)
    with _grid_overflow(args, "the two-tone branches overflow on the drive grid"):
        branch_lo, branch_hi = twotone.avoided_crossing_branches(drive, grid)
    header = ["omega_d_ghz", "branch_lo_ghz", "branch_hi_ghz"]
    rows = [[float(w), float(lo), float(hi)] for w, lo, hi in zip(grid, branch_lo, branch_hi)]
    plot = {
        "title": f"two-tone branches, panel {args.panel}",
        "xlabel": "drive frequency (GHz)",
        "ylabel": "probe frequency (GHz)",
        "series": [
            ("lower", "omega_d_ghz", "branch_lo_ghz"),
            ("upper", "omega_d_ghz", "branch_hi_ghz"),
        ],
    }
    _render_table(args, "twotone", header, rows, plot=plot)


def cmd_overlap(args):
    """Displaced-Fock overlap integral vs coupling, both evaluation routes."""
    grid = _resolve_grid(args)
    if args.grid_start < 0:
        raise UsageError("overlap grid must start at beta >= 0")
    ref = analytic.overlap_integral(args.n, 0.0).value_quadrature
    header = ["beta", "overlap_quadrature", "overlap_closed_form", "ratio_to_zero_coupling"]
    rows = []
    for beta in grid:
        res = analytic.overlap_integral(args.n, float(beta))
        rows.append(
            [float(beta), res.value_quadrature, res.value_closed_form, res.value_quadrature / ref]
        )
    plot = {
        "title": f"overlap of oppositely displaced {args.n}-photon packets",
        "xlabel": "g/omega",
        "ylabel": "overlap",
        "series": [("ratio", "beta", "ratio_to_zero_coupling")],
    }
    _render_table(args, "overlap", header, rows, plot=plot)


def cmd_fit_s21(args):
    """Fit the notch lineshape(s) in a measured |S21| CSV file."""
    rows = _read_csv_input(args.input, ("epsilon_ghz", "omega_p_ghz", "s21_abs"))
    slices: dict[float, list] = {}
    for eps, omega_p, mag in rows:
        slices.setdefault(eps, []).append((omega_p, mag))
    fits = []
    for eps in sorted(slices):
        data = np.asarray(slices[eps])
        init = spectro.estimate_lineshape(data[:, 0], data[:, 1])
        background = spectro.BackgroundPoly(
            (1.0,) + (0.0,) * args.degree, center=float(np.mean(data[:, 0]))
        )
        shape, poly, rms = spectro.fit_lineshape(data, init, background)
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
                f"got row {','.join(map(_fmt, row))!r}"
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
    sp.add_argument("--nmax", type=_nmax, default=rabi.DEFAULT_N_MAX)
    _add_output_flags(sp, formats=("csv", "json"))
    sp.set_defaults(func=cmd_shift_table)

    sp = sub.add_parser("shift-curves", help="normalized frequency curves and points")
    sp.add_argument("--max-n", type=_photons, default=2)
    _add_grid_flags(sp, 0.0, 1.6, 81)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_shift_curves)

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
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("twotone", help="dressed branch map vs drive frequency")
    _add_param_flags(sp)
    sp.add_argument("--panel", choices=tuple(twotone.PANEL_TRIPLES), required=True)
    sp.add_argument("--rabi-bc", type=_nonnegative, required=True, help="drive coupling, GHz")
    sp.add_argument("--nmax", type=_nmax, default=rabi.DEFAULT_N_MAX)
    _add_grid_flags(sp, None, None, 201)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_twotone)

    sp = sub.add_parser("overlap", help="displaced-Fock overlap integral vs coupling")
    sp.add_argument("--n", type=_photons, default=2, help="photon number")
    _add_grid_flags(sp, 0.0, 1.5, 31)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_overlap)

    sp = sub.add_parser("fit-s21", help="fit notch lineshapes in an |S21| CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--degree", type=_degree, default=3, help="background polynomial degree")
    _add_output_flags(sp, formats=("json",))
    sp.set_defaults(func=cmd_fit_s21)

    sp = sub.add_parser("fit-params", help="fit circuit parameters to transitions")
    sp.add_argument("--input", required=True)
    sp.add_argument("--init-delta", type=_nonnegative, required=True)
    sp.add_argument("--init-omega", type=_positive, required=True)
    sp.add_argument("--init-g", type=_nonnegative, required=True)
    sp.add_argument("--nmax", type=_nmax, default=24)
    sp.add_argument("--residual-threshold", type=_nonnegative, default=1e-3)
    _add_output_flags(sp, formats=("json",))
    sp.set_defaults(func=cmd_fit_params)

    sp = sub.add_parser("reconstruct", help="six level energies from five frequencies")
    for f in dataclasses.fields(twotone.FiveFrequencies):
        sp.add_argument(f"--{f.name.replace('_', '-')}", type=_positive, required=True)
    _add_output_flags(sp, formats=("json",))
    sp.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return 1
    try:
        args.func(args)
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
