import argparse
import contextlib
import csv
import io
import json
import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rabispec import cli, refdata, spectro, svgplot
from rabispec.cli import MAX_GRID_POINTS, MAX_PHOTONS, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def test_shift_table_values(capsys):
    code, out, err = run_cli(["shift-table"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    table = {row[0]: dict(zip(header, row)) for row in rows}
    assert len(table) == 9
    assert float(table["C"]["d1_calc"]) == pytest.approx(-0.410, abs=2e-3)
    assert float(table["I"]["d0_calc"]) == pytest.approx(0.099, abs=2e-3)
    assert float(table["I"]["lamb_shift_ratio"]) == pytest.approx(0.938, abs=1e-3)
    # the two-photon frequency of set D lands near (but measurably off) the
    # tabulated 0.624; the measured 0.56 sits in its own column
    assert float(table["D"]["d2_calc"]) == pytest.approx(0.6264, abs=5e-4)
    assert float(table["D"]["d2_meas"]) == pytest.approx(0.56)
    assert float(table["D"]["d2_ref"]) == pytest.approx(0.624)
    assert table["A"]["d2_ref"] == ""


def test_shift_table_json(capsys):
    code, out, _ = run_cli(["shift-table", "--format", "json"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["command"] == "shift-table"
    assert len(body["rows"]) == 9
    table = {row[0]: dict(zip(body["columns"], row)) for row in body["rows"]}
    assert all(type(row["nmax"]) is int and row["nmax"] == 40 for row in table.values())
    assert table["A"]["d2_ref"] is None
    code, out, _ = run_cli(["shift-table"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert {row[header.index("nmax")] for row in rows} == {"40"}


TABLE_CALLS = (
    ["shift-table"],
    ["shift-curves", "--max-n", "5", "--grid-points", "9"],
    ["spectrum", "--set", "A", "--visible-only", "--grid-start", "-0.5", "--grid-stop", "0.5",
     "--grid-points", "5"],
    ["twotone", "--set", "H", "--panel", "c", "--rabi-bc", "0.01", "--grid-points", "9"],
    ["overlap", "--n", "7", "--grid-points", "9"],
)


@pytest.mark.parametrize("argv", TABLE_CALLS, ids=lambda argv: argv[0])
def test_table_cells_need_no_csv_quoting(argv, capsys):
    # the CSV is written by joining cells with ","; that is only valid CSV
    # while no header or cell holds a comma, a quote or a newline
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert list(csv.reader(lines)) == [line.split(",") for line in lines]
    assert len({len(line.split(",")) for line in lines}) == 1
    assert '"' not in out and "\r" not in out


def test_json_null_exactly_where_csv_blank(capsys):
    argv = TABLE_CALLS[2]
    _, out, _ = run_cli(argv, capsys)
    header, rows = parse_csv(out)
    _, out, _ = run_cli(argv + ["--format", "json"], capsys)
    body = json.loads(out)
    assert body["columns"] == header
    blank = [[cell == "" for cell in row] for row in rows]
    null = [[value is None for value in row] for row in body["rows"]]
    assert null == blank
    assert any(map(any, blank))  # parity-forbidden lines at epsilon = 0


def test_shift_curves_json_nulls(capsys):
    code, out, _ = run_cli(["shift-curves", "--grid-points", "5", "--format", "json"], capsys)
    assert code == 0
    body = json.loads(out)
    rows = [dict(zip(body["columns"], row)) for row in body["rows"]]
    curves = [row for row in rows if row["kind"] == "curve"]
    assert len(curves) == 5 and all(row["set"] is None for row in curves)
    measured = {row["set"]: row for row in rows if row["kind"] == "measured"}
    assert measured["A"]["d2_over_delta"] is None
    assert measured["B"]["d2_over_delta"] is not None


def _per_cell_table(form, command, header, rows, fmt, plot):
    """The table as the per-cell rules print it: the reference for _render_table."""

    def cell(value):
        if isinstance(value, float):
            return "" if math.isnan(value) else fmt % value
        return "" if value is None else str(value)

    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    cells = [[cell(v) for v in row] for row in rows]
    if form == "json":
        nulled = [[v if c else None for v, c in zip(row, texts)] for row, texts in zip(rows, cells)]
        body = {"command": command, "columns": list(header), "rows": nulled}
        return json.dumps(body, indent=2) + "\n"
    text = "".join(",".join(line) + "\n" for line in [header, *cells])
    return svgplot.line_plot_svg(csv_text=text, **plot) if form == "svg" else text


EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308)
TABLE_FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
TABLE_CELLS = st.one_of(
    TABLE_FLOATS, st.none(), st.just(""), st.text("abcAB_-", max_size=4), st.integers(-10**6, 10**6)
)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 6))
    if draw(st.booleans()):
        shape = (draw(st.integers(0, 8)), width)
        return draw(hnp.arrays(np.float64, shape, elements=TABLE_FLOATS))
    row = st.lists(TABLE_CELLS, min_size=width, max_size=width)
    return draw(st.lists(row, max_size=8))


@settings(max_examples=400, deadline=None)
@given(rows=_tables(), fmt=st.sampled_from([cli.FLOAT_FMT, cli.GHZ_FMT]),
       form=st.sampled_from(["csv", "json", "svg"]))
@example(rows=np.array([[math.nan, -0.0, 5e-324], [1e308, math.nan, math.nan]]),
         fmt=cli.GHZ_FMT, form="csv")
def test_render_table_matches_per_cell_rules(rows, fmt, form):
    width = rows.shape[1] if isinstance(rows, np.ndarray) else len(rows[0]) if rows else 1
    header = [f"c{j}" for j in range(width)]
    plot = {"title": "t", "xlabel": "x", "ylabel": "y", "series": [("s", [0.0, 1.0], [2.0, 3.0])]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._render_table(argparse.Namespace(format=form, out="-"), "table", header, rows, fmt, plot)
    assert out.getvalue() == _per_cell_table(form, "table", header, rows, fmt, plot)


def test_byte_identical_reruns(capsys):
    for args in (
        ["shift-curves", "--grid-points", "17"],
        ["spectrum", "--set", "B", "--grid-points", "5", "--format", "json"],
        # a 100-photon packet reaches far beyond a fixed quadrature window
        ["overlap", "--n", "100", "--grid-points", "7"],
    ):
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0, args
        assert out1 == out2


@pytest.mark.parametrize("argv", [["--help"], ["overlap", "--help"]])
def test_help_returns_zero(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out.startswith(" ".join(["usage: rabispec"] + argv[:-1]))
    assert err == ""


def test_usage_errors_exit_one(tmp_path, capsys):
    few = tmp_path / "few.csv"
    few.write_text("epsilon_ghz,level_from,level_to,freq_ghz\n0.0,0,1,1.2\n0.3,0,2,1.5\n")
    fit_params = ["fit-params", "--init-omega", "6", "--init-g", "1"]
    reconstruct = ["reconstruct", "--w-g0g2", "1.2", "--w-e0e1", "1.1", "--w-e0e2", "1.6",
                   "--w-g0e1", "1.2"]
    for argv, named in (
        (["bogus-command"], "bogus-command"),
        (["spectrum", "--set", "Z"], "--set"),
        (["spectrum"], "--set"),  # no parameters given
        (["overlap", "--grid-points", "1"], "grid"),
        (fit_params + ["--input", "/nonexistent.csv", "--init-delta", "1"], "/nonexistent.csv"),
        (["shift-table", "--format", "svg"], "--format"),  # table has no plot form
        (["fit-s21", "--input", "/nonexistent.csv", "--degree", "-1"], "--degree"),
        (["fit-s21", "--input", "/nonexistent.csv", "--degree", "9"], "--degree"),
        (["shift-curves", "--max-n", "-1"], "--max-n"),
        (["overlap", "--n", "-1"], "--n"),
        (["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "-0.01"], "--rabi-bc"),
        (fit_params + ["--input", str(few), "--init-delta", "-1"], "--init-delta"),
        (fit_params + ["--input", str(few), "--init-delta", "1"], str(few)),
        (fit_params + ["--input", str(few), "--init-delta", "1", "--residual-threshold", "nan"],
         "--residual-threshold"),
        (fit_params + ["--input", str(few), "--init-delta", "1", "--residual-threshold", "-1"],
         "--residual-threshold"),
        (["spectrum", "--set", "A", "--grid-stop", "inf"], "--grid-stop"),
        (["overlap", "--grid-start", "nan"], "--grid-start"),
        (["shift-curves", "--grid-points", str(MAX_GRID_POINTS + 1)], "--grid-points"),
        (["shift-curves", "--grid-start=-1e308", "--grid-stop", "1e308"], "--grid-start"),
        (["shift-curves", "--grid-stop", "1e100"], "--grid-stop"),  # delta_n/delta overflows
        (["shift-curves", "--grid-stop", "1.7976931348623157e308", "--grid-points", "19"],
         "--grid-stop"),  # np.linspace overflows
        (["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02", "--grid-start", "0",
          "--grid-stop", "1e200", "--grid-points", "3"], "--grid-stop"),  # branches overflow
        (reconstruct + ["--w-g0g1", "-1"], "--w-g0g1"),
        (reconstruct + ["--w-g0g1", "nan"], "--w-g0g1"),
        (["shift-curves", "--max-n", str(MAX_PHOTONS + 1)], "--max-n"),
        (["overlap", "--n", str(MAX_PHOTONS + 1)], "--n"),
        (["overlap", "--grid-stop", "1e300", "--grid-points", "3"], "--grid-stop"),
        # the default drive window is 25 x --rabi-bc wide, so no grid flag is at fault
        (["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "1e300"], "--rabi-bc"),
        # six labelled levels need n_max >= 2
        (["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02", "--nmax", "1"],
         "--nmax"),
        (["shift-table", "--nmax", "1"], "--nmax"),
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert err.startswith("error: usage:")
        assert named in err, argv
        assert err.count("\n") == 1


def test_parser_built_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    twotone = ["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02", "--grid-points", "5"]
    calls = (
        twotone,  # default window: the command fills in the namespace's grid flags
        ["spectrum", "--set", "Z"],
        twotone + ["--grid-start", "1.6"],
        twotone,
    )
    results = [run_cli(argv, capsys) for argv in calls]
    assert len(built) == 1
    assert [code for code, _, _ in results] == [0, 1, 0, 0]
    assert results[3] == results[0]
    for argv, result in zip(calls, results):
        cli._parser.cache_clear()
        assert run_cli(argv, capsys) == result, argv


def test_commands_looked_up_at_call_time(monkeypatch, capsys):
    argv = ["overlap", "--n", "1", "--grid-points", "3"]
    expected = run_cli(argv, capsys)  # the parser is built by now
    seen = []
    overlap = cli.cmd_overlap

    def recording(args):
        seen.append(args.n)
        return overlap(args)

    monkeypatch.setattr(cli, "cmd_overlap", recording)
    assert run_cli(argv, capsys) == expected
    assert seen == [1]


def test_reference_table_survives_caller_mutation():
    table = refdata.reference_sets()
    del table["A"]
    table["B"] = None
    again = refdata.reference_sets()
    assert list(again) == list("ABCDEFGHI")
    assert again["B"].set_id == "B"
    assert again is not table


SHIFT_CURVES = ("shift-curves",)
TWOTONE = ("twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02")


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from([SHIFT_CURVES, TWOTONE]),
    start=st.floats(),
    stop=st.floats(),
    points=st.one_of(st.integers(-3, 40), st.integers(MAX_GRID_POINTS + 1, 10**12)),
)
@example(command=SHIFT_CURVES, start=0.0, stop=1.7976931348623157e308, points=19)
@example(command=TWOTONE, start=0.0, stop=1e200, points=3)
def test_grid_flags_never_crash(command, start, stop, points):
    # nan and +-inf are drawn; a grid above the cap must be refused unbuilt
    argv = [*command, f"--grid-start={start!r}", f"--grid-stop={stop!r}",
            f"--grid-points={points}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # outside pytest a warning is printed to stderr
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
    assert not caught, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    points=st.integers(2, 2001),
)
@example(a=0.103, points=11)
@example(a=5e-324, points=3)
@example(a=1e300, points=3)
@example(a=8.98846567431158e307, points=7)
def test_symmetric_grid_is_an_exact_mirror(a, points):
    args = argparse.Namespace(grid_start=-a, grid_stop=a, grid_points=points)
    if not math.isfinite(2 * a):
        with pytest.raises(cli.UsageError, match="overflow"):
            cli._resolve_grid(args)
        return
    grid = cli._resolve_grid(args)
    assert grid.size == points
    assert np.array_equal(grid, -grid[::-1])
    assert (grid[0], grid[-1]) == (-a, a)
    assert np.all(np.diff(grid) >= 0)
    if points % 2:
        middle = grid[points // 2]
        assert middle == 0.0 and math.copysign(1.0, middle) == 1.0


def test_symmetric_spectrum_midpoint_is_the_parity_point(capsys):
    # np.linspace put this midpoint at 1.39e-17, whose dense solve printed
    # m03 = 2.16e-15 and mirrored rows that differed in m03's last digit
    code, out, err = run_cli(
        ["spectrum", "--set", "A", "--grid-start", "-0.103", "--grid-stop", "0.103",
         "--grid-points", "11"],
        capsys,
    )
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    middle = rows[5]
    assert middle[0] == "0"
    assert float(middle[header.index("m03")]) < 1e-15
    for i in range(5):
        assert rows[i][0] == "-" + rows[10 - i][0]
        assert rows[i][1:] == rows[10 - i][1:]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--delta", "1", "--omega", "1e307", "--g", "1", "--grid-points", "3"],
        ["spectrum", "--delta", "1", "--omega", "1", "--g", "1e308", "--grid-points", "3"],
        ["twotone", "--delta", "1", "--omega", "1e307", "--g", "1", "--panel", "a",
         "--rabi-bc", "0.01"],
    ],
)
def test_hamiltonian_overflow_is_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code == 1
    assert out.getvalue() == ""
    message = err.getvalue()
    assert message.startswith("error: usage: Hamiltonian entries overflow")
    assert message.count("\n") == 1
    for flag in ("--omega", "--g", "--nmax"):
        assert flag in message
    assert ("--grid-start" in message) == (argv[0] == "spectrum")


def test_nmax_below_one_is_usage_error(tmp_path, capsys):
    data = tmp_path / "transitions.csv"
    data.write_text("epsilon_ghz,level_from,level_to,freq_ghz\n0.0,0,1,1.2\n")
    for argv, floor in (
        (["shift-table"], 2),
        (["spectrum", "--set", "A"], 1),
        (["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02"], 2),
        (["fit-params", "--input", str(data), "--init-delta", "1", "--init-omega", "6",
          "--init-g", "1"], 1),
    ):
        code, out, err = run_cli(argv + ["--nmax", "0"], capsys)
        assert code == 1, argv
        assert out == ""
        assert err == f"error: usage: argument --nmax: must be >= {floor}, got 0\n"


def test_fit_inputs_reject_malformed_rows(tmp_path, capsys):
    transitions = tmp_path / "transitions.csv"
    transitions.write_text(
        "epsilon_ghz,level_from,level_to,freq_ghz\n0.0,0,1,1.2\n0.3,0,1,nan\n"
    )
    s21 = tmp_path / "s21.csv"
    s21.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n0.0,6.0,0.9\n0.0,6.1,inf\n")
    short = tmp_path / "short.csv"
    short.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n0.0,6.0,0.9\n0.0,6.1\n")
    # several bad rows of different kinds: the first one is named
    nan_then_short = tmp_path / "nan_then_short.csv"
    nan_then_short.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n0.0,6.0,nan\n0.0,6.1\n")
    short_then_inf = tmp_path / "short_then_inf.csv"
    short_then_inf.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n0.0,6.0\n0.0,6.1,inf\n")
    inf_then_word = tmp_path / "inf_then_word.csv"
    inf_then_word.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n0.0,inf,0.9\n0.0,6.1,x\n")
    for argv, message, row in (
        (["fit-params", "--input", str(transitions), "--init-delta", "1",
          "--init-omega", "6", "--init-g", "1"], "non-finite value", "0.3,0,1,nan"),
        (["fit-s21", "--input", str(s21)], "non-finite value", "0.0,6.1,inf"),
        (["fit-s21", "--input", str(short)], "row in", "0.0,6.1"),
        (["fit-s21", "--input", str(nan_then_short)], "non-finite value", "0.0,6.0,nan"),
        (["fit-s21", "--input", str(short_then_inf)], "row in", "0.0,6.0"),
        (["fit-s21", "--input", str(inf_then_word)], "non-finite value", "0.0,inf,0.9"),
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert err.startswith(f"error: usage: {message}")
        assert err.rstrip().endswith(repr(row))


def test_fit_s21_rejects_unfittable_input(tmp_path, capsys):
    header = "epsilon_ghz,omega_p_ghz,s21_abs\n"

    def write(name, w, y):
        path = tmp_path / name
        path.write_text(header + "".join(f"0.25,{wi!r},{yi!r}\n" for wi, yi in zip(w, y)))
        return str(path)

    dip = [0.9] * 40
    dip[20] = 0.8
    grid = np.linspace(6.0, 6.1, 40).tolist()
    for path, message in (
        (write("header.csv", [], []), "has no data rows"),
        (write("five.csv", grid[:5], dip[:5]), "at epsilon_ghz 0.25: need at least 20 data"),
        (write("flat.csv", grid, [0.9] * 40), "at epsilon_ghz 0.25: data show no resonance dip"),
        (write("equal.csv", [6.0] * 40, dip), "at epsilon_ghz 0.25: probe frequencies span"),
        (write("negative.csv", np.linspace(-0.1, 0.1, 40).tolist(), dip), "'0.25,-0.1,0.9'"),
    ):
        code, out, err = run_cli(["fit-s21", "--input", path], capsys)
        assert code == 1, path
        assert out == ""
        assert err.startswith("error: usage:") and err.count("\n") == 1
        assert message in err, err
        if "negative" not in path:
            assert f"input file {path} " in err


def test_fit_params_rejects_level_index_out_of_range(tmp_path, capsys):
    data = tmp_path / "transitions.csv"
    data.write_text("epsilon_ghz,level_from,level_to,freq_ghz\n0.0,0,1,1.2\n0.3,99,0,1.5\n")
    code, _, err = run_cli(
        ["fit-params", "--input", str(data), "--init-delta", "1", "--init-omega", "6",
         "--init-g", "1", "--nmax", "8"],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: usage: level indices must be integers in [0, 18)")
    assert "'0.3,99,0,1.5'" in err


def test_computation_errors_exit_two(capsys):
    # labels need delta < omega, so the twotone command cannot run here
    code, _, err = run_cli(
        ["twotone", "--delta", "7.0", "--omega", "6.3", "--g", "1.0",
         "--panel", "a", "--rabi-bc", "0.01"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_shift_table_aborts_with_set_id(monkeypatch, capsys):
    # a LAPACK failure on the first set is a computation error that names the set
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, _, err = run_cli(["shift-table"], capsys)
    assert code == 2
    assert err.startswith("error: set A: eigh failed")


def test_shift_curves_contains_measured_points(capsys):
    code, out, _ = run_cli(["shift-curves", "--grid-points", "9"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    measured = {row[1]: row for row in rows if row[0] == "measured"}
    assert set(measured) == set("ABCDEFGHI")
    h = measured["H"]
    assert float(h[2]) == pytest.approx(7.27 / 6.345, rel=1e-9)
    assert float(h[3]) == pytest.approx(0.127 / 1.68, rel=1e-6)
    b = measured["B"]
    assert float(b[2]) == pytest.approx(5.41 / 6.296, rel=1e-9)
    assert float(b[4]) == pytest.approx(-0.452 / 1.01, rel=1e-6)
    assert measured["A"][5] == ""  # no two-photon value for set A


NO_SCIPY = """
import contextlib, importlib.abc, io, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
except ModuleNotFoundError:
    pass
else:
    sys.exit("the finder did not block scipy")
from rabispec import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


def test_commands_run_without_scipy(tmp_path):
    import subprocess
    import sys
    from importlib import resources

    truth = spectro.LineshapeParams(omega0=6.08, q_total=9e3, q_external=1.3e4, phi=0.25)
    w = np.linspace(6.08 * (1 - 50 / 9e3), 6.08 * (1 + 50 / 9e3), 120)
    s21 = tmp_path / "s21.csv"
    s21.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n" + "".join(
        f"0.0,{float(wi)!r},{float(abs(yi))!r}\n" for wi, yi in zip(w, spectro.s21(truth, w))
    ))
    transitions = resources.files("rabispec").joinpath("data/synthetic_transitions.csv")
    calls = [
        ["shift-table"],
        ["shift-curves", "--grid-points", "5"],
        ["spectrum", "--set", "H", "--grid-points", "3"],
        ["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02", "--grid-points", "5"],
        ["overlap", "--n", "2", "--grid-points", "5"],
        ["fit-s21", "--input", str(s21), "--degree", "0"],
        ["fit-params", "--input", str(transitions), "--init-delta", "1.2",
         "--init-omega", "6.4", "--init-g", "0.5"],
        ["reconstruct", "--w-g0g1", "1.75", "--w-g0g2", "1.21875", "--w-e0e1", "1.105",
         "--w-e0e2", "1.59175", "--w-g0e1", "1.232"],
    ]
    commands = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    assert {argv[0] for argv in calls} == commands
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, json.dumps(calls)], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [0] * len(calls), run.stderr


def test_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "rabispec.cli", "overlap", "--n", "1",
           "--grid-points", "9"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_shift_curves_svg_renders_points(tmp_path):
    # each curve is one polyline over the grid; measured values are only points
    svg = "{http://www.w3.org/2000/svg}"
    path = tmp_path / "curves.svg"
    assert main(["shift-curves", "--grid-points", "9", "--format", "svg",
                 "--out", str(path)]) == 0
    root = ET.parse(path).getroot()
    _, rows = parse_csv(root.find(svg + "desc").text)
    measured = [v for r in rows if r[0] == "measured" for v in r[3:] if v]
    legend = {t.text: t.get("fill") for t in root.iter(svg + "text") if t.get("fill")}
    lines = {}
    for line in root.iter(svg + "polyline"):
        lines.setdefault(line.get("stroke"), []).append(line.get("points").split())
    assert sorted(legend) == ["n=0", "n=1", "n=2"]
    for color in legend.values():
        assert [len(vertices) for vertices in lines.pop(color)] == [9]
    assert not lines
    circles = list(root.iter(svg + "circle"))
    assert len(circles) == len(measured) == 26  # 9 sets x 3 shifts, minus set A's d2
    assert {c.get("fill") for c in circles} == {"black"}


def test_svg_well_formed_and_embeds_csv(tmp_path, capsys):
    csv_path = tmp_path / "overlap.csv"
    svg_path = tmp_path / "overlap.svg"
    args = ["overlap", "--n", "2", "--grid-points", "11"]
    assert main(args + ["--out", str(csv_path)]) == 0
    assert main(args + ["--format", "svg", "--out", str(svg_path)]) == 0
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    desc = root.find("{http://www.w3.org/2000/svg}desc")
    assert desc is not None
    assert desc.text == csv_path.read_text()


def test_overlap_minimum_location(capsys):
    code, out, _ = run_cli(
        ["overlap", "--n", "2", "--grid-start", "0", "--grid-stop", "1.5",
         "--grid-points", "31"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    ratio_col = header.index("ratio_to_zero_coupling")
    values = [(float(r[0]), float(r[ratio_col])) for r in rows]
    beta_min = min(values, key=lambda bv: bv[1])[0]
    assert abs(beta_min - 0.622) <= 0.05


def test_fit_params_bundled_fixture(tmp_path, capsys):
    from importlib import resources

    fixture = resources.files("rabispec").joinpath("data/synthetic_transitions.csv")
    code, out, _ = run_cli(
        ["fit-params", "--input", str(fixture), "--init-delta", "1.2",
         "--init-omega", "6.4", "--init-g", "0.5", "--nmax", "24"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["delta_ghz"] == pytest.approx(1.246, abs=1e-3)
    assert body["omega_ghz"] == pytest.approx(6.365, abs=1e-3)
    assert body["g_ghz"] == pytest.approx(0.42, abs=1e-3)
    assert not body["residual_above_threshold"]


def test_fit_s21_roundtrip(tmp_path, capsys):
    truth = spectro.LineshapeParams(omega0=6.08, q_total=9e3, q_external=1.3e4, phi=0.25)
    bg = spectro.BackgroundPoly((0.95, 0.02), center=6.08)
    w = np.linspace(6.08 * (1 - 50 / 9e3), 6.08 * (1 + 50 / 9e3), 240)
    y = np.abs(bg(w) * spectro.s21(truth, w))
    path = tmp_path / "s21.csv"
    lines = ["epsilon_ghz,omega_p_ghz,s21_abs"]
    lines += [f"0.0,{float(wi)!r},{float(yi)!r}" for wi, yi in zip(w, y)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["fit-s21", "--input", str(path), "--degree", "1"], capsys)
    assert code == 0
    body = json.loads(out)
    fit = body["fits"][0]
    assert fit["omega0_ghz"] == pytest.approx(truth.omega0, rel=1e-6)
    assert fit["q_total"] == pytest.approx(truth.q_total, rel=1e-3)
    assert fit["q_external"] == pytest.approx(truth.q_external, rel=1e-3)


def test_spectrum_bare_qubit_curves(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--delta", "1.2", "--omega", "6.0", "--g", "0",
         "--grid-start", "-1.5", "--grid-stop", "1.5", "--grid-points", "7"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    for row in rows:
        eps = float(row[header.index("epsilon_ghz")])
        f01 = float(row[header.index("f01_ghz")])
        f02 = float(row[header.index("f02_ghz")])
        assert f01 == pytest.approx(math.hypot(1.2, eps), abs=1e-8)
        assert f02 == pytest.approx(6.0, abs=1e-8)


def test_spectrum_visible_only_masks(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--set", "A", "--grid-start", "-0.5", "--grid-stop", "0.5",
         "--grid-points", "3", "--visible-only"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    center = rows[1]
    assert float(center[header.index("epsilon_ghz")]) == 0.0
    assert center[header.index("f03_ghz")] == ""  # parity forbidden at eps = 0
    assert center[header.index("f01_ghz")] != ""


def test_reconstruct_command(capsys):
    code, out, _ = run_cli(
        ["reconstruct", "--w-g0g1", "1.75", "--w-g0g2", "1.21875",
         "--w-e0e1", "1.105", "--w-e0e2", "1.59175", "--w-g0e1", "1.232"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["delta_0_ghz"] == 0.127
    assert body["delta_1_ghz"] == -0.518
    assert body["delta_2_ghz"] == 0.5
    assert body["levels_inverted_at_one_photon"] is True


def test_twotone_csv_contract(capsys):
    code, out, _ = run_cli(
        ["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02",
         "--grid-points", "9"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["omega_d_ghz", "branch_lo_ghz", "branch_hi_ghz"]
    assert len(rows) == 9
    gaps = [float(r[2]) - float(r[1]) for r in rows]
    assert min(gaps) >= 2 * 0.02 - 1e-9
