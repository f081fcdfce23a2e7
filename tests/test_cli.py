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

from rabispec import spectro
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


def test_byte_identical_reruns(capsys):
    args = ["shift-curves", "--grid-points", "17"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    args = ["spectrum", "--set", "B", "--grid-points", "5", "--format", "json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


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
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert err.startswith("error: usage:")
        assert named in err, argv
        assert err.count("\n") == 1


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


def test_nmax_below_one_is_usage_error(tmp_path, capsys):
    data = tmp_path / "transitions.csv"
    data.write_text("epsilon_ghz,level_from,level_to,freq_ghz\n0.0,0,1,1.2\n")
    for argv in (
        ["shift-table"],
        ["spectrum", "--set", "A"],
        ["twotone", "--set", "H", "--panel", "a", "--rabi-bc", "0.02"],
        ["fit-params", "--input", str(data), "--init-delta", "1", "--init-omega", "6",
         "--init-g", "1"],
    ):
        code, out, err = run_cli(argv + ["--nmax", "0"], capsys)
        assert code == 1, argv
        assert out == ""
        assert err == "error: usage: argument --nmax: must be >= 1, got 0\n"


def test_fit_inputs_reject_malformed_rows(tmp_path, capsys):
    transitions = tmp_path / "transitions.csv"
    transitions.write_text(
        "epsilon_ghz,level_from,level_to,freq_ghz\n0.0,0,1,1.2\n0.3,0,1,nan\n"
    )
    s21 = tmp_path / "s21.csv"
    s21.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n0.0,6.0,0.9\n0.0,6.1,inf\n")
    short = tmp_path / "short.csv"
    short.write_text("epsilon_ghz,omega_p_ghz,s21_abs\n0.0,6.0,0.9\n0.0,6.1\n")
    for argv, message, row in (
        (["fit-params", "--input", str(transitions), "--init-delta", "1",
          "--init-omega", "6", "--init-g", "1"], "non-finite value", "0.3,0,1,nan"),
        (["fit-s21", "--input", str(s21)], "non-finite value", "0.0,6.1,inf"),
        (["fit-s21", "--input", str(short)], "row in", "0.0,6.1"),
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert err.startswith(f"error: usage: {message}")
        assert err.rstrip().endswith(repr(row))


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


def test_shift_table_aborts_with_set_id(capsys):
    # a 1-photon truncation cannot hold six labeled levels
    code, _, err = run_cli(["shift-table", "--nmax", "1"], capsys)
    assert code == 2
    assert err.startswith("error: set A:")


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
    path = tmp_path / "curves.svg"
    assert main(["shift-curves", "--grid-points", "9", "--format", "svg",
                 "--out", str(path)]) == 0
    root = ET.parse(path).getroot()
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) >= 26  # 9 sets x 3 shifts, minus set A's missing one


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
