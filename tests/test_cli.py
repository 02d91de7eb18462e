"""Command-line interface: parsing, precedence, formats, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wigsim.cli as cli
from wigsim.dynamics import evolve
from wigsim.measures import entropy_vs_field
from wigsim.model import NumericalError, PhasePoint, SystemKind, SystemParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            meta[key] = value
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_trajectory_first_row_is_initial_point(capsys):
    code, out, err = run_cli(
        capsys, "trajectory", "--system", "free", "--b0", "1",
        "--t-end", str(math.pi), "--t-steps", "3")
    assert code == 0, err
    meta, header, rows = parse_csv(out)
    assert header == ["b0", "tau", "x", "y", "px", "py"]
    assert rows[0]["tau"] == "0"
    assert [rows[0][c] for c in ("x", "y", "px", "py")] == ["1", "1", "1", "1"]
    # half-period landmark of the free flow at omega = 1/2
    last = rows[-1]
    assert float(last["x"]) == pytest.approx(2.0, rel=1e-10)
    assert float(last["y"]) == pytest.approx(-2.0, rel=1e-10)
    assert float(last["px"]) == pytest.approx(-0.5, rel=1e-10)
    assert float(last["py"]) == pytest.approx(0.5, rel=1e-10)


def test_trajectory_gqw_b_matches_field_flow(capsys):
    code, out, err = run_cli(
        capsys, "trajectory", "--system", "gqw-b", "--b0", "0.5",
        "--t-end", "2.0", "--t-steps", "5")
    assert code == 0, err
    _, _, rows = parse_csv(out)
    params = SystemParams(kind=SystemKind.GQW_FIELD, b0=0.5, g=2.0)
    taus = [float(r["tau"]) for r in rows]
    assert taus == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], rel=1e-12)
    for row, tau in zip(rows, taus):
        pt = evolve(params, PhasePoint(1.0, 1.0, 1.0, 1.0), tau)
        assert float(row["x"]) == pytest.approx(pt.x, rel=1e-10, abs=1e-10)
        assert float(row["y"]) == pytest.approx(pt.y, rel=1e-10, abs=1e-10)
        assert float(row["px"]) == pytest.approx(pt.px, rel=1e-10, abs=1e-10)
        assert float(row["py"]) == pytest.approx(pt.py, rel=1e-10, abs=1e-10)


def test_gqw_b_at_zero_field_falls_back_to_ballistic(capsys):
    code, out, err = run_cli(
        capsys, "trajectory", "--system", "gqw-b", "--b0", "0",
        "--t-end", "1.0", "--t-steps", "2")
    assert code == 0, err
    _, _, rows = parse_csv(out)
    assert float(rows[-1]["x"]) == pytest.approx(2.0, rel=1e-12)
    assert float(rows[-1]["y"]) == pytest.approx(1.0, rel=1e-12)
    assert float(rows[-1]["py"]) == pytest.approx(-1.0, rel=1e-12)


@pytest.mark.parametrize("b0", ["1e-12", "1e-200"])
def test_gqw_b_weak_field_keeps_the_drop(capsys, b0):
    # the drift of a tiny field must not cancel away the gravitational drop
    argv = ("trajectory", "--system", "gqw-b", "--t-end", "2", "--t-steps", "3")
    _, out, _ = run_cli(capsys, *argv, "--b0", "0")
    _, _, drop = parse_csv(out)
    code, out, err = run_cli(capsys, *argv, "--b0", b0)
    assert code == 0
    assert err == ""
    _, _, rows = parse_csv(out)
    for row, want in zip(rows, drop):
        for col in ("y", "py"):
            assert float(row[col]) == pytest.approx(float(want[col]), abs=1e-9)


def test_gqw_with_field_rejected(capsys):
    code, out, err = run_cli(
        capsys, "trajectory", "--system", "gqw", "--b0", "0.5", "--t-steps", "2")
    assert code == 2
    assert "E_RANGE" in err


def test_byte_identical_reruns(capsys):
    argv = ("fidelity", "--system", "free", "--b0", "0.5,1", "--t-steps", "4",
            "--quad-order", "8")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_fidelity_has_paper_column_only_for_unit_trap(capsys):
    code, out, err = run_cli(
        capsys, "fidelity", "--system", "ho", "--b0", "1", "--t-steps", "3",
        "--quad-order", "6")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert "f_paper" in header
    assert float(rows[0]["f_closed"]) == pytest.approx(1.0, rel=1e-12)
    assert float(rows[0]["f_paper"]) == pytest.approx(1.0, rel=1e-12)

    code, out, err = run_cli(
        capsys, "fidelity", "--system", "free", "--b0", "1", "--t-steps", "3",
        "--quad-order", "6")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert "f_paper" not in header
    assert float(rows[0]["f_quadrature"]) == pytest.approx(1.0, rel=1e-8)


def test_paper_form_outside_trap_rejected(capsys):
    code, _, err = run_cli(
        capsys, "fidelity", "--system", "free", "--fidelity-form", "paper",
        "--t-steps", "2", "--quad-order", "4")
    assert code == 2
    assert "E_RANGE" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "b0 = 0.5\n"
        "t-steps = 3\n"
        "t-end = 2.0\n"
    )
    code, out, err = run_cli(
        capsys, "trajectory", "--system", "free", "--config", str(cfg),
        "--b0", "0.25")
    assert code == 0, err
    meta, _, rows = parse_csv(out)
    # flag wins over config for b0; config supplies the time grid
    assert meta["b0"] == "0.25"
    assert meta["t_steps"] == "3"
    assert meta["t_end"] == "2"
    assert len(rows) == 3


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "trajectory", "--config", str(cfg))
    assert code == 2
    assert "E_PARSE" in err
    assert "bogus" in err


@pytest.mark.parametrize("command", ["fidelity", "trajectory", "entropy", "spectrum", "ncmap"])
def test_config_keys_are_the_long_flags(capsys, tmp_path, command):
    code, help_text, _ = run_cli(capsys, command, "--help")
    assert code == 0
    flags = set(re.findall(r"--[a-z0-9][a-z0-9-]*", help_text)) - {"--config", "--help"}
    parser = cli.build_parser()
    cfg = tmp_path / "one.cfg"
    for flag in sorted(flags):
        cfg.write_text(f"{flag[2:]} = 1\n")
        # a known key: the line becomes its flag, or its value is what is rejected
        try:
            tokens = cli._config_tokens(parser, parser.parse_args([command, "--config", str(cfg)]))
        except cli.ConfigError as exc:
            assert "unknown key" not in str(exc)
        else:
            assert tokens == [flag, "1"]

    cfg.write_text(f"config = {cfg}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: E_PARSE: {cfg}:1: unknown key 'config' for {command}\n"


def test_config_missing_equals(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line\n")
    code, _, err = run_cli(capsys, "trajectory", "--config", str(cfg))
    assert code == 2
    assert "E_PARSE" in err


def test_config_unreadable_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "trajectory", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2
    assert "E_PARSE" in err


@pytest.mark.parametrize("flag", ["--conf", "--co"])
def test_config_flag_prefix_reads_the_file(capsys, tmp_path, flag):
    # argparse takes any unique prefix of a flag, so the file must be read too
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("t-steps = 3\nb0 = 0.25\n")
    code, want, err = run_cli(capsys, "trajectory", "--config", str(cfg))
    assert code == 0, err
    assert len(parse_csv(want)[2]) == 3
    assert run_cli(capsys, "trajectory", flag, str(cfg)) == (0, want, "")


@pytest.mark.parametrize("text", ["bogus = 1\n", None], ids=["unknown-key", "missing"])
def test_flag_errors_and_help_come_before_config_errors(capsys, tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(capsys, "trajectory", "--config", str(cfg), "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: wigsim trajectory ")
    code, out, err = run_cli(capsys, "trajectory", "--config", str(cfg), "--t-steps", "abc")
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith("usage: wigsim trajectory ")
    assert "argument --t-steps: invalid int value: 'abc'" in err and "E_PARSE" not in err


@pytest.mark.parametrize("line, message", [
    ("t-steps = abc", "argument --t-steps: invalid int value: 'abc'"),
    ("system = moon", "argument --system: invalid choice: 'moon'"),
    ("b0 = 0.5, x", "argument --b0: expected a comma-separated float list, got '0.5, x'"),
])
def test_config_bad_value_is_parse_error_at_its_line(capsys, tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\nt-end = 2.0\n")
    code, out, err = run_cli(capsys, "trajectory", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: E_PARSE: {cfg}:1: {message}")
    assert err.count("\n") == 1 and "usage" not in err
    # the line number is the file's, after comments and blank lines
    cfg.write_text(f"# sweep\n\nt-end = 2.0\n{line}\n")
    code, out, err = run_cli(capsys, "trajectory", "--config", str(cfg))
    assert code == 2 and err.startswith(f"error: E_PARSE: {cfg}:4: {message}")
    # the first bad line is reported, also before an unknown key on a later line
    cfg.write_text(f"{line}\nbogus = 1\n")
    code, out, err = run_cli(capsys, "trajectory", "--config", str(cfg))
    assert code == 2 and err.startswith(f"error: E_PARSE: {cfg}:1: {message}")
    # a good value in the file is still overridden by a flag
    cfg.write_text("t-steps = 3\n")
    code, out, err = run_cli(capsys, "trajectory", "--config", str(cfg), "--t-steps", "4")
    assert code == 0, err
    assert parse_csv(out)[0]["t_steps"] == "4"


@pytest.mark.parametrize("flags, message", [
    (("--t-start", "1", "--t-end", "0.5"), "time grid requires end > start"),
    (("--t-steps", "1"), "time grid requires at least 2 samples"),
    (("--t-end", "inf"), "time grid start and end must be finite"),
    (("--t-start=-inf", "--t-end", "1"), "time grid start and end must be finite"),
    (("--t-start", "nan", "--t-end", "1"), "time grid start and end must be finite"),
], ids=["end-before-start", "one-sample", "end-inf", "start-minus-inf", "start-nan"])
@pytest.mark.parametrize("command", ["trajectory", "fidelity"])
def test_time_grid_is_checked_before_any_work(capsys, monkeypatch, command, flags, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a flow was evaluated for a rejected time grid")

    monkeypatch.setattr(cli, "evolve", no_work)
    monkeypatch.setattr(cli.measures, "fidelity_curve", no_work)
    code, out, err = run_cli(capsys, command, *flags)
    assert code == 2 and out == ""
    assert err == f"error: E_RANGE: {message}\n"


def test_time_grid_is_uniform(capsys):
    code, out, err = run_cli(capsys, "trajectory", "--b0", "0.5", "--t-end", "1", "--t-steps", "5")
    assert code == 0, err
    assert [float(row["tau"]) for row in parse_csv(out)[2]] == [0.0, 0.25, 0.5, 0.75, 1.0]


# a far initial point with a small displacement: 2 pi of drift beside 1e100
_FAR_FIDELITY = ("fidelity", "--b0", "0", "--t-end", "6.283185307179586", "--t-steps", "2")


def test_far_free_fidelity_keeps_its_drift(capsys):
    code, out, err = run_cli(capsys, *_FAR_FIDELITY, "--system", "free", "--x0", "1e100")
    assert code == 0, err
    last = parse_csv(out)[2][-1]
    for column in ("f_closed", "f_quadrature"):
        assert float(last[column]) == pytest.approx(math.exp(-4.0 * math.pi ** 2), rel=1e-12)


def test_far_trap_fidelity_columns_agree(capsys):
    code, out, err = run_cli(capsys, *_FAR_FIDELITY, "--system", "ho", "--x0", "1e10")
    assert code == 0, err
    for row in parse_csv(out)[2]:
        assert row["f_closed"] == row["f_quadrature"] == row["f_paper"]
    # the exact value at the float time just short of 2 pi; a big_omega of
    # 1 + 2^-52 printed 0.999999999883, and the printed formula's f_paper 1
    assert row["f_closed"] == "0.999999999997"


def test_far_trap_paper_form_keeps_its_digits(capsys):
    # the printed formula's cos t cos omega t - 1 cancels at |c0|^2 = 1e10 and
    # printed f_paper 0.587869973615 in the first row; these are mpmath's values
    code, out, err = run_cli(capsys, "fidelity", "--system", "ho", "--x0", "1e5", "--y0", "0",
                             "--px0", "0", "--py0", "0", "--b0", "0.5", "--t-start", "1e-5",
                             "--t-end", "4e-5", "--t-steps", "4", "--fidelity-form", "paper")
    assert code == 0, err
    rows = parse_csv(out)[2]
    assert [row["f_paper"] for row in rows] == [
        "0.587869673126", "0.119432968278", "0.00838551052933", "0.00020346836931"]
    assert all(row["f_paper"] == row["f_closed"] for row in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_far_initial_point_fidelity_is_finite(capsys, fmt):
    # |c0|^2 = 1e306 overflowed the printed formula's exponent to a non-finite
    # f_paper; -|d_p|^2 / 2 cannot overflow, and the packet has left by the next tau
    code, out, err = run_cli(capsys, "fidelity", "--x0", "1e153", "--t-steps", "3",
                             "--format", fmt)
    assert code == 0, err
    rows = parse_csv(out)[2] if fmt == "csv" else json.loads(out)["rows"]
    assert len(rows) == 12
    for row in rows:
        want = 1.0 if float(row["tau"]) == 0.0 else 0.0
        assert [float(row[c]) for c in ("f_closed", "f_quadrature", "f_paper")] == [want] * 3


def test_quad_order_moves_the_quadrature_column(capsys):
    # the rule is W0's own, not fitted to the pair: order 1 is far off, order 32 exact
    cols = {}
    for order in ("1", "32"):
        code, out, err = run_cli(capsys, "fidelity", "--quad-order", order)
        assert code == 0, err
        rows = parse_csv(out)[2]
        cols[order] = {c: [float(r[c]) for r in rows] for c in ("f_closed", "f_quadrature")}
    assert cols["1"]["f_closed"] == cols["32"]["f_closed"]
    assert cols["1"]["f_quadrature"] != cols["32"]["f_quadrature"]
    assert np.max(np.abs(np.subtract(cols["1"]["f_quadrature"], cols["1"]["f_closed"]))) > 1e-2
    assert np.allclose(cols["32"]["f_quadrature"], cols["32"]["f_closed"], rtol=0, atol=1e-12)


def test_bad_mass_maps_to_range_error(capsys):
    code, _, err = run_cli(capsys, "trajectory", "--mass", "-1", "--t-steps", "2")
    assert code == 2
    assert "E_RANGE" in err


def test_unknown_flag_exits_two(capsys):
    code = cli.main(["trajectory", "--no-such-flag"])
    capsys.readouterr()
    assert code == 2


def test_version_exits_zero(capsys):
    code = cli.main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wigsim" in out


def test_numeric_failure_exits_three(capsys, monkeypatch):
    def boom(ns):
        raise NumericalError("no usable number")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", boom)
    code, out, err = run_cli(capsys, "spectrum", "--system", "gqw")
    assert code == 3
    assert err == "error: E_NUMERIC: no usable number\n"
    assert out == ""


def test_ncmap_effective_field(capsys):
    code, out, err = run_cli(
        capsys, "ncmap", "--system", "ho", "--theta", "0.1", "--eta", "0.2")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert "b0_effective" in header
    assert rows[0]["b0_effective"] == "0.3"
    assert rows[0]["sigma_invertible"] == "true"
    assert rows[0]["s_aux"] == "0"


@pytest.mark.parametrize("system, extra", [("ho", ("--omega0", "0")), ("free", ())])
def test_ncmap_without_trap_is_the_free_map(capsys, system, extra):
    # the trap map at omega0 = 0 is eta / (q hbar), the free map
    code, out, err = run_cli(capsys, "ncmap", "--system", system, *extra, "--eta", "0.2")
    assert code == 0, err
    _, _, rows = parse_csv(out)
    assert rows[0]["b0_effective"] == "0.2"


def test_ncmap_gqw_shift_columns(capsys):
    code, out, err = run_cli(
        capsys, "ncmap", "--system", "gqw", "--theta", "0.4", "--eta", "0.3",
        "--nu", "2", "--x0", "1", "--py0", "1")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert rows[0]["b0_effective"] == "0.3"
    assert rows[0]["x_scale"] == "2"
    assert rows[0]["x_shear_from_py"] == "-0.1"
    assert rows[0]["x0_mapped"] == "1.9"


def test_spectrum_free_drops_nonpositive_fields(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--system", "free", "--n-max", "2")
    assert code == 0, err
    meta, header, rows = parse_csv(out)
    assert meta["b0"] == "0.1, 0.5, 1"
    fields = {row["b0"] for row in rows}
    assert "0" not in fields
    # ladder spacing: E_n = hbar omega (2n + 1), omega = b0/2
    at_one = [float(r["energy"]) for r in rows if r["b0"] == "1"]
    assert at_one == pytest.approx([0.5, 1.5, 2.5], rel=1e-12)


def test_spectrum_free_requires_positive_field(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--system", "free", "--b0", "0")
    assert code == 2
    assert "E_RANGE" in err


def test_spectrum_trap_requires_a_trap_or_field(capsys):
    # omega0 = 0 at b0 = 0 is big_omega = 0, where the ladder is a continuum
    code, out, err = run_cli(
        capsys, "spectrum", "--system", "ho", "--omega0", "0", "--b0", "0,0.5", "--n-max", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: E_RANGE: ") and err.count("\n") == 1


def test_spectrum_trap_energies(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--system", "ho", "--b0", "1", "--n-max", "1")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert header == ["b0", "n1", "n2", "energy"]
    assert len(rows) == 4
    big_omega = math.sqrt(0.25 + 1.0)
    want = {
        ("0", "0"): big_omega,
        ("0", "1"): 2 * big_omega - 0.5,
        ("1", "0"): 2 * big_omega + 0.5,
        ("1", "1"): 3 * big_omega,
    }
    for row in rows:
        assert float(row["energy"]) == pytest.approx(want[(row["n1"], row["n2"])], rel=1e-11)


def test_spectrum_gqw_levels(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--system", "gqw", "--n-max", "2")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert header == ["n_y", "energy"]
    assert float(rows[0]["energy"]) == pytest.approx(2.9458307433534534, rel=1e-10)
    assert float(rows[1]["energy"]) > float(rows[0]["energy"])


def test_entropy_free_rejects_zero_field(capsys):
    code, _, err = run_cli(
        capsys, "entropy", "--system", "free", "--b0", "0,0.5", "--quad-order", "11")
    assert code == 2
    assert "E_RANGE" in err


def test_entropy_both_systems(capsys):
    code, out, err = run_cli(
        capsys, "entropy", "--b0", "0.5", "--quad-order", "21")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert header == ["system", "b0", "entropy", "convention"]
    assert [r["system"] for r in rows] == ["ho", "free"]
    assert all(r["convention"] == "raw" for r in rows)


def test_entropy_rejects_gravity(capsys):
    # entropy declares no --gravity, so argparse rejects it
    code, out, err = run_cli(
        capsys, "entropy", "--gravity", "2", "--quad-order", "11", "--b0", "0.5")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --gravity 2" in err


@pytest.mark.parametrize("argv", [
    ("trajectory", "--x0", "nan", "--t-steps", "3"),
    ("trajectory", "--t-end", "inf", "--t-steps", "3"),
    ("fidelity", "--x0", "inf", "--t-steps", "2", "--quad-order", "2"),
    # derived frequencies that overflow: omega^2, omega0^2, 1 / (2 m)
    ("trajectory", "--system", "free", "--b0", "1e308", "--t-steps", "3"),
    ("trajectory", "--system", "ho", "--omega0", "1e200", "--t-steps", "3"),
    ("trajectory", "--system", "ho", "--mass", "1e-320", "--t-steps", "3"),
    # box widths hi - lo that are infinite or overflow
    ("entropy", "--box-half-width", "inf"),
    ("entropy", "--box-half-width", "1e308"),
], ids=["trajectory-x0-nan", "trajectory-t-end-inf", "fidelity-x0-inf",
        "free-b0-1e308", "ho-omega0-1e200", "ho-mass-1e-320",
        "entropy-box-inf", "entropy-box-1e308"])
def test_non_finite_input_is_range_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: E_RANGE: ") and err.count("\n") == 1
    assert out == ""


# m^2 that overflows, or q hbar, 2 nu hbar, hbar^2 or theta eta that underflow
_NCMAP_CRASHES = [
    ("ncmap", "--system", "ho", "--mass", "1e200"),
    ("ncmap", "--system", "gqw", "--nu", "1e-107", "--hbar", "1e-241"),
    ("ncmap", "--system", "ho", "--charge", "1e-300", "--hbar", "1e-100"),
    ("ncmap", "--system", "free", "--charge", "1e-300", "--hbar", "1e-100"),
]
_NCMAP_SIGMAS = [
    ("ncmap", "--system", "free", "--hbar", "1e-170"),
    ("ncmap", "--system", "ho", "--theta", "1e-200", "--eta", "2e-200", "--hbar", "1e-200"),
]
# positive mu and nu whose 1/(mu nu) is out of float range
_NCMAP_AUX = [
    ("ncmap", "--mu", "1e-200", "--nu", "1e-200"),
    ("ncmap", "--mu", "1e-160", "--nu", "1e-160"),
]
_NCMAP_EXTREMES = _NCMAP_CRASHES + _NCMAP_SIGMAS
_GQW_B_FAR_TRAJECTORY = ("trajectory", "--system", "gqw-b", "--py0", "2.3795913578656037e+252",
                         "--t-end", "1.5894355803611187e+221", "--t-steps", "2")
# M z0 + b is inf - inf in y: the evolved center is not finite
_GQW_FAR_FIDELITY = ("fidelity", "--system", "gqw", "--b0", "0", "--py0", "1e9", "--t-end", "1e300",
                     "--t-steps", "2", "--quad-order", "1")
_OVERFLOWING_BOX_SUMS = [
    ("entropy", "--system", "both", "--quad-order", "5", "--box-half-width", "1e200"),
    # the box mass overflows; it is not "no mass on the box"
    ("entropy", "--system", "both", "--quad-order", "5",
     "--box-half-width", "1.2396332297873528e+191", "--entropy-convention", "normalized"),
    ("entropy", "--system", "both", "--mass", "2.593340215947858e+191", "--quad-order", "7",
     "--box-half-width", "4.9685682345914844e+215"),
]
_OVERFLOWING_BOX_SUM_IDS = ["entropy-box-1e200", "entropy-normalized-box-1.2e191",
                            "entropy-heavy-box-5e215"]
_NCMAP_EXTREME_IDS = ["ncmap-ho-heavy", "ncmap-gqw-tiny-nu-hbar", "ncmap-ho-tiny-q-hbar",
                      "ncmap-free-tiny-q-hbar", "ncmap-free-tiny-hbar", "ncmap-ho-tiny-theta-eta"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # |c0|^2 overflows in the fidelity forms
    ("fidelity", "--x0", "1e200", "--t-steps", "3"),
    # the b0 = 0.1 parameters overflow; the b0 = 0 curve must not run first
    ("fidelity", "--mass", "1e-300", "--t-steps", "3"),
    # sector precision lam/kappa that underflows to 0, or 1/hbar^2 that overflows
    ("entropy", "--mass", "1e300", "--b0", "0.5"),
    ("entropy", "--system", "free", "--b0", "1e-300"),
    ("entropy", "--hbar", "1e-300", "--b0", "0.5"),
    # displacements whose square overflows: the packets are ~1e154 or more apart
    ("fidelity", "--system", "free", "--t-end", "4.5e180", "--t-steps", "3", "--quad-order", "4"),
    ("fidelity", "--system", "gqw-b", "--gravity", "1.7e308", "--t-end", "0.5",
     "--t-steps", "3", "--quad-order", "4"),
    ("fidelity", "--system", "ho", "--x0", "2", "--mass", "3.6e205", "--t-steps", "3",
     "--quad-order", "4"),
    *_NCMAP_EXTREMES,
    *_NCMAP_AUX,
    # M z0 + b is inf - inf in y
    _GQW_B_FAR_TRAJECTORY,
    _GQW_FAR_FIDELITY,
    # box weights whose weighted sums overflow, though every node value is finite
    *_OVERFLOWING_BOX_SUMS,
], ids=["fidelity-x0-1e200", "fidelity-mass-1e-300", "entropy-mass-1e300",
        "entropy-free-b0-1e-300", "entropy-hbar-1e-300", "fidelity-free-far",
        "fidelity-gqw-b-far", "fidelity-ho-heavy", *_NCMAP_EXTREME_IDS,
        "ncmap-aux-mu-nu-1e-200", "ncmap-aux-mu-nu-1e-160", "trajectory-gqw-b-far",
        "fidelity-gqw-far", *_OVERFLOWING_BOX_SUM_IDS])
def test_extreme_parameters_leave_at_most_one_error_line(capsys, argv):
    # warnings are errors here, so a numpy RuntimeWarning fails the case
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: E_") and err.count("\n") == 1
        assert out == ""
    # mu and nu are both positive, so the error must not say otherwise
    assert "must be positive" not in err


# every float flag log-uniform on [1e-300, 1e300], signed where a negative value is valid
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_POSITIVE = _MAGNITUDE.map(repr)
_SIGNED = st.tuples(st.sampled_from([1.0, -1.0]), _MAGNITUDE).map(lambda sv: repr(sv[0] * sv[1]))
_B0 = {"b0": st.lists(st.one_of(st.just(0.0), _MAGNITUDE), min_size=1, max_size=3)
       .map(lambda b0: ",".join(map(repr, b0)))}
# each subcommand's physics flags, as build_parser declares them
_PHYSICS = {"mass": _POSITIVE, "charge": _POSITIVE, "omega0": _POSITIVE}
_HBAR = {"hbar": _POSITIVE}
_GRAVITY = {"gravity": _POSITIVE}
_INITIAL = {name: _SIGNED for name in ("x0", "y0", "px0", "py0")}
_TIMES = {"t-start": _SIGNED, "t-end": _SIGNED, "t-steps": st.integers(2, 4).map(str)}
# each subcommand's systems and flags, with small step counts and orders
_SIZES = {"t-steps", "quad-order", "n-max"}
_COMMANDS = {
    "fidelity": (["ho", "free", "gqw", "gqw-b"], {
        **_B0, **_PHYSICS, **_GRAVITY, **_INITIAL, **_TIMES,
        "quad-order": st.integers(1, 6).map(str),
        "fidelity-form": st.sampled_from(["consistent", "paper"])}),
    "trajectory": (["ho", "free", "gqw", "gqw-b"], {
        **_B0, **_PHYSICS, **_GRAVITY, **_INITIAL, **_TIMES}),
    "entropy": (["ho", "free", "both"], {
        **_B0, **_PHYSICS, **_HBAR, "quad-order": st.integers(3, 9).map(str),
        "box-half-width": _POSITIVE,
        "entropy-convention": st.sampled_from(["raw", "normalized"])}),
    "spectrum": (["ho", "free", "gqw", "gqw-b"], {
        **_B0, **_PHYSICS, **_HBAR, **_GRAVITY, "n-max": st.integers(1, 6).map(str)}),
    "ncmap": (["ho", "free", "gqw"], {
        "theta": _POSITIVE, "eta": _POSITIVE, "mu": _POSITIVE, "nu": _POSITIVE,
        **_PHYSICS, **_HBAR, **_INITIAL}),
}
# a trap or gravity only where the system has one: elsewhere it is a range
# error before any arithmetic
_SYSTEM_FLAGS = {"ho": {"omega0"}, "both": {"omega0"}, "free": set(),
                 "gqw": {"gravity"}, "gqw-b": {"gravity"}}


def _run_argv(command: str, system: str):
    """Runs of one subcommand and system: the sizes always set, each other flag
    absent or set, as --flag=value so that a negative value is not read as a flag.
    The flags the system does not read are left out: any value of theirs but
    the default is a range error before any work."""
    skip = {"omega0", "gravity"} - _SYSTEM_FLAGS[system]
    skip |= set(cli._UNUSED.get((command, system), ()))
    flags = {name: values for name, values in _COMMANDS[command][1].items() if name not in skip}
    fixed = [command, f"--system={system}"]
    if system == "gqw" and "b0" in flags:
        del flags["b0"]
        fixed.append("--b0=0")   # the only field gqw takes
    parts = [st.just(fixed), st.sampled_from([["--format=csv"], ["--format=json"]])]
    for name, values in flags.items():
        flag = values.map(lambda value, name=name: [f"--{name}={value}"])
        parts.append(flag if name in _SIZES else st.one_of(st.just([]), flag))
    return st.tuples(*parts).map(lambda tokens: [t for part in tokens for t in part])


_CLI_ARGV = st.one_of(*(_run_argv(command, system)
                        for command, (systems, _) in _COMMANDS.items() for system in systems))


def _data_cells(out: str, fmt: str) -> list:
    if fmt == "json":
        return [cell for row in json.loads(out)["rows"] for cell in row.values()]
    _, _, rows = parse_csv(out)
    return [cell for row in rows for cell in row.values()]


def _is_non_finite(cell) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:   # a text cell
        return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_CLI_ARGV)
def test_any_run_prints_finite_cells_or_one_error_line(argv):
    # warnings are errors in the run, so a numpy RuntimeWarning fails the example
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
        cells = _data_cells(out, "json" if "--format=json" in argv else "csv")
        assert not any(map(_is_non_finite, cells))
    else:
        assert err.startswith("error: E_") and err.count("\n") == 1
        assert out == ""


@pytest.mark.parametrize("argv", _NCMAP_CRASHES, ids=_NCMAP_EXTREME_IDS[:4])
def test_ncmap_zero_deformation_has_zero_field(capsys, argv):
    # theta = eta = 0: the effective field is 0 however small q hbar or large m is
    code, out, err = run_cli(capsys, *argv)
    if code == 0:
        _, _, rows = parse_csv(out)
        assert rows[0]["b0_effective"] == "0"
    else:
        assert err.startswith("error: E_") and err.count("\n") == 1


@pytest.mark.parametrize("argv", _NCMAP_SIGMAS, ids=_NCMAP_EXTREME_IDS[4:])
def test_sigma_invertible_when_a_product_underflows(capsys, argv):
    # theta eta != hbar^2 exactly, though hbar^2 or theta eta rounds to 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    _, _, rows = parse_csv(out)
    assert rows[0]["sigma_invertible"] == "true"


@pytest.mark.parametrize("argv", [
    # ncmap declares no --gravity at all
    ("ncmap", "--system", "ho", "--gravity", "5"),
    ("ncmap", "--system", "free", "--omega0", "3"),
    ("ncmap", "--system", "gqw", "--omega0", "2"),
    ("spectrum", "--system", "gqw", "--omega0", "3"),
    ("spectrum", "--system", "ho", "--gravity", "5"),
    ("spectrum", "--system", "free", "--gravity", "5"),
    # the initial point moves only the gqw map's x0
    ("ncmap", "--system", "ho", "--x0", "5"),
    ("ncmap", "--system", "free", "--py0", "3"),
], ids=["ncmap-ho-gravity", "ncmap-free-omega0", "ncmap-gqw-omega0", "spectrum-gqw-omega0",
        "spectrum-ho-gravity", "spectrum-free-gravity", "ncmap-ho-x0", "ncmap-free-py0"])
def test_unused_omega0_or_gravity_is_range_error(capsys, argv):
    # the header would record a value the run does not use
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    if argv[0] == "ncmap" and "--gravity" in argv:
        assert "unrecognized arguments: --gravity 5" in err and "E_RANGE" not in err
    else:
        assert err.startswith("error: E_RANGE: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("spectrum", "--system", "ho", "--hbar", "1e307", "--n-max", "20"),
    ("trajectory", "--system", "gqw", "--b0", "0", "--gravity", "1e308", "--t-steps", "3"),
    ("entropy", "--system", "free", "--hbar", "1e-150", "--b0", "0.5"),
    # the ridge's norm and divisor pi hbar both overflow, and inf/inf is nan
    ("entropy", "--system", "free", "--hbar", "1.7e308"),
    ("entropy", "--hbar", "6e307", "--b0", "0.5"),
    *_OVERFLOWING_BOX_SUMS,
    _GQW_FAR_FIDELITY,
], ids=["spectrum-ho-inf-energy", "trajectory-gqw-inf-drop", "entropy-free-ridge-exp-overflow", "entropy-free-ridge-hbar-1.7e308",
        "entropy-ridge-hbar-6e307", *_OVERFLOWING_BOX_SUM_IDS, "fidelity-gqw-flow-overflow"])
def test_non_finite_cell_is_numeric_error(capsys, argv, fmt):
    # warnings are errors here: an exp that overflows to inf must not warn first
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 3
    assert err.startswith("error: E_NUMERIC:") and err.count("\n") == 1
    assert out == ""


_GQW_INF_DROP = ("trajectory", "--system", "gqw", "--b0", "0", "--gravity", "1e308",
                 "--t-steps", "3")


@pytest.mark.parametrize("argv, fmt", [
    (_GQW_INF_DROP, "csv"),
    (_GQW_INF_DROP, "json"),
    (_GQW_B_FAR_TRAJECTORY, "csv"),
], ids=["csv", "json", "gqw-b-far"])
def test_flow_overflow_writes_only_the_error_line(argv, fmt):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    # (pytest captures them in-process)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wigsim.cli", *argv, "--format", fmt],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: E_NUMERIC: column 'y' has a non-finite value\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("order", ["2", "2049"])
def test_entropy_quad_order_bounds(capsys, monkeypatch, fmt, order):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built for a rejected order")

    monkeypatch.setattr(cli.measures, "entropy_vs_field", no_grid)
    code, out, err = run_cli(capsys, "entropy", "--quad-order", order, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == ("error: E_RANGE: quad-order (box nodes per axis) must be between 3 and "
                   f"2048, got {order}\n")


@pytest.mark.parametrize("order", ["0", "257"])
def test_fidelity_quad_order_bounds(capsys, order):
    # 1 to 256, the orders of specfun.gauss_hermite
    code, out, err = run_cli(capsys, "fidelity", "--quad-order", order, "--t-steps", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: E_RANGE: ") and err.count("\n") == 1
    assert "1 <= n <= 256" in err


def test_entropy_quad_order_limit_is_one_sector_block():
    assert cli._ENTROPY_ORDER_LIMIT ** 2 == cli.quadrature._NODE_LIMIT


# each asks for more rows than the budget allows; none gets far enough to
# allocate anything of that size
@pytest.mark.parametrize("argv, rows", [
    (("trajectory", "--t-steps", "10000000000"), 4 * 10 ** 10),
    (("fidelity", "--b0", "0.5", "--t-steps", "1000001"), 1000001),
    (("spectrum", "--system", "ho", "--b0", "0.5", "--n-max", "1000"), 1001 ** 2),
    (("spectrum", "--system", "free", "--b0", "0, 1, 2", "--n-max", "500000"), 2 * 500001),
    (("spectrum", "--system", "gqw", "--n-max", "100000000000"), 10 ** 11),
    # one row per system and field: 10^6 sector integrations if unchecked
    (("entropy", "--system", "both", "--b0", ",".join(["0.5"] * 500001), "--quad-order", "3"),
     2 * 500001),
], ids=["trajectory", "fidelity", "spectrum-ho", "spectrum-free", "spectrum-gqw", "entropy"])
def test_row_budget_is_range_error(capsys, argv, rows):
    assert rows > cli._ROW_BUDGET
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: E_RANGE: ") and err.count("\n") == 1
    assert str(rows) in err
    assert out == ""


def test_entropy_free_header_omega0(capsys):
    code, out, err = run_cli(
        capsys, "entropy", "--system", "free", "--b0", "0.5", "--quad-order", "11")
    assert code == 0, err
    meta, _, _ = parse_csv(out)
    assert meta["omega0"] == "0"
    code, _, err = run_cli(
        capsys, "entropy", "--system", "free", "--omega0", "3", "--b0", "0.5",
        "--quad-order", "11")
    assert code == 2
    assert "E_RANGE" in err


def test_entropy_trap_header_omega0(capsys):
    # a truncating box, where the ho entropy depends on the trap frequency
    for argv, omega0 in (((), "1"), (("--omega0", "3"), "3")):
        code, out, err = run_cli(capsys, "entropy", "--system", "both", "--b0", "0.5",
                                 "--quad-order", "11", "--box-half-width", "1", *argv)
        assert code == 0, err
        meta, _, rows = parse_csv(out)
        assert meta["omega0"] == omega0
        [want] = entropy_vs_field(
            [SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=float(omega0))],
            box_half_width=1.0, nodes_per_axis=11)
        assert rows[0]["system"] == "ho"
        assert rows[0]["entropy"] == f"{want:.12g}"


def test_json_format(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--system", "gqw", "--n-max", "1", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["config"]["command"] == "spectrum"
    assert doc["config"]["format"] == "json"
    assert doc["rows"][0]["n_y"] == 1
    assert doc["rows"][0]["energy"] == pytest.approx(2.9458307433534534, rel=1e-10)


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["spectrum", "--system", "ho", "--b0", "0.5", "--n-max", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "table.csv"
    code = cli.main(argv + ["--out", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert target.read_text() == out


def test_metadata_header_lists_convention(capsys):
    code, out, err = run_cli(
        capsys, "trajectory", "--system", "ho", "--b0", "0", "--t-steps", "2")
    assert code == 0, err
    meta, _, _ = parse_csv(out)
    assert meta["epsilon_convention"].startswith("eps12=+1")
    assert meta["command"] == "trajectory"
    assert meta["omega0"] == "1"


# header keys that describe the run but are not flags
_NOT_FLAGS = {"command", "wigsim_version", "epsilon_convention", "time_variable", "f_paper_note"}
_FLOW_NOTES = ["epsilon_convention", "time_variable"]
_NOTES = {"fidelity": _FLOW_NOTES, "trajectory": _FLOW_NOTES, "entropy": ["epsilon_convention"],
          "spectrum": [], "ncmap": []}
# flags a run does not use, which its header leaves out
_INITIAL_DESTS = {"x0", "y0", "px0", "py0"}
_UNUSED = {("spectrum", "gqw"): {"b0", "charge"}, ("spectrum", "gqw-b"): {"b0", "charge"},
           ("ncmap", "ho"): _INITIAL_DESTS, ("ncmap", "free"): {"mass"} | _INITIAL_DESTS,
           ("ncmap", "gqw"): {"mass", "y0", "px0"}}


def _declared_flags(command: str) -> list:
    """The subcommand's flags in the order build_parser declares them."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [action.dest for action in sub.choices[command]._actions if action.dest != "help"]


def _header_runs():
    """Every subcommand and system: the earlier cases, then each other pair at
    its defaults (gqw flows take only b0 = 0)."""
    runs = [
        ("fidelity", "--system", "ho", "--b0", "0.5", "--quad-order", "4", "--t-steps", "5"),
        ("trajectory", "--system", "gqw-b", "--b0", "0, 0.3", "--t-steps", "7"),
        ("entropy", "--system", "both", "--b0", "0.5", "--quad-order", "5"),
        ("spectrum", "--system", "gqw", "--n-max", "2"),
        ("ncmap", "--system", "gqw", "--theta", "0.1", "--eta", "0.2"),
    ]
    params = [pytest.param(argv, id=argv[0]) for argv in runs]
    params.append(pytest.param(("ncmap", "--system", "gqw", "--x0", "2"), id="ncmap-gqw-x0"))
    covered = {argv[:3] for argv in runs}
    for command, (systems, _) in _COMMANDS.items():
        for system in systems:
            argv = (command, "--system", system)
            if argv not in covered:
                flow = command in ("fidelity", "trajectory")
                field = ("--b0", "0") if flow and system == "gqw" else ()
                params.append(pytest.param(argv + field, id=f"{command}-{system}"))
    return params


@pytest.mark.parametrize("argv", _header_runs())
def test_header_reruns_to_same_output(capsys, argv):
    # the default t_end = 4 pi is not exact at 12 digits, so the header must
    # record it in full for the rerun to land on the same time grid
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    meta, _, _ = parse_csv(out)
    # the declared flags in order, less the output flags and the unused ones,
    # then the notes, then the format
    command, system = argv[0], argv[2]
    unused = {"config", "format", "out"} | _UNUSED.get((command, system), set())
    notes = _NOTES[command] + (["f_paper_note"] if (command, system) == ("fidelity", "ho") else [])
    assert list(meta) == ["command", "wigsim_version",
                          *(dest for dest in _declared_flags(command) if dest not in unused),
                          *notes, "format"]
    flags = [command]
    for key, value in meta.items():
        if key in _NOT_FLAGS:
            continue
        flags += ["--" + key.replace("_", "-"), value]
    code, again, err = run_cli(capsys, *flags)
    assert code == 0, err
    assert again == out


# small base runs, each at b0 = 0.5 where it takes a field (0 for the gqw
# flows, none for the gqw spectra and ncmap), and a value other than the
# base run's for every flag a header records
_SWEEP_BASE = {"fidelity": ("--t-steps", "5", "--quad-order", "4"),
               "trajectory": ("--t-steps", "5"), "entropy": ("--quad-order", "21"),
               "spectrum": ("--n-max", "2"), "ncmap": ("--theta", "0.1", "--eta", "0.2")}
_SWEEP_VALUES = {"b0": "0.7", "mass": "2", "hbar": "2", "charge": "2", "omega0": "0.7",
                 "gravity": "3", "x0": "0.3", "y0": "0.3", "px0": "0.3", "py0": "0.3",
                 "t_start": "0.5", "t_end": "3", "t_steps": "7", "quad_order": "3",
                 "fidelity_form": "paper", "box_half_width": "3",
                 "entropy_convention": "normalized", "n_max": "3", "theta": "0.3", "eta": "0.3",
                 "mu": "2", "nu": "2"}
_OMEGA_ZERO = "omega = q b0 / 2m is 0 at b0 = 0, whatever q"
# flags a run reads that cannot move a cell, each with the reason
_INVARIANT = {
    ("fidelity", "gqw", "charge"): _OMEGA_ZERO,
    ("trajectory", "gqw", "charge"): _OMEGA_ZERO,
    ("fidelity", "gqw", "x0"): "d = (M - I) c0 + b of a field-free flow has no position part",
    ("fidelity", "gqw", "y0"): "d = (M - I) c0 + b of a field-free flow has no position part",
    ("entropy", "free", "mass"): "the Landau ridges depend only on m omega = q b0 / 2",
}


def _sweep_base(command: str, system: str) -> list:
    argv = [command, "--system", system, *_SWEEP_BASE[command]]
    if command in ("fidelity", "trajectory", "entropy"):
        argv += ["--b0", "0" if system == "gqw" else "0.5"]
    elif command == "spectrum" and not system.startswith("gqw"):
        argv += ["--b0", "0.5"]
    return argv


@pytest.mark.parametrize("command, system", [(command, system)
                                             for command, (systems, _) in _COMMANDS.items()
                                             for system in systems])
def test_every_recorded_flag_moves_a_cell(capsys, command, system):
    # the header records only what the run reads: a new value of each recorded
    # flag changes a data cell, or the run rejects it with one error line
    code, out, err = run_cli(capsys, *_sweep_base(command, system))
    assert code == 0, err
    meta, header, rows = parse_csv(out)
    # not gqw <-> gqw-b: at b0 = 0 they are one system
    values = {**_SWEEP_VALUES, "system": "free" if system == "ho" else "ho"}
    still = []
    for key in meta.keys() - _NOT_FLAGS - {"format"}:
        assert values[key] != meta[key]
        code, again, err = run_cli(capsys, *_sweep_base(command, system),
                                   "--" + key.replace("_", "-"), values[key])
        if code == 2:
            assert err.startswith("error: E_") and err.count("\n") == 1 and again == "", key
            continue
        assert code == 0, err
        moved = parse_csv(again)[1:] != (header, rows)
        if (command, system, key) in _INVARIANT:
            assert not moved, _INVARIANT[command, system, key]
        elif not moved:
            still.append(key)
    assert not still, f"recorded flags that move no cell: {sorted(still)}"


@pytest.mark.parametrize("command, flag", [("fidelity", "hbar"), ("trajectory", "hbar"),
                                           ("entropy", "gravity"), ("ncmap", "gravity")])
def test_undeclared_physics_flag_is_rejected(capsys, tmp_path, command, flag):
    # the run would not read it: a flag is a usage error, a config key an unknown one
    code, out, err = run_cli(capsys, command, f"--{flag}", "2")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: --{flag} 2" in err
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{flag} = 2\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: E_PARSE: {cfg}:1: unknown key {flag!r} for {command}\n"


# the row renderer the columnar one replaced, kept as the oracle: one dict per
# row, each cell formatted on its own
def _row_format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _row_json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _row_render(fmt, command, config, columns, rows):
    if fmt == "csv":
        lines = [f"# wigsim {command}"]
        for key, value in config.items():
            lines.append(f"# {key} = {cli._text(value)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_row_format_cell(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    doc = {
        "config": config,
        "rows": [{c: _row_json_value(row[c]) for c in columns} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


_RENDER_CONFIG = {"command": "spectrum", "wigsim_version": "0.1.0", "system": "gqw",
                  "b0": [0.0, 0.1, 1e-05], "empty": [], "mass": 1.0, "t_end": 4.0 * math.pi,
                  "n_max": 12, "note": 'quote " and %s', "format": "csv"}
_FLOATS = [-0.0, 1e-05, 1e16, 123456789012.0, 0.1, -2.5e-300, 4.0 * math.pi, 1.0, 7.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", [
    {"system": ["ho", "free", "both"] * 3, "n": np.arange(9), "sigma_invertible":
     [True, False, True] * 3, "energy": np.array(_FLOATS), "b0": list(_FLOATS[::-1])},
    {"map": ["gqw"], "theta": [0.1], "x0_mapped": [np.float64(-0.0)], "ok": [False]},
    {"n_y": np.arange(1, 1), "energy": np.empty(0)},
], ids=["mixed", "one-row", "empty"])
def test_columnar_render_matches_row_render(table, fmt):
    _assert_renders_as_rows(table, fmt)


def _assert_renders_as_rows(table, fmt):
    columns = list(table)
    rows = [dict(zip(columns, cells)) for cells in zip(*(list(c) for c in table.values()))]
    rows = [{c: v.item() if isinstance(v, np.generic) else v for c, v in row.items()}
            for row in rows]
    want = _row_render(fmt, "spectrum", _RENDER_CONFIG, columns, rows)
    assert cli._render(fmt, "spectrum", _RENDER_CONFIG, table) == want
    if fmt == "json":
        doc = {"config": _RENDER_CONFIG,
               "rows": [{c: _row_json_value(row[c]) for c in columns} for row in rows]}
        assert want == json.dumps(doc, indent=2) + "\n"


# floats where %.12g or repr switch between fixed and exponent notation, and
# their neighbours, beside signed zeros and subnormals
_SWITCHES = [x * s for x in (1e-4, 1e-5, 1e12, 1e16, 999999999999.5) for s in (1.0, -1.0)]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                *_SWITCHES, *(math.nextafter(x, 0.0) for x in _SWITCHES),
                *(math.nextafter(x, math.copysign(math.inf, x)) for x in _SWITCHES)]
_TEXT = st.text(st.one_of(st.sampled_from('%"\u00e9\u20ac\\,'),
                          st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters="\x00")), max_size=8)
_CELLS = {
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_EDGE_FLOATS)),
    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
    "bool": st.booleans(),
    "str": _TEXT,
}


@st.composite
def _tables(draw):
    names = draw(st.lists(st.text('ab%"\u00e9', min_size=1, max_size=4),
                          min_size=1, max_size=6, unique=True))
    n_rows = draw(st.integers(0, 50))
    table = {}
    for name in names:
        kind = draw(st.sampled_from(sorted(_CELLS)))
        cells = draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows))
        # numeric columns come as numpy arrays or as Python lists, as runners give them
        as_array = kind in ("float", "int") and draw(st.booleans())
        table[name] = np.array(cells, dtype=float if kind == "float" else np.int64) \
            if as_array else cells
    return table


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_tables(), st.sampled_from(["csv", "json"]))
def test_columnar_render_matches_row_render_property(table, fmt):
    _assert_renders_as_rows(table, fmt)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_rejects_non_finite_float_cell(bad):
    table = {"n": [1, 2], "energy": np.array([1.0, bad])}
    for fmt in ("csv", "json"):
        with pytest.raises(NumericalError, match="non-finite value"):
            cli._render(fmt, "spectrum", _RENDER_CONFIG, table)
