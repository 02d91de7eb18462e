"""Command-line interface: parsing, precedence, formats, exit codes."""

import json
import math

import pytest

import wigsim.cli as cli
from wigsim.dynamics import TrajectorySolution, evolve_gqw_field
from wigsim.measures import entropy_vs_field
from wigsim.model import PhasePoint, SystemKind, SystemParams
from wigsim.wigner import TruncationError


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
    sol = TrajectorySolution(params, PhasePoint(1.0, 1.0, 1.0, 1.0))
    taus = [float(r["tau"]) for r in rows]
    assert taus == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], rel=1e-12)
    for row, tau in zip(rows, taus):
        pt = evolve_gqw_field(sol, tau)
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
        raise TruncationError("domain too small")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", boom)
    code, _, err = run_cli(capsys, "spectrum", "--system", "gqw")
    assert code == 3
    assert "E_NUMERIC" in err


def test_ncmap_effective_field(capsys):
    code, out, err = run_cli(
        capsys, "ncmap", "--system", "ho", "--theta", "0.1", "--eta", "0.2")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert "b0_effective" in header
    assert rows[0]["b0_effective"] == "0.3"
    assert rows[0]["sigma_invertible"] == "true"
    assert rows[0]["s_aux"] == "0"


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
    code, _, err = run_cli(
        capsys, "entropy", "--gravity", "2", "--quad-order", "11", "--b0", "0.5")
    assert code == 2
    assert "E_RANGE" in err


@pytest.mark.parametrize("argv", [
    ("trajectory", "--x0", "nan", "--t-steps", "3"),
    ("trajectory", "--t-end", "inf", "--t-steps", "3"),
    ("fidelity", "--x0", "inf", "--t-steps", "2", "--quad-order", "2"),
], ids=["trajectory-x0-nan", "trajectory-t-end-inf", "fidelity-x0-inf"])
def test_non_finite_input_is_range_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "E_RANGE" in err
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
        [(_, want)] = entropy_vs_field(SystemKind.HO_FIELD, [0.5], omega0=float(omega0),
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


@pytest.mark.parametrize("argv", [
    ("fidelity", "--system", "ho", "--b0", "0.5", "--quad-order", "4", "--t-steps", "5"),
    ("trajectory", "--system", "gqw-b", "--b0", "0, 0.3", "--t-steps", "7"),
    ("entropy", "--system", "both", "--b0", "0.5", "--quad-order", "5"),
    ("spectrum", "--system", "gqw", "--n-max", "2"),
    ("ncmap", "--system", "gqw", "--theta", "0.1", "--eta", "0.2"),
    pytest.param(("ncmap", "--system", "gqw", "--x0", "2"), id="ncmap-gqw-x0"),
], ids=lambda argv: argv[0])
def test_header_reruns_to_same_output(capsys, argv):
    # the default t_end = 4 pi is not exact at 12 digits, so the header must
    # record it in full for the rerun to land on the same time grid
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    meta, _, _ = parse_csv(out)
    flags = [argv[0]]
    for key, value in meta.items():
        if key in _NOT_FLAGS or (key == "b0" and not value):
            continue
        flags += ["--" + key.replace("_", "-"), value]
    code, again, err = run_cli(capsys, *flags)
    assert code == 0, err
    assert again == out
