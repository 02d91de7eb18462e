"""CLI outputs against the reference files in golden/.

Headers, spectra, entropy tables and noncommutative maps must match byte
for byte.  Fidelity and trajectory cells depend on the order in which the
flow's terms are summed, which may move their last digits, so they are
compared to 1e-12 * max(1, |golden|).  The fidelity files' own cells are
recomputed in mpmath from their headers, so they hold the Hermite rule's
values, not a copy of the program's.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import wigsim.cli as cli
from oracles import flow_generator_mp, hermite_fidelity_mp

GOLDEN = Path(__file__).parent / "golden"

_FIDELITY = ("fidelity", "--quad-order", "8", "--t-end", "6", "--t-steps", "13",
             "--x0", "0.3", "--y0", "-0.7", "--px0", "1.1", "--py0", "0.4")
_TRAJECTORY = ("trajectory", "--t-end", "10", "--t-steps", "21",
               "--x0", "0.3", "--y0", "-0.7", "--px0", "1.1", "--py0", "0.4")

# file name -> CLI arguments that produced it
CASES = {
    "fidelity_ho.csv": _FIDELITY + ("--system", "ho", "--b0", "0, 0.5"),
    "fidelity_ho_paper.csv": _FIDELITY + ("--system", "ho", "--b0", "0, 0.5",
                                          "--fidelity-form", "paper"),
    "fidelity_free.csv": _FIDELITY + ("--system", "free", "--b0", "0, 0.5"),
    "fidelity_gqw.csv": _FIDELITY + ("--system", "gqw", "--b0", "0"),
    "fidelity_gqw_b.csv": _FIDELITY + ("--system", "gqw-b", "--b0", "0, 0.5"),
    "trajectory_ho.csv": _TRAJECTORY + ("--system", "ho", "--b0", "0, 0.5", "--omega0", "0.7"),
    "trajectory_free.csv": _TRAJECTORY + ("--system", "free", "--b0", "0, 1"),
    "trajectory_gqw.csv": _TRAJECTORY + ("--system", "gqw", "--b0", "0", "--gravity", "1.5"),
    "trajectory_gqw_b.json": _TRAJECTORY + ("--system", "gqw-b", "--b0", "0, 0.5",
                                            "--format", "json"),
    "spectrum_ho.csv": ("spectrum", "--system", "ho", "--n-max", "3"),
    "spectrum_gqw.csv": ("spectrum", "--system", "gqw", "--n-max", "20", "--gravity", "3.961"),
    "ncmap_gqw.csv": ("ncmap", "--system", "gqw", "--theta", "0.1", "--eta", "0.2"),
    "entropy_both.csv": ("entropy",),
    "entropy_normalized.json": ("entropy", "--entropy-convention", "normalized",
                                "--box-half-width", "1.5", "--quad-order", "41",
                                "--format", "json"),
}

# tables whose cells come from the flows; every other file is compared whole
_NUMERIC = ("fidelity", "trajectory")


def _run(tmp_path, argv) -> str:
    out = tmp_path / "out"
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    return out.read_text()


def _split_csv(text):
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return head, body[0], [row.split(",") for row in body[1:]]


def _close(got, want) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except (TypeError, ValueError):
        return False
    return abs(g - w) <= 1e-12 * max(1.0, abs(w))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(tmp_path, name):
    want = (GOLDEN / name).read_text()
    got = _run(tmp_path, CASES[name])
    if not name.startswith(_NUMERIC):
        assert got == want
        return
    if name.endswith(".json"):
        assert got.split('"rows"')[0] == want.split('"rows"')[0]
        got_rows, want_rows = json.loads(got)["rows"], json.loads(want)["rows"]
        assert [list(r) for r in got_rows] == [list(r) for r in want_rows]
        pairs = [(r[c], w[c]) for r, w in zip(got_rows, want_rows) for c in w]
    else:
        got_head, got_cols, got_rows = _split_csv(got)
        want_head, want_cols, want_rows = _split_csv(want)
        assert got_head == want_head
        assert got_cols == want_cols
        assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
        pairs = [p for r, w in zip(got_rows, want_rows) for p in zip(r, w)]
    bad = [(g, w) for g, w in pairs if not _close(g, w)]
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


def _cells(name):
    """A golden file's header as {key: value} and its rows as [{column: value}];
    CSV values are the printed text, JSON values the parsed numbers."""
    text = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        doc = json.loads(text)
        return doc["config"], doc["rows"]
    head, cols, rows = _split_csv(text)
    cfg = dict(line[2:].split(" = ", 1) for line in head if " = " in line)
    return cfg, [dict(zip(cols.split(","), row)) for row in rows]


def _round12(q: Fraction) -> Fraction:
    """q rounded to 12 significant digits, the precision of every table cell."""
    if q == 0:
        return q
    e = 0
    while abs(q) >= 10 ** (e + 1):
        e += 1
    while abs(q) < Fraction(10) ** e:
        e -= 1
    scale = Fraction(10) ** (11 - e)
    return round(q * scale) / scale


def _exact(value) -> Fraction:
    """The float a run read for a printed parameter, as an exact rational."""
    return Fraction(float(value))


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("fidelity")))
def test_fidelity_golden_cells_match_mpmath(name):
    # every fidelity cell of the checked-in file against the same order-n rule
    # summed in mpmath at 30 digits, with d from the matrix exponential of the
    # canonical generator; the parameters come from the file's header.  An
    # f_paper cell is the closed value of the printed unit-weight family
    from mpmath import mp

    cfg, rows = _cells(name)
    num = {k: float(cfg[k]) for k in ("mass", "charge", "omega0", "gravity")}
    z0 = [float(cfg[k]) for k in ("x0", "y0", "px0", "py0")]
    bad = []
    with mp.workdps(30):
        for cell in rows:
            tau, order = float(cell["tau"]), int(cfg["quad_order"])
            gen = flow_generator_mp(b0=float(cell["b0"]),
                                    unit_weights=cfg["fidelity_form"] == "paper", **num)
            closed, quad = hermite_fidelity_mp(gen, z0, tau, order)
            checks = [("f_closed", closed), ("f_quadrature", quad),
                      ("abs_diff", abs(closed - quad))]
            if "f_paper" in cell:
                unit = flow_generator_mp(b0=float(cell["b0"]), unit_weights=True, **num)
                checks.append(("f_paper", hermite_fidelity_mp(unit, z0, tau, order)[0]))
            for column, want in checks:
                if not abs(float(cell[column]) - want) <= 1e-12:
                    bad.append((cell["b0"], cell["tau"], column, cell[column], mp.nstr(want, 15)))
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("trajectory")))
def test_trajectory_golden_cells_match_mpmath(name):
    # every phase-space cell is exp(G tau) (z0, 1), from the canonical generator
    # in mpmath at 30 digits, correctly rounded to the printed 12 digits
    from mpmath import mp, mpf

    cfg, rows = _cells(name)
    num = {k: float(cfg[k]) for k in ("mass", "charge", "omega0", "gravity")}
    z0 = mp.matrix([float(cfg[k]) for k in ("x0", "y0", "px0", "py0")] + [1])
    bad = []
    with mp.workdps(30):
        for cell in rows:
            gen = flow_generator_mp(b0=float(cell["b0"]), **num)
            z = mp.expm(gen * mpf(float(cell["tau"]))) * z0
            for k, column in enumerate(("x", "y", "px", "py")):
                if float(cell[column]) != float(mp.nstr(z[k], 12)):
                    bad.append((cell["b0"], cell["tau"], column, cell[column], mp.nstr(z[k], 15)))
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


def test_gqw_spectrum_golden_cells_match_mpmath():
    # E_n = -(m g^2 hbar^2 / 2)^(1/3) a_n, with a_n the n-th zero of Ai
    from mpmath import airyaizero, cbrt, mp, mpf

    cfg, rows = _cells("spectrum_gqw.csv")
    m, g, hbar = (mpf(float(cfg[k])) for k in ("mass", "gravity", "hbar"))
    assert len(rows) == int(cfg["n_max"])
    with mp.workdps(30):
        scale = cbrt(m * g * g * hbar * hbar / 2)
        bad = [(cell["n_y"], cell["energy"]) for cell in rows
               if float(cell["energy"]) != float(mp.nstr(-scale * airyaizero(int(cell["n_y"])), 12))]
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


def test_ho_spectrum_golden_cells_are_exact():
    # E = hbar [big_omega (n1 + n2 + 1) + omega (n1 - n2)] with omega = q b0 / (2 m) and
    # big_omega^2 = omega^2 + omega0^2 a rational; big_omega is bracketed by integer
    # square roots at 40 digits, and both ends must round to the printed cell
    cfg, rows = _cells("spectrum_ho.csv")
    m, hbar, q, omega0 = (_exact(cfg[k]) for k in ("mass", "hbar", "charge", "omega0"))
    levels = int(cfg["n_max"]) + 1
    assert len(rows) == levels ** 2 * len(cfg["b0"].split(","))
    bad = []
    for cell in rows:
        omega = q * _exact(cell["b0"]) / (2 * m)
        square = omega * omega + omega0 * omega0
        unit = 10 ** 40 * square.denominator
        root = Fraction(math.isqrt(square.numerator * square.denominator * 10 ** 80), unit)
        n1, n2 = int(cell["n1"]), int(cell["n2"])
        lo, hi = (hbar * (w * (n1 + n2 + 1) + omega * (n1 - n2))
                  for w in (root, root + Fraction(1, unit)))
        if not _round12(lo) == _round12(hi) == Fraction(cell["energy"]):
            bad.append((cell["b0"], n1, n2, cell["energy"], float(lo)))
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


def test_ncmap_golden_cells_are_exact():
    # the gravitational map's cells are rationals in the header's parameters
    cfg, (cell,) = _cells("ncmap_gqw.csv")
    theta, eta, mu, nu, hbar, q, x0, py0 = (
        _exact(cfg[k]) for k in ("theta", "eta", "mu", "nu", "hbar", "charge", "x0", "py0"))
    shear = -theta / (2 * nu * hbar)
    want = {"theta": theta, "eta": eta, "mu": mu, "nu": nu, "b0_effective": eta / (q * hbar),
            "x_scale": nu, "x_shear_from_py": shear, "x0_mapped": nu * x0 + shear * py0,
            "s_aux": 1 / (mu * nu) - 1}
    assert {k: Fraction(cell[k]) for k in want} == {k: _round12(v) for k, v in want.items()}
    assert cell["map"] == "gqw"
    assert cell["sigma_invertible"] == ("true" if theta * eta != hbar * hbar else "false")
