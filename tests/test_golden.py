"""CLI outputs against the reference files in golden/.

Headers, spectra, entropy tables and noncommutative maps must match byte
for byte.  Fidelity and trajectory cells depend on the order in which the
flow's terms are summed, which may move their last digits, so they are
compared to 1e-12 * max(1, |golden|).
"""

import json
from pathlib import Path

import pytest

import wigsim.cli as cli

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
