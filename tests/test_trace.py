"""The benchmark's span tracer (wigbench/spans.py) still fits the program.

The tracer patches wigsim names in place.  A job run under it must print
what the untraced job prints, each state .value call must record exactly
one span (a wigner.value span inside another one means a class was wrapped
twice), the default sweeps must stay on the order^2 sector route, and the levels of
a gravitational spectrum must share one zero search.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wigsim.cli as cli

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, argv):
    """Run argv under the tracer; return (stdout, spans)."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    traced = subprocess.run(
        [sys.executable, str(ROOT / "wigbench" / "spans.py"), str(spans_path), "cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert traced.returncode == 0, traced.stderr
    # one record per span: [name, start, end, parent index, count, integrand calls]
    return traced.stdout, json.loads(spans_path.read_text())


@pytest.mark.parametrize("argv, nodes_per_axis", [
    (("fidelity", "--system", "free", "--b0", "0.5", "--quad-order", "4", "--t-steps", "3"), 4),
    (("entropy", "--system", "both", "--b0", "0.5", "--quad-order", "5"), 5),
], ids=["fidelity", "entropy"])
def test_traced_job_matches_untraced(tmp_path, capsys, argv, nodes_per_axis):
    stdout, spans = _traced(tmp_path, argv)
    assert cli.main(list(argv)) == 0
    assert stdout == capsys.readouterr().out

    values = [s for s in spans if s[0] == "wigner.value"]
    assert values
    assert not [s for s in values if s[3] >= 0 and spans[s[3]][0] == "wigner.value"]
    nodes = [s[4] for s in spans if s[0] == "quadrature.integrate"]
    assert max(nodes) == nodes_per_axis ** 2


def test_gqw_levels_share_one_zero_search(tmp_path, capsys):
    # all levels share one fixed-length Newton iteration, so the number of
    # airy_ai calls does not grow with the number of levels
    counts = {}
    for n_max in ("3", "12"):
        argv = ("spectrum", "--system", "gqw", "--n-max", n_max)
        stdout, spans = _traced(tmp_path, argv)
        assert cli.main(list(argv)) == 0
        assert stdout == capsys.readouterr().out
        assert [s[0] for s in spans].count("specfun.airy_zero") == 1
        counts[n_max] = [s[0] for s in spans].count("specfun.airy_ai")
    assert counts["3"] == counts["12"] < 100
