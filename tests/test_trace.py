"""The benchmark's span tracer (wigbench/spans.py) still fits the program.

The tracer patches wigsim names in place.  A job run under it must print
what the untraced job prints, each state .value call must record exactly
one span (a wigner.value span inside another one means a class was wrapped
twice), and the default sweeps must stay on the order^2 sector route.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wigsim.cli as cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, nodes_per_axis", [
    (("fidelity", "--system", "free", "--b0", "0.5", "--quad-order", "4", "--t-steps", "3"), 4),
    (("entropy", "--system", "both", "--b0", "0.5", "--quad-order", "5"), 5),
], ids=["fidelity", "entropy"])
def test_traced_job_matches_untraced(tmp_path, capsys, argv, nodes_per_axis):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    traced = subprocess.run(
        [sys.executable, str(ROOT / "wigbench" / "spans.py"), str(spans_path), "cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert traced.returncode == 0, traced.stderr
    assert cli.main(list(argv)) == 0
    assert traced.stdout == capsys.readouterr().out

    # one record per span: [name, start, end, parent index, count, integrand calls]
    spans = json.loads(spans_path.read_text())
    values = [s for s in spans if s[0] == "wigner.value"]
    assert values
    assert not [s for s in values if s[3] >= 0 and spans[s[3]][0] == "wigner.value"]
    nodes = [s[4] for s in spans if s[0] == "quadrature.integrate"]
    assert max(nodes) == nodes_per_axis ** 2
