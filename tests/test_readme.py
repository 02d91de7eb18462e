"""The README's Library example runs as written, and each of its CLI
examples exits 0."""

import re
import shlex
from pathlib import Path

import pytest

import wigsim.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(name):
    return README.read_text().split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def _library_blocks():
    return re.findall(r"^```python\n(.*?)^```", _section("Library"), re.S | re.M)


def _cli_examples():
    blocks = re.findall(r"^```sh\n(.*?)^```", _section("CLI"), re.S | re.M)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("wigsim ")]


def test_library_section_has_python_blocks():
    assert _library_blocks()


@pytest.mark.parametrize("source", _library_blocks())
def test_library_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_cli_section_has_examples():
    assert len(_cli_examples()) >= 5


@pytest.mark.parametrize("line", _cli_examples())
def test_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    # one example writes --out fid.csv; keep it out of the checkout
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err
