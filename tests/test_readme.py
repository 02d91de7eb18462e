"""The README's Library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)


def test_library_section_has_python_blocks():
    assert _library_blocks()


@pytest.mark.parametrize("source", _library_blocks())
def test_library_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
