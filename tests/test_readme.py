"""The README's library example runs as written and prints the verdicts it claims."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_verdicts(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["True", "False"]
    assert abs(float(lines[2]) - 0.556) < 0.01  # "plateaus near 0.556"
