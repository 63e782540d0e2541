"""Every ```python block of README.md runs as written.

Each block is executed in a fresh namespace, importing the ``edgecount`` these
tests import (``src`` under ``PYTHONPATH=src``), in a scratch working
directory. The ```sh blocks are left out: their CLI examples read and write
files such as ``my_graph.txt`` and ``results/`` that do not exist here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the opening fence, code) of each python block
BLOCKS = [
    (TEXT.count("\n", 0, match.start()) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("code", [code for _, code in BLOCKS], ids=[f"line-{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(code, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
