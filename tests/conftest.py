from __future__ import annotations

import os
from pathlib import Path

import pytest

import edgecount
from edgecount import build_graph


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that imports this same edgecount."""
    src = str(Path(edgecount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return build_graph(3, [(0, 1), (1, 2)])
