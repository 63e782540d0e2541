"""The benchmark's modules import against this tree and find every call site they interpose on.

``perfbench/test_smoke.py`` runs the benchmark itself; this check keeps a
change under ``src/`` that breaks the traced run from passing ``pytest tests``.
"""

from __future__ import annotations

from pathlib import Path

import edgecount.generators

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_its_tracer_and_every_interposed_name(monkeypatch):
    # imported as perfbench/test_smoke.py does, from the benchmark's own directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    assert run.tracing is not None, run.TRACING_IMPORT_ERROR
    targets = [(module, name) for module, name, _ in run.tracing.CLI_ESTIMATE_TARGETS]
    targets.append((edgecount.generators, "build_graph"))
    for module, name in targets:
        assert hasattr(module, name), f"{module.__name__}.{name} is gone"
    assert Path(run.tracing.__file__).resolve().parent == PERFBENCH
