"""The library names that the benchmark under perfbench/ binds still exist.

The benchmark's own tests (perfbench/test_perfbench.py) are not part of this
suite.  Here its tracer is installed over the package and removed again, and
every span its per-layer table reads must name a traced function or method,
so deleting or renaming one of them fails this suite too.
"""

import sys
from pathlib import Path

import pytest

import retrivox
from retrivox import fusion, tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans
    return layers, spans


def test_tracer_installs_over_every_traced_name(bench):
    layers, spans = bench
    full_name = {alias: full for full, alias in spans.ALIASES.items()}
    tracer = spans.Tracer().install(retrivox)
    try:
        for span, _ in layers.SPAN_METRICS:
            layer, *owners, attr = full_name.get(span, span).split(".")
            owner = sys.modules[f"retrivox.{layer}"]
            for name in owners:
                owner = getattr(owner, name)
            assert getattr(getattr(owner, attr), "__traced__", False), span
    finally:
        tracer.uninstall()
    assert not hasattr(tensor.conv3, "__traced__")
    assert not hasattr(fusion.FusionModel.refine, "__traced__")
