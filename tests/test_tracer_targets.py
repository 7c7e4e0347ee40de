"""The benchmark's tracer still finds every layer function it wraps.

perfbench/tracer.py wraps agdeform functions by module and qualified name;
a renamed function would make the traced benchmark run fail, so this
installs the tracer on the real package and puts everything back.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(target):
    owner = importlib.import_module(target.module)
    *outer, attr = target.qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    active = tracer.Tracer()
    try:
        active.install()
        for target in tracer.TARGETS:
            assert hasattr(_resolve(target), "__wrapped__"), target.name
    finally:
        active.restore()
    assert set(active.stats) == {target.name for target in tracer.TARGETS}
    for target in tracer.TARGETS:
        assert not hasattr(_resolve(target), "__wrapped__"), target.name
