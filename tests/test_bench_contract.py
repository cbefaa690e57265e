"""The benchmark's layer tracer still covers the library.

``bench/layertrace.py`` wraps phonectc's public functions by name, both in
their defining modules and where other modules import them by name, and
raises ``TraceError`` when one is missing. A refactor that renames such a
function or stops importing it would otherwise break only the traced
benchmark run. This test installs and uninstalls the tracer; it runs no
workload.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layertrace")


def _bindings():
    """Every module- and class-level binding in the loaded phonectc modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("phonectc.") or module is None:
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_covers_every_layer_and_restores_originals(layertrace):
    modules = {mod for mod, _, _ in layertrace.TRACED} | set(layertrace.CALL_SITES)
    for mod in modules:
        importlib.import_module(f"phonectc.{mod}")
    before = _bindings()

    tracer = layertrace.Tracer()
    tracer.install()  # raises TraceError on a missing name or call site
    try:
        for mod, names in layertrace.CALL_SITES.items():
            module = sys.modules[f"phonectc.{mod}"]
            for name in names:
                target = getattr(module, name)
                if inspect.isclass(target):
                    target = target.__init__
                assert hasattr(target, "__traced__"), f"{mod}.{name}"
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
