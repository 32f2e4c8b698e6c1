"""The benchmark's tracer swaps package functions by name in module
namespaces (`perfbench/tracing.py`, `TRACED`). A refactor that renames
or stops importing one of those names would detach the tracer without
failing any other test, so every binding it relies on is checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    pairs = [(module, name) for module, names in tracing.TRACED.items() for name in names]
    # the engine work counter wraps this binding
    return pairs + [("despeckle.nlm", "correlate1d_valid")]


@pytest.mark.parametrize("module, name", _traced_bindings())
def test_traced_binding_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
