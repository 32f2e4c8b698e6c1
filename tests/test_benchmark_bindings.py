"""The benchmark's tracer swaps package functions by name in module
namespaces (`perfbench/tracing.py`, `TRACED`). A refactor that renames
or stops importing one of those names would detach the tracer without
failing any other test, so every binding it relies on is checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from despeckle import GrayImage, cli, save_pgm

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


CALLED_BY = {"nlm": "nlm_denoise", "robust-nlm": "robust_nlm_denoise", "lee": "lee_filter",
             "frost": "frost_filter", "srad": "srad"}


@pytest.mark.parametrize("filter", CALLED_BY)
def test_the_cli_looks_each_filter_up_when_it_runs(tmp_path, monkeypatch, filter):
    # The tracer swaps these names in despeckle.cli after import; a run
    # that called a function object stored earlier would bypass it.
    calls = []
    for name in CALLED_BY.values():
        def record(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, record)
    src = tmp_path / "in.pgm"
    save_pgm(GrayImage(np.linspace(1.0, 200.0, 144).reshape(12, 12)), src)
    argv = ["denoise", str(src), str(tmp_path / "out.pgm"), "--filter", filter, "--threads", "1",
            "--search-radius", "2", "--patch-radius", "1", "--iterations", "2"]
    assert cli.main(argv) == 0
    assert calls == [CALLED_BY[filter]]
