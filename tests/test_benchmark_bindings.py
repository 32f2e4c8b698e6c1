"""The benchmark's tracer swaps package functions by name in module
namespaces (`perfbench/tracing.py`, `TRACED`). A refactor that renames
or stops importing one of those names would detach the tracer without
failing any other test, so every binding it relies on is checked here.
So is every library call of the benchmark's workloads
(`perfbench/workloads.py`), each run once on a small input.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from despeckle import GrayImage, cli, save_pgm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """The module ``perfbench/<name>.py``, loaded without importing perfbench."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _traced_bindings():
    tracing = _load("tracing")
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


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_benchmark_workload_runs_and_passes_its_check(tmp_path, name):
    # A refactor that breaks a call the benchmark makes (the noise
    # estimate, a parameter class, a filter) fails here, not in a bench run.
    workload = WORKLOADS[name](2801, tmp_path, 1, side=48)
    workload.prepare()
    for key in range(workload.inputs):
        output = workload.check(key, workload.op(key, workload.op_threads))
        assert output.problem is None, output.problem
        assert math.isfinite(output.psnr_db) and math.isfinite(output.epi), output
