"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

LOOSE = {"psnr_db": [0.0, 100.0], "epi": [-1.0, 1.0]}


def loose_tolerances(workload):
    bands = json.loads((HERE / "tolerances.json").read_text())[workload.name]
    return {band: LOOSE for band in bands}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail(values[:11]) == (90.0, 100.0 / 11)
    assert run.tail(values[:10]) is None


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(0, "op", 0, None, 0.0, 10.0),
        Span(1, "a.x", 0, 0, 1.0, 3.0),
        Span(2, "a.y", 0, 0, 2.0, 5.0),   # overlaps its sibling
        Span(3, "b.z", 0, 0, 8.0, 12.0),  # runs past the parent's end
        Span(4, "c.w", 0, 2, 2.5, 4.5),   # grandchild: counts only against a.y
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(2.0)


def test_layer_self_times_and_unattributed_add_up_to_the_op():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "op", 7, None, 0.0, 10.0),
        Span(1, "cli.main", 7, 0, 1.0, 9.0),
        Span(2, "nlm.robust_nlm_denoise", 7, 1, 2.0, 8.0, attrs={"pixels": 4}),
        Span(3, "image.blur_array", 7, 2, 3.0, 4.0),
        Span(4, "pgm.load_pgm", 7, 1, 1.5, 1.75, attrs={"bytes": 20}),
    ]
    row = tracing.op_breakdown(tracer)[7]
    layers = sum(row.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    assert layers + row["unattributed_s"] == pytest.approx(row["trace.op_s"])
    assert row["unattributed_s"] == pytest.approx(2.0)
    assert row["nlm.engine_s"] == pytest.approx(5.0)
    assert row["cli.self_s"] == pytest.approx(1.75)
    assert row["pgm.bytes_in"] == 20
    assert row["nlm.px_per_s"] == pytest.approx(4 / 5.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_engine_counts_give_the_exact_offset_count(threads):
    from despeckle import nlm
    from despeckle.image import GrayImage
    import numpy as np

    img = GrayImage(np.arange(20 * 12, dtype=float).reshape(20, 12))
    tracer = Tracer()
    with tracer.installed(0):
        nlm.nlm_denoise(img, nlm.NlmParams(h=10.0, search_radius=2, patch_radius=1),
                        threads=threads)
    row = tracing.op_breakdown(tracer)[0]
    assert row["nlm.offsets"] == 25
    # per offset and band of n rows: 2 ops per element of the (n+2)x14
    # squared difference, 3-tap correlations to nx14 and nx12 at 5 ops
    # per output, then 5 steps on the nx12 weights
    per_offset = sum(2 * (n + 2) * 14 + 5 * n * 14 + 5 * n * 12 + 5 * n * 12
                     for n in [20 // threads] * threads)
    assert row["nlm.ops_computed"] == 25 * per_offset
    assert nlm.correlate1d_valid.__name__ == "correlate1d_valid"
    assert not hasattr(nlm.nlm_denoise, "__wrapped__")


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: run.END_TO_END_UNITS[n] for n in run.RESULT_METRICS}
    assert list(tracing.layer_metrics(Tracer(), [1.0], [1.0])) == tracing.PER_LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in tracing.PER_LAYER_METRICS}
    assert set(json.loads((HERE / "tolerances.json").read_text())) == set(workloads.WORKLOADS)


def small(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, 2, side=48)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_traced_and_untraced(name, tmp_path):
    workload = small(name, tmp_path)
    workload.prepare()
    checker = run.Checker(workload, loose_tolerances(workload))
    tracer = Tracer()
    untraced, traced = [], []
    for k in range(2 * workload.inputs):
        if k % 2:
            traced.append(checker.run(k % workload.inputs, workload.op_threads,
                                      tracer.installed(k)))
        else:
            untraced.append(checker.run(k % workload.inputs, workload.op_threads))
    if workload.check_threads is not None:
        checker.run(0, workload.check_threads)
    assert checker.problems == []
    assert checker.failed == 0 and checker.attempted == len(untraced) + len(traced) + (
        workload.check_threads is not None)
    assert len(checker.checksums) == workload.inputs
    metrics = tracing.layer_metrics(tracer, traced, untraced)
    assert sum(metrics[f"{layer}.calls"] for layer in tracing.LAYERS) > 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
    if name == "speckle-lab-256":
        assert metrics["nlm.calls"] == 0 and metrics["pgm.bytes_out"] > 0
    else:
        assert metrics["nlm.offsets"] == 441


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    digests = []
    for seed in (5, 5, 6):
        workload = small("cli-denoise-512", tmp_path, seed)
        workload.prepare()
        digests.append((tmp_path / "in.pgm").read_bytes())
    assert digests[0] == digests[1] != digests[2]


class Flaky(workloads.Workload):
    """Returns a different output on every call."""

    name = "flaky"

    def prepare(self):
        self.calls = 0

    def op(self, key, threads):
        self.calls += 1
        return self.calls

    def check(self, key, raw):
        return workloads.Output(str(raw), 30.0, 0.5, "band")


def test_checker_fails_an_op_whose_checksum_changes(tmp_path):
    workload = Flaky(0, tmp_path, 2)
    workload.prepare()
    checker = run.Checker(workload, {"band": LOOSE})
    checker.run(0, None)
    checker.run(0, None)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "differs" in checker.problems[0]


def test_checker_fails_quality_outside_its_band(tmp_path):
    workload = small("batch-nlm-256", tmp_path)
    workload.prepare()
    checker = run.Checker(workload, {"nlm": {"psnr_db": [90.0, 100.0], "epi": [-1.0, 1.0]}})
    checker.run(0, 1)
    assert checker.failed == 1 and "psnr_db" in checker.problems[0]


def test_a_cli_run_that_exits_nonzero_fails_and_counts_as_layer_errors(tmp_path):
    workload = small("cli-denoise-512", tmp_path)
    workload.prepare()
    workload.in_path.write_bytes(b"P5\n4 4\n255\n")  # truncated raster
    checker = run.Checker(workload, loose_tolerances(workload))
    tracer = Tracer()
    checker.run(0, 1, tracer.installed(0))
    assert checker.failed == 1 and "exit code 1" in checker.problems[0]
    metrics = tracing.layer_metrics(tracer, [1.0], [1.0])
    assert metrics["cli.errors"] == 1 and metrics["pgm.errors"] == 1
    assert metrics["nlm.calls"] == 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-nlm-256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
