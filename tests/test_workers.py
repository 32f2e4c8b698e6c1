"""The one worker plan of the NLM engine and SRAD, and the runner's
split of the rows: the engine's benchmark shapes keep their plans,
small calls stay on one worker, and each worker takes an equal share of
the rows, cut into equal chunks. That rule moved SRAD's plan at
speckle-lab-256 from (63, 2), strips of 63, 63 and 63, 63, 4 rows, to
(43, 2), strips of 43, 43, 42 rows on each worker, on purpose; the
bits do not depend on the plan."""

import os
from unittest import mock

import pytest

from conftest import as_img, rand_image
from despeckle import NlmParams, SradParams, srad
from despeckle.baselines import srad_plan
from despeckle.nlm import engine_plan
from despeckle.workers import run_workers, shared_array

SHIPPED = NlmParams(h=20.0)  # the default 21x21 search window and 7x7 patches


def test_plans_on_two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # batch-nlm-256, cli-denoise-512 (robust, one thread) and speckle-lab-256
    assert engine_plan(0, 256, 256, SHIPPED, False) == (128, 2)
    assert engine_plan(1, 512, 512, SHIPPED, True) == (64, 1)
    assert srad_plan(0, 256, 256, SradParams()) == (43, 2)
    # each side of the work floor
    for side in (16, 64):
        assert engine_plan(0, side, side, SHIPPED, False)[1] == 1
        assert engine_plan(0, side, side, SHIPPED, True)[1] == 1
    assert engine_plan(0, 128, 128, SHIPPED, False)[1] == 2
    assert srad_plan(0, 128, 128, SradParams(iterations=100))[1] == 2
    assert srad_plan(0, 256, 256, SradParams(iterations=20))[1] == 2


def test_shares_are_cut_into_equal_chunks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # 150 rows per worker in two 75-row tiles, not 109 and 191 rows in
    # 109-row tiles; 128 rows in two 64-row strips, not 126 and 2
    assert engine_plan(0, 300, 300, SHIPPED, False) == (75, 2)
    assert srad_plan(1, 128, 128, SradParams()) == (64, 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_workers forks its workers")
@pytest.mark.parametrize("height, count, shares", [
    (300, 2, [(0, 150), (150, 300)]),
    (7, 3, [(0, 2), (2, 4), (4, 7)]),
])
def test_each_worker_takes_an_equal_share_of_rows(height, count, shares):
    ends = shared_array(height)  # ends[first] = end for the worker on rows first .. end - 1

    def work(first, end, link):
        ends[first] = end

    run_workers(work, height, count, "test")
    assert [(first, int(end)) for first, end in enumerate(ends) if end] == shares


@pytest.mark.skipif(not hasattr(os, "fork"), reason="srad forks its workers")
@pytest.mark.parametrize("iterations", [0, 1, 10])
def test_short_srad_runs_fork_nothing(monkeypatch, iterations):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fork = mock.Mock(side_effect=os.fork)
    monkeypatch.setattr(os, "fork", fork)
    params = SradParams(iterations=iterations)
    assert srad_plan(0, 256, 256, params)[1] == 1
    srad(as_img(rand_image(50, 256, 256, lo=1.0, hi=255.0)), params)
    assert fork.call_count == 0
