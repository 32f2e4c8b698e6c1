"""The one worker plan of the NLM engine and SRAD, and the runner's
split of the rows: the engine's benchmark shapes keep their plans,
small calls stay on one worker, and each worker takes an equal share of
the rows, cut into equal chunks. That rule moved SRAD's plan at
speckle-lab-256 from (63, 2), strips of 63, 63 and 63, 63, 4 rows, to
(43, 2), strips of 43, 43, 42 rows on each worker, on purpose; the
bits do not depend on the plan. One worker maps no memory; more map
only the images they share, never their scratch."""

import mmap
import os
from unittest import mock

import pytest

from conftest import as_img, rand_image
from despeckle import NlmParams, RobustNlmParams, SradParams, nlm_denoise, robust_nlm_denoise, srad
from despeckle import workers
from despeckle.baselines import srad_plan
from despeckle.nlm import engine_plan
from despeckle.workers import run_workers, worker_array

SHIPPED = NlmParams(h=20.0)  # the default 21x21 search window and 7x7 patches
SHIPPED_ROBUST = RobustNlmParams(h=20.0, h2=25.0)


def test_plans_on_two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # batch-nlm-256, cli-denoise-512 (robust, one thread) and speckle-lab-256
    assert engine_plan(0, 256, 256, SHIPPED) == (128, 2)
    assert engine_plan(1, 512, 512, SHIPPED_ROBUST) == (64, 1)
    assert srad_plan(0, 256, 256, SradParams()) == (43, 2)
    # each side of the work floor
    for side in (16, 64):
        assert engine_plan(0, side, side, SHIPPED)[1] == 1
        assert engine_plan(0, side, side, SHIPPED_ROBUST)[1] == 1
    assert engine_plan(0, 128, 128, SHIPPED)[1] == 2
    assert srad_plan(0, 128, 128, SradParams(iterations=100))[1] == 2
    assert srad_plan(0, 256, 256, SradParams(iterations=20))[1] == 2


def test_shares_are_cut_into_equal_chunks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # 150 rows per worker in two 75-row tiles, not 109 and 191 rows in
    # 109-row tiles; 128 rows in two 64-row strips, not 126 and 2
    assert engine_plan(0, 300, 300, SHIPPED) == (75, 2)
    assert srad_plan(1, 128, 128, SradParams()) == (64, 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_workers forks its workers")
@pytest.mark.parametrize("height, count, shares", [
    (300, 2, [(0, 150), (150, 300)]),
    (7, 3, [(0, 2), (2, 4), (4, 7)]),
])
def test_each_worker_takes_an_equal_share_of_rows(height, count, shares):
    ends = worker_array(height, count)  # ends[first] = end for the worker from row first

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


FILTERS = {
    "nlm": lambda img, threads: nlm_denoise(img, NlmParams(h=20.0, search_radius=3), threads),
    "robust": lambda img, threads: robust_nlm_denoise(
        img, RobustNlmParams(h=20.0, search_radius=3, h2=10.0), threads),
    "srad": lambda img, threads: srad(img, SradParams(iterations=3), threads),
}


@pytest.mark.parametrize("name", FILTERS)
def test_one_worker_maps_nothing(monkeypatch, name):
    img = as_img(rand_image(51, 40, 33, lo=1.0, hi=255.0))
    want = FILTERS[name](img, 1).pixels.tobytes()
    monkeypatch.setattr(mmap, "mmap", mock.Mock(side_effect=OSError("mapped")))
    assert FILTERS[name](img, 1).pixels.tobytes() == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the engine forks its workers")
def test_two_engine_workers_map_only_the_output(monkeypatch):
    img = as_img(rand_image(52, 40, 33, lo=1.0, hi=255.0))
    want = FILTERS["nlm"](img, 1).pixels.tobytes()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(workers, "_MIN_PASSES", 1)
    caller, mapped, allocate = os.getpid(), [], mmap.mmap

    def mapping(fileno, length):
        if os.getpid() != caller:  # a child's scratch would be mapped here
            raise OSError("a child mapped memory")
        mapped.append(length)
        return allocate(fileno, length)

    monkeypatch.setattr(mmap, "mmap", mapping)
    assert FILTERS["nlm"](img, 2).pixels.tobytes() == want
    assert mapped == [8 * img.pixels.size]
