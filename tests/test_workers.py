"""The one worker plan of the NLM engine and SRAD: the shapes the
benchmark runs keep their plans, and small calls stay on one worker."""

import os
from unittest import mock

import pytest

from conftest import as_img, rand_image
from despeckle import NlmParams, SradParams, srad
from despeckle.baselines import srad_plan
from despeckle.nlm import engine_plan

SHIPPED = NlmParams(h=20.0)  # the default 21x21 search window and 7x7 patches


def test_plans_on_two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # batch-nlm-256, cli-denoise-512 (robust, one thread) and speckle-lab-256
    assert engine_plan(0, 256, 256, SHIPPED, False) == (128, 2)
    assert engine_plan(1, 512, 512, SHIPPED, True) == (64, 1)
    assert srad_plan(0, 256, 256, SradParams()) == (63, 2)
    # each side of the work floor
    for side in (16, 64):
        assert engine_plan(0, side, side, SHIPPED, False)[1] == 1
        assert engine_plan(0, side, side, SHIPPED, True)[1] == 1
    assert engine_plan(0, 128, 128, SHIPPED, False)[1] == 2
    assert srad_plan(0, 128, 128, SradParams(iterations=100))[1] == 2
    assert srad_plan(0, 256, 256, SradParams(iterations=20))[1] == 2


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
