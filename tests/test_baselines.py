import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    as_img,
    assert_children_of_a_killed_caller_stop,
    assert_no_children,
    fail,
    make_step,
    open_fds,
    rand_image,
    textured_image,
)
from despeckle import baselines, workers
from despeckle import (
    DomainError,
    FrostParams,
    GrayImage,
    LeeParams,
    NumericError,
    ParameterError,
    SradParams,
    frost_filter,
    lee_filter,
    srad,
)
from reference import _padded, naive_frost, naive_lee, srad_reference


def box_mean(arr, radius):
    """The mean of each pixel's mirror-padded (2 radius + 1)^2 window."""
    pad, side = _padded(arr, radius), 2 * radius + 1
    return np.array([[pad[r : r + side, c : c + side].mean() for c in range(arr.shape[1])]
                     for r in range(arr.shape[0])])


class TestLee:
    def test_matches_naive(self):
        arr = textured_image(30, 16, 16)
        got = lee_filter(as_img(arr), LeeParams(window_radius=2, noise_sigma=0.2)).pixels
        want = naive_lee(arr, 2, 0.2)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_matches_naive_other_window(self):
        arr = rand_image(31, 14, 11, lo=5, hi=250)
        got = lee_filter(as_img(arr), LeeParams(window_radius=1, noise_sigma=0.35)).pixels
        want = naive_lee(arr, 1, 0.35)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_zero_noise_sigma_is_identity(self):
        # sigma = 0 makes the gain (s^2 - 0) / (s^2 * 1) == 1 wherever the
        # window varies, and the flat-window branch returns the mean == value
        arr = textured_image(32, 12, 12)
        out = lee_filter(as_img(arr), LeeParams(window_radius=2, noise_sigma=0.0)).pixels
        assert np.max(np.abs(out - arr)) < 1e-12

    def test_constant_is_exact(self):
        img = as_img(np.full((10, 10), 128.0))
        out = lee_filter(img, LeeParams(window_radius=2, noise_sigma=0.3))
        assert np.array_equal(out.pixels, img.pixels)

    def test_smooths_noise(self):
        arr = rand_image(33, 32, 32, lo=80, hi=120)
        out = lee_filter(as_img(arr), LeeParams(window_radius=2, noise_sigma=0.12)).pixels
        assert out.std() < arr.std()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("noise_sigma", [1e100, float("inf")])
    def test_huge_noise_sigma_gives_the_window_mean(self, noise_sigma):
        # the gain is its limit 0 at the top of the range, and at inf,
        # although sigma^2 and m^2 sigma^2 overflow there
        arr = textured_image(39, 12, 12)
        out = lee_filter(as_img(arr), LeeParams(window_radius=2, noise_sigma=noise_sigma)).pixels
        assert np.max(np.abs(out - box_mean(arr, 2))) < 1e-9

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            LeeParams(window_radius=0)
        with pytest.raises(ParameterError):
            LeeParams(noise_sigma=-0.1)


class TestFrost:
    def test_matches_naive(self):
        arr = textured_image(34, 16, 16)
        got = frost_filter(as_img(arr), FrostParams(window_radius=2, damping=1.0)).pixels
        want = naive_frost(arr, 2, 1.0)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_matches_naive_strong_damping(self):
        arr = rand_image(35, 11, 13, lo=10, hi=240)
        got = frost_filter(as_img(arr), FrostParams(window_radius=3, damping=4.0)).pixels
        want = naive_frost(arr, 3, 4.0)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_constant_is_exact(self):
        img = as_img(np.full((9, 9), 64.0))
        out = frost_filter(img, FrostParams(window_radius=2, damping=1.0))
        assert np.array_equal(out.pixels, img.pixels)

    def test_huge_damping_approaches_identity(self):
        # the kernel collapses onto the center sample as damping grows
        arr = textured_image(36, 12, 12)
        out = frost_filter(as_img(arr), FrostParams(window_radius=2, damping=1e6)).pixels
        assert np.max(np.abs(out - arr)) < 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("damping", [1e308, 1.7e308])
    def test_an_overflowing_damping_is_a_parameter_error(self, damping):
        # past the range the damping is refused; at its top the kernel is
        # the center sample alone, bit for bit
        with pytest.raises(ParameterError, match="^damping must be a positive finite real, got "):
            FrostParams(damping=damping)
        img = as_img(make_step(12, 12, low=1.0, high=250.0))
        got = frost_filter(img, FrostParams(window_radius=2, damping=1e100)).pixels
        assert np.array_equal(got, img.pixels)

    def test_edges_survive_better_than_box_mean(self):
        arr = make_step()
        frosty = frost_filter(as_img(arr), FrostParams(window_radius=2, damping=2.0)).pixels
        # along the step column the adaptive kernel must stay closer to the
        # original than a flat 5x5 average does
        box = box_mean(arr, 2)
        edge = slice(None), slice(14, 18)
        assert np.abs(frosty[edge] - arr[edge]).mean() < np.abs(box[edge] - arr[edge]).mean()

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            FrostParams(window_radius=-1)
        with pytest.raises(ParameterError):
            FrostParams(damping=0.0)


class TestSrad:
    def test_matches_scalar_reference(self):
        arr = textured_image(37, 16, 16, noise=10.0)
        arr = np.abs(arr) + 1.0
        got = srad(as_img(arr), SradParams(iterations=5, dt=0.05, q0=1.0, rho=1.0)).pixels
        want = srad_reference(arr, 5, 0.05, 1.0, 1.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_iterations_is_identity(self):
        arr = rand_image(38, 10, 10, lo=1, hi=255)
        out = srad(as_img(arr), SradParams(iterations=0)).pixels
        assert np.array_equal(out, arr)

    def test_constant_is_exact(self):
        # all one-sided differences vanish, so the update adds exactly zero
        img = as_img(np.full((12, 12), 200.0))
        out = srad(img, SradParams(iterations=50, dt=0.2))
        assert np.array_equal(out.pixels, img.pixels)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("iterations", [1, 5])
    def test_lifts_non_positive_pixels(self, iterations, threads):
        # srad(v) is srad(v + s) - s bit for bit, with s = 1e-6 - min(v)
        params = SradParams(iterations=iterations)
        for v in (np.array([[1.0, 2.0], [0.0, 3.0]]), rand_image(40, 17, 13, lo=0.0, hi=100.0) - 50):
            s = 1e-6 - v.min()
            want = GrayImage(srad(GrayImage(v + s), params, threads).pixels - s)
            assert srad(GrayImage(v), params, threads).pixels.tobytes() == want.pixels.tobytes()

    def test_rejects_pixels_too_low_to_lift(self):
        # 1e-6 - (-1e20) rounds to 1e20, which lifts the minimum to 0
        with pytest.raises(DomainError, match=r"minimum -1e\+20 is too low to lift"):
            srad(as_img(np.array([[-1e20, 1.0]])), SradParams(iterations=1))

    def test_long_run_stays_finite_and_in_range(self):
        arr = np.abs(textured_image(39, 24, 24)) + 1.0
        out = srad(as_img(arr), SradParams(iterations=200, dt=0.25)).pixels
        assert np.all(np.isfinite(out))
        assert out.min() >= arr.min() - 1e-9
        assert out.max() <= arr.max() + 1e-9
        assert out.min() > 0.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_margin_values_never_reach_pixels(self):
        # columns fall by 1e10 from 1e150, so each pixel's own differences
        # stay finite, while the margin right of a row meets the next
        # row's first pixel: a 1e300 jump whose q2 is inf - inf
        arr = np.tile(1e150 * 1e-10 ** np.arange(31.0), (3, 1))
        got = srad(as_img(arr), SradParams(iterations=2, dt=0.25)).pixels
        assert np.array_equal(got, srad_reference(arr, 2, 0.25, 1.0, 1.0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_strip_height_does_not_change_the_bits(self, monkeypatch):
        # the margin input of the test above, single pixels, rows and
        # columns, and shapes that the default strip height splits
        inputs = [np.tile(1e150 * 1e-10 ** np.arange(31.0), (3, 1))]
        for seed, shape in enumerate([(1, 1), (1, 23), (23, 1), (37, 16), (70, 300)]):
            inputs.append(rand_image(seed, *shape, lo=1.0, hi=255.0))
        params = SradParams(iterations=3, dt=0.25)
        for arr in inputs:
            height, stride = arr.shape[0], arr.shape[1] + 2
            monkeypatch.setattr(baselines, "_STRIP_VALUES", height * stride)  # one strip
            want = srad(as_img(arr), params).pixels
            # strips of 1 and 2 rows, 5 rows with a short last strip, the default
            for values in (1, 2 * stride, 5 * stride, 16384):
                monkeypatch.setattr(baselines, "_STRIP_VALUES", values)
                assert np.array_equal(srad(as_img(arr), params).pixels, want)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("strip_values", [1, 16384])
    def test_divergence_raises_in_its_iteration(self, monkeypatch, strip_values):
        # the squared differences overflow, and the first step leaves
        # pixels non-finite however the strips split the image
        monkeypatch.setattr(baselines, "_STRIP_VALUES", strip_values)
        for arr in ([[1.0, 1e308]], [[1.0, 1.0], [1.0, 1e308]]):
            with pytest.raises(NumericError, match="non-finite values at iteration 1$"):
                srad(as_img(np.array(arr)), SradParams(iterations=3))

    @staticmethod
    def flat_block_image():
        arr = rand_image(45, 32, 32, lo=20.0, hi=200.0)
        arr[8:16, 8:16] = 100.0  # exactly flat windows: q = 0
        return as_img(arr)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q0", [1e100, 1e80])
    def test_overflowing_q0_gives_c_its_limit_1(self, q0):
        # the formula's denominator q0(t)^2 (1 + q0(t)^2) overflows, and c
        # is exactly 1, as at q0 = 1e60, where it rounds to 1 without overflow
        img = self.flat_block_image()
        got = srad(img, SradParams(iterations=20, q0=q0), threads=1).pixels
        assert np.array_equal(got, srad(img, SradParams(iterations=20, q0=1e60), threads=1).pixels)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [dict(q0=1e-100), dict(q0=1e-60), dict(q0=1e-9),
                                        dict(rho=700.0), dict(rho=1e100)])
    def test_vanishing_q0_gives_c_its_limit(self, params):
        # once 1 + q0(t)^2 rounds to 1 the formula divides by zero on the
        # flat block (rho = 1e100 makes q0(t)^2 exactly 0); the limit is
        # c = 1 where q = 0 and 0 elsewhere
        img = self.flat_block_image()
        got = srad(img, SradParams(iterations=20, **params), threads=1).pixels
        limit = srad(img, SradParams(iterations=20, rho=1e100), threads=1).pixels
        assert np.array_equal(got, limit)
        assert np.array_equal(got[9:15, 9:15], img.pixels[9:15, 9:15])
        # the formula just above the cut-over comes within 1e-9 of the limit
        near = srad(img, SradParams(iterations=20, q0=1e-7), threads=1).pixels
        assert np.max(np.abs(near - limit)) < 1e-9
        assert not np.array_equal(near, srad(img, SradParams(iterations=20), threads=1).pixels)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_the_limit_c_still_meets_the_divergence_check(self):
        # c = 1 around a pixel of 1 among 1e308s, whose q2 is inf / inf:
        # its four fluxes sum to inf
        arr = np.full((3, 3), 1e308)
        arr[1, 1] = 1.0
        with pytest.raises(NumericError, match="non-finite values at iteration 1$"):
            srad(as_img(arr), SradParams(iterations=3, q0=1e100))

    def test_smooths_speckle(self):
        rng = np.random.Generator(np.random.Philox(44))
        arr = 100.0 * (1.0 + 0.2 * rng.standard_normal((32, 32)))
        arr = np.abs(arr) + 1e-3
        out = srad(as_img(arr), SradParams(iterations=60, dt=0.1)).pixels
        assert out.std() < 0.5 * arr.std()

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            SradParams(iterations=-1)
        with pytest.raises(ParameterError):
            SradParams(dt=0.0)
        with pytest.raises(ParameterError):
            SradParams(dt=0.3)  # above the stability ceiling
        with pytest.raises(ParameterError):
            SradParams(q0=0.0)
        with pytest.raises(ParameterError):
            SradParams(rho=-1.0)
        SradParams(rho=0.0)  # a frozen threshold is allowed


# the margin input of TestSrad, single pixels, rows and columns, and
# shapes that split into uneven blocks of strips
WORKER_INPUTS = [np.tile(1e150 * 1e-10 ** np.arange(31.0), (3, 1))] + [
    rand_image(seed, *shape, lo=1.0, hi=255.0)
    for seed, shape in enumerate([(1, 1), (1, 23), (23, 1), (37, 16), (70, 300)])]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="srad forks its workers")
class TestSradWorkers:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_worker_count_does_not_change_the_bits(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)  # tiny images fork too
        fork = mock.Mock(side_effect=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        params = SradParams(iterations=3, dt=0.25)
        for arr in WORKER_INPUTS:
            want = srad(as_img(arr), params, threads=1).pixels
            height, stride = arr.shape[0], arr.shape[1] + 2
            # strips of 1 and 2 rows, and 5 rows with a short last strip
            for values in (1, 2 * stride, 5 * stride):
                monkeypatch.setattr(baselines, "_STRIP_VALUES", values)
                for threads in (1, 2, 3):
                    count = baselines.srad_plan(threads, *arr.shape, params)[1]
                    assert count == min(threads, height)
                    forks = fork.call_count
                    assert np.array_equal(srad(as_img(arr), params, threads=threads).pixels, want)
                    assert fork.call_count - forks == count - 1

    def test_workers_meet_only_between_iterations(self, monkeypatch):
        # the runner reaps every child before the caller reads the grid,
        # so the last iteration ends at no barrier
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(baselines, "_STRIP_VALUES", 1)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)
        calls, meet = [], workers._Caller.barrier

        def barrier(link):
            calls.append(link)
            meet(link)

        monkeypatch.setattr(workers._Caller, "barrier", barrier)
        arr = rand_image(49, 6, 4, lo=1.0)
        assert baselines.srad_plan(0, *arr.shape, SradParams(iterations=1))[1] == 2
        for iterations in (0, 1, 2, 5):
            calls.clear()
            srad(as_img(arr), SradParams(iterations=iterations))
            assert len(calls) == max(0, iterations - 1)

    def test_each_worker_needs_the_work_floor(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # one floor of work: one iteration at 96x96 (rows of 98 values)
        monkeypatch.setattr(workers, "_MIN_PASSES", 96 * 98 * baselines._SRAD_PASSES)

        def plan(threads, height, width, iterations):
            return baselines.srad_plan(threads, height, width, SradParams(iterations=iterations))

        assert baselines._STRIP_VALUES // 98 > 96  # so the strips are a worker's share
        assert plan(0, 96, 96, 0) == (96, 1)
        assert plan(0, 96, 96, 1) == (96, 1)
        # two floors of work, but the workers would meet once, which costs more
        assert plan(0, 96, 96, 2) == (96, 1)
        assert plan(0, 96, 96, 3) == (48, 2)
        assert plan(0, 96, 96, 4) == (32, 3)
        assert plan(1, 96, 96, 4) == (96, 1)
        assert plan(0, 2, 10**4, 100) == (1, 2)  # no more workers than strips
        assert plan(0, 1000, 10**6, 1) == (1, 8)  # rows wider than a strip

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_child_divergence_raises_numeric_error_and_leaks_nothing(self, monkeypatch):
        # one-row strips: the caller steps rows 0-2, the child rows 3-5,
        # whose squared differences overflow
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(baselines, "_STRIP_VALUES", 1)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)
        arr = np.ones((6, 2))
        arr[5, 1] = 1e308
        fds = open_fds()
        with pytest.raises(NumericError, match="an SRAD worker process failed: NumericError: "
                                               "diffusion diverged to non-finite values "
                                               "at iteration 1$"):
            srad(as_img(arr), SradParams(iterations=3), threads=2)
        assert_no_children()
        assert open_fds() == fds

    def test_caller_failure_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(baselines, "_STRIP_VALUES", 1)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)
        caller, form = os.getpid(), baselines._srad_form
        stalled = []

        def stall_or_fail(*args):  # the call returns in time only if it kills the children
            if os.getpid() == caller:
                fail()
            if not stalled:
                stalled.append(True)
                time.sleep(20)
            form(*args)

        monkeypatch.setattr(baselines, "_srad_form", stall_or_fail)
        fds = open_fds()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected failure"):
            srad(as_img(rand_image(45, 9, 4, lo=1.0)), SradParams(iterations=3), threads=3)
        assert time.monotonic() - start < 10
        assert_no_children()
        assert open_fds() == fds

    def test_runs_serially_beside_other_threads_or_without_fork(self, monkeypatch):
        arr = rand_image(47, 24, 16, lo=1.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(baselines, "_STRIP_VALUES", 18)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)
        params = SradParams(iterations=5)
        one = srad(as_img(arr), params, threads=1).pixels.tobytes()
        fork = mock.Mock(side_effect=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        helper = threading.Thread(target=release.wait, args=(30,))
        helper.start()
        try:
            assert srad(as_img(arr), params).pixels.tobytes() == one
        finally:
            release.set()
            helper.join(timeout=30)
        assert not helper.is_alive()
        assert fork.call_count == 0
        # with the helper gone, the same call forks its one child
        assert srad(as_img(arr), params).pixels.tobytes() == one
        assert fork.call_count == 1
        monkeypatch.delattr(os, "fork")
        assert srad(as_img(arr), params).pixels.tobytes() == one

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states")
    def test_children_of_a_killed_caller_stop(self):
        # the child stops at its next barrier
        assert_children_of_a_killed_caller_stop("""
            import numpy as np
            from despeckle import GrayImage, SradParams, srad
            arr = np.random.Generator(np.random.Philox(48)).uniform(1, 255, (512, 512))
            srad(GrayImage(arr), SradParams(iterations=5000))  # some 20 s
        """)


# 1x1 to 24x24, single rows and columns among them
SHAPES = st.one_of(st.tuples(st.integers(1, 24), st.integers(1, 24)),
                   st.tuples(st.just(1), st.integers(1, 24)),
                   st.tuples(st.integers(1, 24), st.just(1)))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2**32 - 1), radius=st.integers(1, 3),
           noise_sigma=st.sampled_from([0.0, 0.2, 0.5]), damping=st.sampled_from([0.5, 1.0, 4.0]))
    # windows at least as wide as the image
    @example(shape=(1, 1), seed=1, radius=3, noise_sigma=0.2, damping=1.0)
    @example(shape=(2, 5), seed=2, radius=3, noise_sigma=0.5, damping=4.0)
    @example(shape=(1, 17), seed=3, radius=2, noise_sigma=0.2, damping=0.5)
    @example(shape=(13, 1), seed=4, radius=3, noise_sigma=0.0, damping=1.0)
    def test_lee_and_frost_match_oracles(self, shape, seed, radius, noise_sigma, damping):
        arr = rand_image(seed, *shape)
        lee = lee_filter(as_img(arr), LeeParams(window_radius=radius, noise_sigma=noise_sigma))
        assert np.max(np.abs(lee.pixels - naive_lee(arr, radius, noise_sigma))) < 1e-8
        frost = frost_filter(as_img(arr), FrostParams(window_radius=radius, damping=damping))
        assert np.max(np.abs(frost.pixels - naive_frost(arr, radius, damping))) < 1e-8

    def test_window_radius_is_bounded_by_the_mirror_period(self):
        # 2 max(3, 12, 10) = 24: the last radius that meets new samples
        arr = rand_image(37, 3, 12)
        lee = lee_filter(as_img(arr), LeeParams(window_radius=24, noise_sigma=0.2))
        assert np.max(np.abs(lee.pixels - naive_lee(arr, 24, 0.2))) < 1e-8
        frost = frost_filter(as_img(arr), FrostParams(window_radius=24, damping=1.0))
        assert np.max(np.abs(frost.pixels - naive_frost(arr, 24, 1.0))) < 1e-8
        with pytest.raises(ParameterError, match="^window_radius for a 3x12 image"):
            lee_filter(as_img(arr), LeeParams(window_radius=25))
        with pytest.raises(ParameterError, match="^window_radius for a 3x12 image"):
            frost_filter(as_img(arr), FrostParams(window_radius=25))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("k", [-1000, -500, 500, 1015])
    @pytest.mark.parametrize("lo, hi", [(0.0, 255.0), (-250.0, 250.0)])
    def test_lee_and_frost_commute_with_every_power_of_two(self, radius, k, lo, hi):
        # the window statistics are taken on samples scaled below 1, so at
        # 2^1015 no square overflows, and at 2^-1000 none underflows
        arr = rand_image(46, 13, 17, lo=lo, hi=hi)
        for run in (lambda a: lee_filter(as_img(a), LeeParams(window_radius=radius, noise_sigma=0.2)),
                    lambda a: frost_filter(as_img(a), FrostParams(window_radius=radius, damping=1.0))):
            assert np.array_equal(run(np.ldexp(arr, k)).pixels, np.ldexp(run(arr).pixels, k))

    @settings(max_examples=25, deadline=None)
    @given(shape=SHAPES, value=st.integers(0, 65535), radius=st.integers(1, 3))
    def test_integer_constants_come_back_exactly(self, shape, value, radius):
        img = as_img(np.full(shape, float(value)))
        lee = lee_filter(img, LeeParams(window_radius=radius, noise_sigma=0.3))
        frost = frost_filter(img, FrostParams(window_radius=radius, damping=2.0))
        assert np.array_equal(lee.pixels, img.pixels)
        assert np.array_equal(frost.pixels, img.pixels)

    @settings(max_examples=30, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2**32 - 1), iterations=st.integers(0, 15),
           dt=st.sampled_from([0.05, 0.25]), rho=st.sampled_from([0.0, 1.0]))
    @example(shape=(1, 1), seed=1, iterations=3, dt=0.25, rho=1.0)
    @example(shape=(1, 24), seed=2, iterations=15, dt=0.25, rho=0.0)
    @example(shape=(24, 1), seed=3, iterations=15, dt=0.05, rho=1.0)
    def test_srad_matches_reference(self, shape, seed, iterations, dt, rho):
        arr = rand_image(seed, *shape, lo=1.0, hi=255.0)
        got = srad(as_img(arr), SradParams(iterations=iterations, dt=dt, rho=rho)).pixels
        want = srad_reference(arr, iterations, dt, 1.0, rho)
        assert np.max(np.abs(got - want)) < 1e-12


class TestMemory:
    # Each filter holds a fixed handful of image-sized buffers, whatever
    # the window radius or the iteration count; per-pixel window copies
    # would take 28 (Lee) to 105 (Frost, radius 3) image sizes. SRAD
    # keeps two padded images, its output and eight row strips: 4.31
    # image sizes at 256x256.
    @pytest.mark.parametrize("name, run", [
        ("lee", lambda img: lee_filter(img, LeeParams(window_radius=2))),
        ("frost-2", lambda img: frost_filter(img, FrostParams(window_radius=2))),
        ("frost-3", lambda img: frost_filter(img, FrostParams(window_radius=3))),
        ("srad", lambda img: srad(img, SradParams(iterations=3), threads=1)),
    ])
    def test_peak_stays_under_twelve_images(self, name, run):
        img = as_img(np.abs(textured_image(40, 256, 256)) + 1.0)
        tracemalloc.start()
        try:
            run(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        images = 5 if name == "srad" else 12
        assert peak < images * img.pixels.nbytes, f"{name}: {peak / img.pixels.nbytes:.1f} images"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="srad forks its workers")
    def test_srad_on_two_workers_stays_under_five_images(self, monkeypatch):
        # tracemalloc does not see the shared mappings, so their bytes
        # are added to the caller's traced peak
        img = as_img(np.abs(textured_image(40, 256, 256)) + 1.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)  # three iterations are below the floor
        assert baselines.srad_plan(0, 256, 256, SradParams(iterations=3))[1] == 2
        mapped, allocate = [], baselines.worker_array

        def worker_array(size, workers=1):
            if workers > 1:
                mapped.append(8 * size)
            return allocate(size, workers)

        monkeypatch.setattr(baselines, "worker_array", worker_array)
        tracemalloc.start()
        try:
            srad(img, SradParams(iterations=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mapped) == 2
        images = (peak + sum(mapped)) / img.pixels.nbytes
        assert images < 5, f"srad on 2 workers: {images:.1f} images"
