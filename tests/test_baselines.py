import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_img, make_step, rand_image, textured_image
from despeckle import (
    DomainError,
    FrostParams,
    LeeParams,
    ParameterError,
    SradParams,
    frost_filter,
    lee_filter,
    srad,
)
from reference import naive_frost, naive_lee, srad_reference


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

    def test_edges_survive_better_than_box_mean(self):
        arr = make_step()
        frosty = frost_filter(as_img(arr), FrostParams(window_radius=2, damping=2.0)).pixels
        # along the step column the adaptive kernel must stay closer to the
        # original than a flat 5x5 average does
        from reference import _padded

        pad = _padded(arr, 2)
        box = np.zeros_like(arr)
        for r in range(arr.shape[0]):
            for c in range(arr.shape[1]):
                box[r, c] = pad[r : r + 5, c : c + 5].mean()
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

    def test_rejects_non_positive_pixels(self):
        img = as_img(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(DomainError) as info:
            srad(img, SradParams(iterations=1))
        assert "(1, 0)" in str(info.value)

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
    # would take 28 (Lee) to 105 (Frost, radius 3) image sizes.
    @pytest.mark.parametrize("name, run", [
        ("lee", lambda img: lee_filter(img, LeeParams(window_radius=2))),
        ("frost-2", lambda img: frost_filter(img, FrostParams(window_radius=2))),
        ("frost-3", lambda img: frost_filter(img, FrostParams(window_radius=3))),
        ("srad", lambda img: srad(img, SradParams(iterations=3))),
    ])
    def test_peak_stays_under_twelve_images(self, name, run):
        img = as_img(np.abs(textured_image(40, 256, 256)) + 1.0)
        tracemalloc.start()
        try:
            run(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * img.pixels.nbytes, f"{name}: {peak / img.pixels.nbytes:.1f} images"
