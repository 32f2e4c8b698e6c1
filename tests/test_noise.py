import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_img, make_phantom, rand_image
from despeckle import (
    DomainError,
    NumericError,
    ParameterError,
    SpeckleParams,
    add_gaussian_noise,
    add_multiplicative_speckle,
    estimate_noise_sigma,
    exp_expand,
    log_compress,
)


def test_speckle_params_validation():
    SpeckleParams(model="rayleigh", sigma=0.3, seed=1)
    with pytest.raises(ParameterError):
        SpeckleParams(model="salt", sigma=0.3, seed=1)
    with pytest.raises(ParameterError):
        SpeckleParams(model="rayleigh", sigma=-0.1, seed=1)
    with pytest.raises(ParameterError):
        SpeckleParams(model="rayleigh", sigma=0.1, seed=-2)


def test_seed_determinism_is_bit_exact():
    img = as_img(rand_image(3, 32, 32, lo=10, hi=200))
    params = SpeckleParams(model="multiplicative_gaussian", sigma=0.25, seed=99)
    a = add_multiplicative_speckle(img, params)
    b = add_multiplicative_speckle(img, params)
    assert a.pixels.tobytes() == b.pixels.tobytes()
    c = add_multiplicative_speckle(img, SpeckleParams(model="multiplicative_gaussian", sigma=0.25, seed=100))
    assert a.pixels.tobytes() != c.pixels.tobytes()


@pytest.mark.parametrize("model", ["multiplicative_gaussian", "rayleigh"])
def test_overflowing_draw_raises_numeric_error(model):
    # sigma is in the parameter range; the samples are what overflow
    img = as_img(rand_image(4, 16, 16, lo=1e308, hi=1.7e308))
    with pytest.raises(NumericError, match="^speckle of sigma 1 overflows"):
        add_multiplicative_speckle(img, SpeckleParams(model=model, sigma=1.0, seed=5))


@pytest.mark.filterwarnings("error")
def test_gaussian_noise_sigma_is_held_to_the_range():
    # past the range sigma is refused by name, before any draw; at the top
    # of the range the draw is finite on an 8-bit image
    img = as_img(rand_image(4, 16, 16, lo=0, hi=255))
    with pytest.raises(ParameterError, match="^sigma must be a non-negative finite real, got 1.7e\\+308"):
        add_gaussian_noise(img, 1.7e308, 1)
    assert np.isfinite(add_gaussian_noise(img, 1e100, 1).pixels).all()


def test_sigma_zero_returns_input_unchanged():
    img = as_img(rand_image(4, 16, 16))
    for model in ("multiplicative_gaussian", "rayleigh"):
        out = add_multiplicative_speckle(img, SpeckleParams(model=model, sigma=0.0, seed=5))
        assert np.array_equal(out.pixels, img.pixels)


def test_multiplicative_gaussian_moments():
    # v = u * (1 + n), n ~ N(0, sigma): mean stays at u, std approaches u*sigma.
    u = 100.0
    img = as_img(np.full((256, 256), u))
    out = add_multiplicative_speckle(img, SpeckleParams(model="multiplicative_gaussian", sigma=0.2, seed=11))
    assert abs(float(out.pixels.mean()) - u) < 1.0
    assert abs(float(out.pixels.std()) - u * 0.2) < 1.5


def test_rayleigh_mean_and_support():
    # Normalized so E[v] = u regardless of sigma; draws are never negative.
    u = 100.0
    img = as_img(np.full((256, 256), u))
    out = add_multiplicative_speckle(img, SpeckleParams(model="rayleigh", sigma=0.3, seed=12))
    assert abs(float(out.pixels.mean()) - u) < 1.5
    assert float(out.pixels.min()) >= 0.0


def test_rayleigh_sigma_cancels_under_unit_mean_normalization():
    # Rayleigh is a pure scale family, so dividing by E[r] = sigma*sqrt(pi/2)
    # removes sigma from the multiplier entirely: any positive sigma with the
    # same seed produces the same output up to one rounding (the draw is
    # scaled by sigma before the normalizer divides it back out), with fixed
    # relative spread sqrt(4/pi - 1).
    img = as_img(np.full((128, 128), 100.0))
    narrow = add_multiplicative_speckle(img, SpeckleParams(model="rayleigh", sigma=0.1, seed=3))
    wide = add_multiplicative_speckle(img, SpeckleParams(model="rayleigh", sigma=0.5, seed=3))
    assert np.allclose(narrow.pixels, wide.pixels, rtol=1e-12, atol=0)
    rel_std = float(wide.pixels.std()) / 100.0
    assert abs(rel_std - math.sqrt(4.0 / math.pi - 1.0)) < 0.02


def test_speckle_rejects_negative_pixels():
    img = as_img(np.array([[1.0, -2.0], [3.0, 4.0]]))
    with pytest.raises(DomainError):
        add_multiplicative_speckle(img, SpeckleParams(model="rayleigh", sigma=0.2, seed=0))


def test_additive_gaussian_moments_and_determinism():
    img = as_img(np.full((256, 256), 50.0))
    out = add_gaussian_noise(img, sigma=10.0, seed=21)
    assert abs(float(out.pixels.mean()) - 50.0) < 0.5
    assert abs(float(out.pixels.std()) - 10.0) < 0.5
    again = add_gaussian_noise(img, sigma=10.0, seed=21)
    assert np.array_equal(out.pixels, again.pixels)
    with pytest.raises(ParameterError):
        add_gaussian_noise(img, sigma=-1.0, seed=21)


def test_log_exp_roundtrip():
    arr = rand_image(8, 20, 20, lo=0, hi=255)
    img = as_img(arr)
    back = exp_expand(log_compress(img))
    assert np.allclose(back.pixels, arr, rtol=0, atol=1e-12)


def test_log_compress_rejects_negatives_by_location():
    img = as_img(np.array([[5.0, 1.0], [-3.0, 2.0]]))
    with pytest.raises(DomainError) as info:
        log_compress(img)
    assert "(1, 0)" in str(info.value)


def test_log_compress_epsilon_validation():
    img = as_img(np.ones((2, 2)))
    with pytest.raises(ParameterError):
        log_compress(img, epsilon=0.0)


def test_exp_expand_overflow_is_reported():
    img = as_img(np.array([[1.0, 800.0]]))
    with pytest.raises(NumericError) as info:
        exp_expand(img)
    assert "(0, 1)" in str(info.value)


class TestNoiseEstimate:
    def test_ramp_with_known_noise(self):
        # The residual mask annihilates any plane, so only the noise remains.
        yy, xx = np.mgrid[0:128, 0:128].astype(float)
        ramp = 0.5 * xx + 0.25 * yy + 30.0
        noisy = add_gaussian_noise(as_img(ramp), sigma=10.0, seed=40)
        est = estimate_noise_sigma(noisy)
        assert 8.5 <= est.sigma_n <= 11.5

    def test_structured_scene(self):
        noisy = add_gaussian_noise(as_img(make_phantom()), sigma=20.0, seed=41)
        est = estimate_noise_sigma(noisy)
        assert 17.0 <= est.sigma_n <= 23.0

    def test_constant_image_estimates_zero(self):
        assert estimate_noise_sigma(as_img(np.full((16, 16), 77.0))).sigma_n == 0.0

    def test_plane_estimates_zero(self):
        yy, xx = np.mgrid[0:16, 0:16].astype(float)
        est = estimate_noise_sigma(as_img(3.0 * xx - 2.0 * yy + 9.0))
        assert est.sigma_n < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    )
    def test_scale_equivariance(self, seed, scale):
        arr = rand_image(seed, 12, 12)
        base = estimate_noise_sigma(as_img(arr)).sigma_n
        scaled = estimate_noise_sigma(as_img(arr * scale)).sigma_n
        assert math.isclose(scaled, base * scale, rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("scale", [1e-120, 1e120])
    def test_faint_and_bright_images_are_measured(self, scale):
        # a measurement is not a parameter: it is not held to the range
        arr = rand_image(42, 16, 16)
        est = estimate_noise_sigma(as_img(arr * scale)).sigma_n
        assert est == pytest.approx(estimate_noise_sigma(as_img(arr)).sigma_n * scale, rel=1e-9)

    def test_too_small_image_rejected(self):
        with pytest.raises(ParameterError):
            estimate_noise_sigma(as_img(np.ones((2, 5))))
