import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rand_image
from despeckle import (
    GrayImage,
    ParameterError,
    gaussian_axis_weights,
    gaussian_blur,
    mirror_index,
)
from despeckle.image import mirror_indices, mirror_pad
from reference import conv2_full_mirror, naive_blur, reflect


class TestGrayImage:
    def test_shape_and_accessors(self):
        img = GrayImage.from_array(np.arange(12.0).reshape(3, 4))
        assert img.height == 3
        assert img.width == 4
        assert img.pixels.dtype == np.float64

    def test_pixels_are_read_only(self):
        img = GrayImage.from_array(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_from_array_copies(self):
        src = np.zeros((2, 2))
        img = GrayImage.from_array(src)
        src[0, 0] = 99.0
        assert img.pixels[0, 0] == 0.0

    def test_to_array_is_writable_copy(self):
        img = GrayImage.from_array(np.zeros((2, 2)))
        out = img.to_array()
        out[0, 0] = 5.0
        assert img.pixels[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [
        np.zeros(4),                      # 1-D
        np.zeros((0, 3)),                 # empty axis
        np.array([[1.0, np.nan]]),        # NaN
        np.array([[np.inf, 1.0]]),        # Inf
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParameterError):
            GrayImage.from_array(bad)


class TestMirror:
    def test_edge_cases(self):
        assert mirror_index(-1, 5) == 0
        assert mirror_index(5, 5) == 4
        assert mirror_index(0, 5) == 0
        assert mirror_index(4, 5) == 4
        assert mirror_index(-2, 5) == 1
        assert mirror_index(6, 5) == 3
        assert mirror_index(7, 1) == 0

    @given(st.integers(-200, 200), st.integers(1, 20))
    def test_matches_fold_oracle_and_stays_in_range(self, i, n):
        got = mirror_index(i, n)
        assert 0 <= got < n
        assert got == reflect(i, n)
        # half-sample symmetry about the left edge
        assert mirror_index(-1 - i, n) == mirror_index(i, n)

    @given(st.integers(1, 20), st.integers(0, 60))
    def test_vector_fold_matches_scalar_fold(self, n, pad):
        got = mirror_indices(n, pad)
        assert got.dtype == np.intp
        assert got.tolist() == [mirror_index(i - pad, n) for i in range(n + 2 * pad)]

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 60))
    def test_pad_matches_index_fold(self, height, width, pad):
        arr = np.arange(height * width, dtype=np.float64).reshape(height, width)
        want = arr[np.ix_(mirror_indices(height, pad), mirror_indices(width, pad))]
        assert np.array_equal(mirror_pad(arr, pad), want)

    def test_invalid_axis(self):
        with pytest.raises(ParameterError):
            mirror_index(0, 0)


class TestAxisWeights:
    def test_normalized_and_symmetric(self):
        w = gaussian_axis_weights(1.5)
        assert w.size == 2 * math.ceil(4.5) + 1
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(w, w[::-1], atol=0)

    def test_explicit_radius(self):
        w = gaussian_axis_weights(2.0, radius=1)
        assert w.size == 3

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ParameterError):
            gaussian_axis_weights(sigma)


class TestGaussianBlur:
    def test_impulse_center_coefficient(self):
        # Blurring a unit impulse reads back the kernel itself; the
        # center weight is the squared normalized 1-D center tap.
        arr = np.zeros((9, 9))
        arr[4, 4] = 1.0
        out = gaussian_blur(GrayImage.from_array(arr), 1.0).pixels
        taps = np.exp(-np.arange(-3, 4, dtype=float) ** 2 / 2.0)
        center = (1.0 / taps.sum()) ** 2
        assert abs(out[4, 4] - center) < 1e-12

    def test_matches_bruteforce_2d_convolution(self):
        arr = rand_image(42, 16, 16)
        out = gaussian_blur(GrayImage.from_array(arr), 1.2).pixels
        assert np.max(np.abs(out - naive_blur(arr, 1.2))) < 1e-12

    def test_against_generic_kernel_oracle(self):
        arr = rand_image(7, 12, 10)
        taps = gaussian_axis_weights(0.8)
        kernel = np.outer(taps, taps)
        out = gaussian_blur(GrayImage.from_array(arr), 0.8).pixels
        assert np.max(np.abs(out - conv2_full_mirror(arr, kernel))) < 1e-12

    def test_preserves_global_mean(self):
        arr = rand_image(3, 17, 23)
        out = gaussian_blur(GrayImage.from_array(arr), 2.0).pixels
        assert abs(out.mean() - arr.mean()) / arr.mean() < 1e-6

    def test_preserves_constants(self):
        img = GrayImage.from_array(np.full((8, 8), 77.0))
        out = gaussian_blur(img, 3.0).pixels
        assert np.max(np.abs(out - 77.0)) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_within_input_range(self, seed):
        arr = rand_image(seed, 14, 14)
        out = gaussian_blur(GrayImage.from_array(arr), 1.5).pixels
        assert out.min() >= arr.min() - 1e-9
        assert out.max() <= arr.max() + 1e-9

    def test_small_images(self):
        # pad exceeds the image on a 2x3; multi-period reflection must hold
        arr = np.array([[1.0, 5.0, 9.0], [2.0, 4.0, 8.0]])
        out = gaussian_blur(GrayImage.from_array(arr), 2.0).pixels
        assert np.max(np.abs(out - naive_blur(arr, 2.0))) < 1e-12
