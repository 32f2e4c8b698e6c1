import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import MatmulSpy, rand_image
from despeckle import (
    GrayImage,
    ParameterError,
    gaussian_axis_weights,
    gaussian_blur,
)
from despeckle import image
from despeckle.image import blur_array, correlate1d_valid, mirror_pad, tap_band
from reference import conv2_full_mirror, naive_blur, reflect


class TestGrayImage:
    def test_shape_and_accessors(self):
        img = GrayImage(np.arange(12.0).reshape(3, 4))
        assert img.height == 3
        assert img.width == 4
        assert img.pixels.dtype == np.float64

    def test_pixels_are_read_only(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_from_array_copies(self):
        src = np.zeros((2, 2))
        img = GrayImage(src)
        src[0, 0] = 99.0
        assert img.pixels[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [
        np.zeros(4),                      # 1-D
        np.zeros((0, 3)),                 # empty axis
        np.array([[1.0, np.nan]]),        # NaN
        np.array([[np.inf, 1.0]]),        # Inf
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParameterError):
            GrayImage(bad)


def folded(n, pad):
    """Where `mirror_pad` sends each index of an axis of length n padded
    by ``pad``: entry k is the fold of k - pad."""
    return mirror_pad(np.arange(n), pad).tolist()


class TestMirror:
    def test_edge_cases(self):
        row = folded(5, 2)  # row[k + 2] is where index k folds to
        assert (row[-1 + 2], row[5 + 2]) == (0, 4)  # -1 -> 0, n -> n - 1
        assert row == [1, 0, 0, 1, 2, 3, 4, 4, 3]
        assert folded(1, 7) == [0] * 15
        # pads wider than 2n reflect over several periods
        assert folded(2, 5) == [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
        assert folded(3, 7) == [0, 0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0, 0, 1, 2, 2]

    @given(st.integers(1, 20), st.integers(0, 200))
    def test_matches_fold_oracle_and_stays_in_range(self, n, pad):
        got = folded(n, pad)
        assert all(0 <= i < n for i in got)
        assert got == [reflect(k - pad, n) for k in range(n + 2 * pad)]
        # half-sample symmetry about the left edge: -1 - i folds like i
        assert got[:pad][::-1] == got[pad : 2 * pad]

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 60))
    def test_pad_matches_index_fold(self, height, width, pad):
        arr = np.arange(height * width, dtype=np.float64).reshape(height, width)
        rows = [reflect(k - pad, height) for k in range(height + 2 * pad)]
        cols = [reflect(k - pad, width) for k in range(width + 2 * pad)]
        assert np.array_equal(mirror_pad(arr, pad), arr[np.ix_(rows, cols)])


class TestAxisWeights:
    def test_normalized_and_symmetric(self):
        w = gaussian_axis_weights(1.5)
        assert w.size == 2 * math.ceil(4.5) + 1
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(w, w[::-1], atol=0)

    def test_explicit_radius(self):
        w = gaussian_axis_weights(2.0, radius=1)
        assert w.size == 3

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 9.9e-101, 1.01e100])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ParameterError):
            gaussian_axis_weights(sigma)

    @pytest.mark.parametrize("sigma", [1e-100])
    def test_tiny_sigma_gives_the_unit_impulse(self, sigma):
        # at the bottom of the range the plain formula gives the limit, as
        # at sigma = 0.01, with no warning
        for radius in (None, 0, 1, 3):
            w = gaussian_axis_weights(sigma, radius)
            c = w.size // 2
            assert w.tolist() == [0.0] * c + [1.0] + [0.0] * c
            assert w.tobytes() == gaussian_axis_weights(0.01, radius).tobytes()

    @pytest.mark.parametrize("sigma", [1e100])
    def test_huge_sigma_gives_the_normalized_box(self, sigma):
        # at the top of the range the plain formula gives the limit
        for radius in (0, 1, 3, 10):
            w = gaussian_axis_weights(sigma, radius)
            assert w.tobytes() == np.full(2 * radius + 1, 1.0 / (2 * radius + 1)).tobytes()

    def test_exactly_symmetric(self):
        # so correlating with the taps is convolving with them
        for sigma in (0.01, 0.05, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.3, 5.0, 11.0):
            for radius in (None, 0, 1, 2, 3, 4, 5, 6, 9):
                w = gaussian_axis_weights(sigma, radius)
                assert w.tobytes() == w[::-1].tobytes()


def naive_correlate(arr, taps, axis):
    """Valid-mode correlation summed tap by tap along ``axis``."""
    moved = np.moveaxis(arr, axis, 0)
    n = moved.shape[0] - taps.size + 1
    total = sum(tap * moved[k : k + n] for k, tap in enumerate(taps.tolist()))
    return np.moveaxis(total, 0, axis)


@st.composite
def correlation_cases(draw):
    radius = draw(st.integers(0, 6))
    # sigma 0.02 and 0.05 leave the taps from one and from two pixels
    # out exactly 0
    sigma = draw(st.sampled_from([0.02, 0.05]) | st.floats(0.2, 8.0))
    factor = draw(st.sampled_from([1.0, -1.0, -3.7e-4, -2.5e3]))
    taps = gaussian_axis_weights(sigma, radius) * factor
    height = draw(st.integers(taps.size, taps.size + 12))
    width = draw(st.integers(taps.size, taps.size + 12))
    seed = draw(st.integers(0, 2**32 - 1))
    return rand_image(seed, height, width), taps


class TestCorrelation:
    @given(correlation_cases())
    def test_matches_tap_by_tap_sum(self, case):
        arr, taps = case
        for axis in (0, 1):
            got = correlate1d_valid(arr, taps, axis)
            want = naive_correlate(arr, taps, axis)
            scale = naive_correlate(np.abs(arr), np.abs(taps), axis)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_zero_outer_taps_give_no_nan(self):
        taps = gaussian_axis_weights(0.02, 4)
        assert taps[0] == taps[1] == 0.0
        arr = rand_image(5, 12, 12)
        for scale in (1.0, -0.0, -1e300):
            got = correlate1d_valid(arr, taps * scale, 0)
            assert np.array_equal(got, arr[4:-4] * (taps[4] * scale))

    @given(correlation_cases(), st.data())
    def test_bands_and_offset_slices_keep_bits(self, case, data):
        arr, taps = case
        c = taps.size // 2
        full0 = correlate1d_valid(arr, taps, 0)
        full1 = correlate1d_valid(arr, taps, 1)
        y0 = data.draw(st.integers(0, full0.shape[0] - 1))
        y1 = data.draw(st.integers(y0 + 1, full0.shape[0]))
        x0 = data.draw(st.integers(0, full1.shape[1] - 1))
        band = correlate1d_valid(arr[y0 : y1 + 2 * c], taps, 0)
        assert band.tobytes() == full0[y0:y1].tobytes()
        shifted = correlate1d_valid(arr[:, x0:], taps, 1)
        assert shifted.tobytes() == full1[:, x0:].tobytes()

    def test_allocates_only_its_output(self):
        taps = gaussian_axis_weights(1.5, 6)

        def peak(arr, axis):
            correlate1d_valid(arr, taps, axis)  # warm up
            tracemalloc.start()
            try:
                out = correlate1d_valid(arr, taps, axis)
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        arr = rand_image(9, 600, 1000)  # each output is about 4.6 MiB
        # the tap band and a few small Python objects: the blocks are
        # views and the products write the output in place
        band = tap_band(taps).nbytes
        assert peak(arr, 0) < band + 4096
        assert peak(arr, 1) < band + 4096


def mirror_gauss_oracle(arr, sigma, radius):
    """The 2-D Gaussian blur as one weighted sum of mirror-folded reads
    (`reference.reflect`) per window offset: weights
    exp(-(dx^2 + dy^2) / (2 sigma^2)) normalized over the (2 radius + 1)^2
    window. Python floats take the limits: at sigma 0.01 every weight but
    the center's underflows to 0, and at sigma 1e100 all are 1."""
    h, w = arr.shape
    span = range(-radius, radius + 1)
    rows = [reflect(y, h) for y in range(-radius, h + radius)]
    folded = arr[rows][:, [reflect(x, w) for x in range(-radius, w + radius)]]
    weights = {(dy, dx): math.exp(-(dy * dy + dx * dx) / (2.0 * sigma * sigma))
               for dy in span for dx in span}
    total, out = math.fsum(weights.values()), np.zeros((h, w))
    for (dy, dx), weight in weights.items():
        out += weight / total * folded[radius + dy : radius + dy + h, radius + dx : radius + dx + w]
    return out


class TestBlurArray:
    @pytest.mark.parametrize("shape, sigma", [
        ((1, 17), 1.5), ((17, 1), 1.5),  # one row, one column
        ((3, 3), 2.0),                   # a reach of 6 folds past the sides, twice
        ((12, 9), 0.01),                 # the unit impulse
        ((2, 21), 3.3), ((21, 5), 0.7),
    ])
    def test_matches_mirror_fold_oracle(self, shape, sigma):
        arr = rand_image(71, *shape)
        want = mirror_gauss_oracle(arr, sigma, math.ceil(3.0 * sigma))
        got = blur_array(arr, sigma)
        assert got.shape == shape
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("sigma", [1e100])
    def test_huge_sigma_taps_blur_as_the_box(self, sigma):
        # no image admits a reach of 3 sigma here, so these taps get a
        # radius of their own, as the patch kernel's do, and run through
        # blur_array's two passes
        arr = rand_image(72, 5, 7)
        taps = gaussian_axis_weights(sigma, 4)
        got = correlate1d_valid(correlate1d_valid(mirror_pad(arr, 4), taps, 0), taps, 1)
        want = mirror_gauss_oracle(arr, sigma, 4)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("shape", [(16, 200_000), (3000, 40)])
    def test_products_stay_on_the_calling_thread(self, shape):
        # each product, m n k multiply-adds, is small enough that OpenBLAS
        # runs it on the calling thread (none may run on BLAS threads in a
        # process that forks engine workers later); a wide row or a tall
        # column in one product would not be
        sizes = []
        spy = MatmulSpy(lambda x, y: sizes.append(x.shape[-2] * x.shape[-1] * y.shape[-1]))
        arr = rand_image(73, *shape)
        with mock.patch.object(image, "np", spy):
            got = blur_array(arr, 1.0)
        assert sizes and max(sizes) <= image._BLAS_SERIAL
        want = mirror_gauss_oracle(arr, 1.0, 3)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


class TestGaussianBlur:
    def test_impulse_center_coefficient(self):
        # Blurring a unit impulse reads back the kernel itself; the
        # center weight is the squared normalized 1-D center tap.
        arr = np.zeros((9, 9))
        arr[4, 4] = 1.0
        out = gaussian_blur(GrayImage(arr), 1.0).pixels
        taps = np.exp(-np.arange(-3, 4, dtype=float) ** 2 / 2.0)
        center = (1.0 / taps.sum()) ** 2
        assert abs(out[4, 4] - center) < 1e-12

    def test_sigma_reach_is_bounded_by_the_mirror_period(self):
        # 2 max(3, 12, 10) = 24 bounds the blur radius ceil(3 sigma)
        img = GrayImage(rand_image(43, 3, 12))
        assert gaussian_blur(img, 8.0).pixels.shape == (3, 12)
        for sigma in (8.01, 1e200):
            with pytest.raises(ParameterError, match="^sigma for a 3x12 image must be a positive finite real <= 8,"):
                gaussian_blur(img, sigma)

    def test_matches_bruteforce_2d_convolution(self):
        arr = rand_image(42, 16, 16)
        out = gaussian_blur(GrayImage(arr), 1.2).pixels
        assert np.max(np.abs(out - naive_blur(arr, 1.2))) < 1e-12

    def test_against_generic_kernel_oracle(self):
        arr = rand_image(7, 12, 10)
        taps = gaussian_axis_weights(0.8)
        kernel = np.outer(taps, taps)
        out = gaussian_blur(GrayImage(arr), 0.8).pixels
        assert np.max(np.abs(out - conv2_full_mirror(arr, kernel))) < 1e-12

    def test_preserves_global_mean(self):
        arr = rand_image(3, 17, 23)
        out = gaussian_blur(GrayImage(arr), 2.0).pixels
        assert abs(out.mean() - arr.mean()) / arr.mean() < 1e-6

    def test_preserves_constants(self):
        img = GrayImage(np.full((8, 8), 77.0))
        out = gaussian_blur(img, 3.0).pixels
        assert np.max(np.abs(out - 77.0)) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_within_input_range(self, seed):
        arr = rand_image(seed, 14, 14)
        out = gaussian_blur(GrayImage(arr), 1.5).pixels
        assert out.min() >= arr.min() - 1e-9
        assert out.max() <= arr.max() + 1e-9

    def test_small_images(self):
        # pad exceeds the image on a 2x3; multi-period reflection must hold
        arr = np.array([[1.0, 5.0, 9.0], [2.0, 4.0, 8.0]])
        out = gaussian_blur(GrayImage(arr), 2.0).pixels
        assert np.max(np.abs(out - naive_blur(arr, 2.0))) < 1e-12
