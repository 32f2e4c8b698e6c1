import math
import tracemalloc

import numpy as np
import pytest

from conftest import as_img, make_phantom, make_step, rand_image
from despeckle import (
    MetricReport,
    NumericError,
    ParameterError,
    add_gaussian_noise,
    epi,
    evaluate,
    gaussian_blur,
    psnr,
    ssim,
)
from reference import naive_ssim


class TestPsnr:
    def test_identical_images_give_infinity(self):
        img = as_img(rand_image(50, 16, 16))
        assert psnr(img, img) == math.inf

    def test_known_mse(self):
        ref = as_img(np.zeros((10, 10)))
        test = as_img(np.ones((10, 10)))  # MSE exactly 1
        assert math.isclose(psnr(ref, test), 20.0 * math.log10(255.0), rel_tol=1e-12)

    def test_peak_parameter(self):
        ref = as_img(np.zeros((4, 4)))
        test = as_img(np.full((4, 4), 0.5))
        assert math.isclose(psnr(ref, test, peak=1.0), 10.0 * math.log10(1.0 / 0.25), rel_tol=1e-12)

    def test_symmetry(self):
        a = as_img(rand_image(51, 12, 12))
        b = as_img(rand_image(52, 12, 12))
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_error(self):
        ref = as_img(np.full((8, 8), 100.0))
        near = as_img(np.full((8, 8), 101.0))
        far = as_img(np.full((8, 8), 110.0))
        assert psnr(ref, near) > psnr(ref, far)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            psnr(as_img(np.zeros((4, 4))), as_img(np.zeros((4, 5))))

    @pytest.mark.parametrize("peak", [1e-100, 255.0, 1e100])
    def test_differences_whose_squares_underflow_still_score(self, peak):
        # every square of 1e-170 flushes to 0, but the images differ: 20
        # log10(peak / 1e-170), not the identical-images score
        zeros = as_img(np.zeros((16, 16)))
        faint = rand_image(57, 16, 16, 1.0, 2.0)
        want = 10.0 * math.log10(peak ** 2 / float(np.mean(faint ** 2))) + 3400.0
        assert psnr(zeros, as_img(np.full((16, 16), 1e-170)), peak=peak) == pytest.approx(
            20.0 * math.log10(peak) + 3400.0, rel=1e-12)
        assert psnr(zeros, as_img(faint * 1e-170), peak=peak) == pytest.approx(want, rel=1e-12)
        assert psnr(zeros, zeros, peak=peak) == math.inf

    def test_peak_validation(self):
        img = as_img(np.zeros((4, 4)))
        with pytest.raises(ParameterError):
            psnr(img, img, peak=0.0)


class TestSsim:
    def test_identical_images_give_exactly_one(self):
        img = as_img(rand_image(53, 20, 20))
        assert ssim(img, img) == 1.0

    def test_constant_pair_closed_form(self):
        # zero variance leaves only the luminance term
        x, y = 100.0, 120.0
        c1 = (0.01 * 255.0) ** 2
        want = (2.0 * x * y + c1) / (x * x + y * y + c1)
        got = ssim(as_img(np.full((16, 16), x)), as_img(np.full((16, 16), y)))
        assert math.isclose(got, want, rel_tol=1e-9)

    def test_symmetry(self):
        a = as_img(rand_image(54, 16, 16))
        b = as_img(rand_image(55, 16, 16))
        assert math.isclose(ssim(a, b), ssim(b, a), rel_tol=1e-12)

    def test_bounded(self):
        a = as_img(rand_image(56, 16, 16))
        b = as_img(255.0 - rand_image(56, 16, 16))
        val = ssim(a, b)
        assert -1.0 <= val <= 1.0

    def test_noise_lowers_score(self):
        clean = as_img(make_phantom(side=64))
        mild = add_gaussian_noise(clean, sigma=5.0, seed=60)
        harsh = add_gaussian_noise(clean, sigma=40.0, seed=60)
        assert ssim(clean, mild) > ssim(clean, harsh)
        assert ssim(clean, mild) < 1.0

    def test_window_must_fit(self):
        # default window is 11x11, so a 10-row image cannot be scored
        tiny = as_img(np.zeros((10, 12)))
        with pytest.raises(ParameterError):
            ssim(tiny, tiny)

    def test_window_side_derivation(self):
        # the window of sigma 1.5 is 11x11: the smallest image it fits
        img = as_img(rand_image(57, 11, 11))
        assert ssim(img, img) == 1.0
        narrow = as_img(np.zeros((11, 10)))
        with pytest.raises(ParameterError, match="11x11"):
            ssim(narrow, narrow)

    def test_params_validation(self):
        img = as_img(rand_image(58, 12, 12))
        for peak in (0.0, -255.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match="peak"):
                ssim(img, img, peak=peak)

    @pytest.mark.parametrize("peak", [255.0, 65535.0])
    @pytest.mark.parametrize("seed, shape", [(0, (11, 11)), (1, (16, 23)), (2, (21, 14))])
    def test_matches_naive_oracle(self, peak, seed, shape):
        x = rand_image(seed, *shape, hi=peak)
        noise = rand_image(seed + 100, *shape, lo=-0.2 * peak, hi=0.2 * peak)
        y = np.clip(x + noise, 0.0, peak)
        got = ssim(as_img(x), as_img(y), peak=peak)
        assert abs(got - naive_ssim(x, y, peak)) <= 1e-12
        # 8-bit data scored with a 16-bit range: only the stabilizers move
        if peak == 65535.0:
            small = ssim(as_img(x / 257.0), as_img(y / 257.0), peak=peak)
            assert abs(small - naive_ssim(x / 257.0, y / 257.0, peak)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            ssim(as_img(np.zeros((16, 16))), as_img(np.zeros((16, 17))))

    def test_peak_memory_is_under_seven_and_a_half_images(self):
        # the means, the variance sum, the covariance and one plane buffer,
        # plus one blur's padded input and first pass
        a, b = as_img(rand_image(59, 256, 256)), as_img(rand_image(60, 256, 256))
        ssim(a, b)  # warm up
        tracemalloc.start()
        try:
            ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * a.pixels.nbytes


class TestEpi:
    def test_identical_images_score_one(self):
        img = as_img(make_phantom(side=32))
        assert math.isclose(epi(img, img), 1.0, abs_tol=1e-12)

    def test_invariant_to_brightness_offset(self):
        arr = make_phantom(side=32)
        assert math.isclose(
            epi(as_img(arr), as_img(arr + 17.0)), 1.0, abs_tol=1e-12
        )

    def test_constant_image_scores_zero(self):
        flat = as_img(np.full((16, 16), 50.0))
        assert epi(flat, flat) == 0.0

    def test_blur_lowers_edge_preservation(self):
        step = as_img(make_step())
        blurred = gaussian_blur(step, 2.0)
        val = epi(step, blurred)
        assert 0.0 < val < 1.0

    def test_more_blur_scores_lower(self):
        step = as_img(make_step())
        mild = gaussian_blur(step, 0.8)
        strong = gaussian_blur(step, 2.5)
        assert epi(step, mild) > epi(step, strong)

    def test_needs_interior(self):
        with pytest.raises(ParameterError):
            epi(as_img(np.zeros((2, 5))), as_img(np.zeros((2, 5))))

    @pytest.mark.parametrize("k", [600, 1000])
    def test_faint_images_score_as_their_scaled_copies(self, k):
        # the squares of responses this faint underflow; the score must not
        a, b = rand_image(53, 16, 16, 1.0, 2.0), rand_image(54, 16, 16, 1.0, 2.0)
        faint = 2.0 ** -k
        for x, y in ((a, a), (a, b)):
            assert epi(as_img(x * faint), as_img(y * faint)) == epi(as_img(x), as_img(y))
        assert epi(as_img(a), as_img(b * faint)) == epi(as_img(a), as_img(b))
        tiny = as_img(a * 1e-170)
        assert math.isclose(epi(tiny, tiny), 1.0, abs_tol=1e-12)


class TestPeakRange:
    # peak is a parameter like any other: it must lie in errors.REAL_RANGE
    @pytest.mark.parametrize("metric", [psnr, ssim])
    @pytest.mark.parametrize("peak", [5e-324, 1e-300, 1.49e-154, 1.35e154, 1e300, 1.7e308])
    def test_out_of_range_peak_is_a_parameter_error(self, metric, peak):
        a, b = as_img(rand_image(55, 16, 16)), as_img(rand_image(56, 16, 16))
        with pytest.raises(ParameterError, match="^peak must be a positive finite real, got "):
            metric(a, b, peak=peak)

    def test_peak_at_the_ends_scores(self):
        a, b = as_img(rand_image(55, 16, 16)), as_img(rand_image(56, 16, 16))
        assert math.isfinite(psnr(a, b, peak=1e-100))
        assert math.isfinite(psnr(a, b, peak=1e100))
        for peak in (1e-100, 1e80, 1e100):
            # C1 C2 ~ 9e-8 peak^4 overflows from a peak of ~2e77; each term on its own does not
            assert -1.0 <= ssim(a, b, peak=peak) <= 1.0

    @pytest.mark.parametrize("test, peak, score", [(1e-100, 1e100, 4000.0), (1e70, 1e-100, -3400.0)])
    def test_differing_images_score_finite_where_the_quotient_leaves_the_floats(
            self, test, peak, score):
        # peak^2 / MSE overflows to inf (the identical-images score) or
        # underflows to 0 (no log); the score is then taken in logs
        zeros = as_img(np.zeros((16, 16)))
        assert psnr(zeros, as_img(np.full((16, 16), test)), peak=peak) == pytest.approx(score)

    def test_ordinary_scores_keep_the_quotients_bits(self):
        a, b = as_img(rand_image(55, 16, 16)), as_img(rand_image(56, 16, 16))
        mse = float(np.mean((a.pixels - b.pixels) ** 2))
        for peak in (1.0, 255.0, 65535.0):
            assert psnr(a, b, peak=peak) == 10.0 * math.log10(peak ** 2 / mse)


class TestOverflow:
    # Samples this large overflow the squares inside every metric; the
    # suite turns warnings into errors, so the overflow must stay silent
    # and end in a NumericError, never in a score such as a NaN clamped to -1.
    HUGE = as_img(rand_image(51, 16, 16, 1e199, 1e200))

    @pytest.mark.parametrize("metric", [ssim, epi])
    def test_identical_huge_images_raise_not_score(self, metric):
        with pytest.raises(NumericError, match=f"^{metric.__name__}: "):
            metric(self.HUGE, self.HUGE)

    def test_overflowing_mse_raises(self):
        with pytest.raises(NumericError, match="^psnr: "):
            psnr(as_img(np.array([[1e200]])), as_img(np.array([[-1e200]])))

    def test_evaluate_raises(self):
        with pytest.raises(NumericError):
            evaluate(self.HUGE, self.HUGE)


class TestReportAndEvaluate:
    def test_evaluate_bundles_all_three(self):
        ref = as_img(make_phantom(side=64))
        noisy = add_gaussian_noise(ref, sigma=10.0, seed=61)
        report = evaluate(ref, noisy)
        assert report.psnr_db == psnr(ref, noisy)
        assert report.ssim == ssim(ref, noisy)
        assert report.epi == epi(ref, noisy)

    def test_evaluate_passes_peak_to_psnr_and_ssim(self):
        ref = as_img(make_phantom(side=32) * 257.0)
        noisy = add_gaussian_noise(ref, sigma=2000.0, seed=62)
        report = evaluate(ref, noisy, peak=65535.0)
        assert report.psnr_db == psnr(ref, noisy, peak=65535.0)
        assert report.ssim == ssim(ref, noisy, peak=65535.0)
        assert report.ssim != ssim(ref, noisy)

    def test_csv_row_formatting(self):
        row = MetricReport(psnr_db=28.1234567, ssim=0.912345649, epi=0.5).csv_row(
            "phantom", "robust-nlm"
        )
        assert row == "phantom,robust-nlm,28.123457,0.912346,0.500000"

    def test_csv_row_infinite_psnr(self):
        row = MetricReport(psnr_db=math.inf, ssim=1.0, epi=1.0).csv_row("x", "nlm")
        assert row == "x,nlm,inf,1.000000,1.000000"

    def test_report_validation(self):
        with pytest.raises(ParameterError):
            MetricReport(psnr_db=math.nan, ssim=0.5, epi=0.5)
        with pytest.raises(ParameterError):
            MetricReport(psnr_db=30.0, ssim=1.5, epi=0.0)
        with pytest.raises(ParameterError):
            MetricReport(psnr_db=30.0, ssim=0.5, epi=-2.0)
