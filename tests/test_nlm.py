import hashlib
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import asdict, fields
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MatmulSpy,
    as_img,
    assert_children_of_a_killed_caller_stop,
    assert_no_children,
    child_env,
    fail,
    make_phantom,
    open_fds,
    rand_image,
    textured_image,
)
from despeckle import nlm as engine
from despeckle import workers
from despeckle import (
    GrayImage,
    NlmParams,
    NumericError,
    ParameterError,
    RobustNlmParams,
    SpeckleParams,
    add_multiplicative_speckle,
    compute_weight_field,
    epi,
    estimate_noise_sigma,
    make_patch_kernel,
    nlm_denoise,
    patch_distance,
    psnr,
    robust_nlm_denoise,
    save_pgm,
)
from despeckle.cli import denoise, main as cli_main
from reference import naive_kernel, naive_nlm, naive_patch_distance, naive_robust_nlm

SMALL = NlmParams(h=40.0, search_radius=3, patch_radius=1)
SMALL_ROBUST = RobustNlmParams(**asdict(SMALL), h2=25.0)


def with_impulses(arr, seed, rate):
    """Salt-and-pepper: a seeded ``rate`` share of pixels set to 0 or 255."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = arr.copy()
    hit = rng.random(arr.shape) < rate
    salt = rng.random(arr.shape) < 0.5
    out[hit & salt] = 255.0
    out[hit & ~salt] = 0.0
    return out


class TestPatchKernel:
    def test_matches_naive_construction(self):
        for radius, sigma_s in ((1, 0.5), (2, 1.0), (3, 1.5), (4, 2.7)):
            kern = make_patch_kernel(radius, sigma_s)
            ref = naive_kernel(radius, sigma_s)
            assert isinstance(kern, np.ndarray) and kern.dtype == np.float64
            assert kern.shape == (2 * radius + 1, 2 * radius + 1)
            assert np.allclose(kern, ref, rtol=0, atol=1e-14)

    def test_sums_to_one(self):
        kern = make_patch_kernel(3, 1.5)
        assert math.isclose(float(kern.sum()), 1.0, abs_tol=1e-12)

    def test_is_read_only(self):
        kern = make_patch_kernel(2, 1.0)
        with pytest.raises(ValueError):
            kern[0, 0] = 1.0

    def test_radius_zero_is_single_unit_weight(self):
        kern = make_patch_kernel(0, 1.0)
        assert kern.shape == (1, 1)
        assert kern[0, 0] == 1.0

    def test_tiny_sigma_gives_the_center_weight(self):
        kern = make_patch_kernel(3, 1e-300)
        assert kern.tobytes() == make_patch_kernel(3, 0.01).tobytes()
        assert kern[3, 3] == 1.0 and kern.sum() == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            make_patch_kernel(-1, 1.0)
        with pytest.raises(ParameterError):
            make_patch_kernel(2, 0.0)


class TestPatchDistance:
    def test_identical_centers_give_zero(self):
        img = as_img(rand_image(0, 10, 10))
        kern = make_patch_kernel(2, 1.0)
        assert patch_distance(img, (4, 4), (4, 4), kern) == 0.0

    def test_symmetry(self):
        img = as_img(rand_image(1, 12, 12))
        kern = make_patch_kernel(3, 1.5)
        d_ij = patch_distance(img, (5, 4), (8, 9), kern)
        d_ji = patch_distance(img, (8, 9), (5, 4), kern)
        assert math.isclose(d_ij, d_ji, rel_tol=1e-12)

    def test_matches_naive_everywhere(self):
        arr = rand_image(2, 9, 8)
        img = as_img(arr)
        kern = make_patch_kernel(2, 1.0)
        # includes centers whose patches hang over every border
        for i in ((0, 0), (1, 7), (8, 0), (4, 4), (8, 7), (0, 3)):
            for j in ((2, 2), (0, 7), (8, 3), (5, 6)):
                got = patch_distance(img, i, j, kern)
                want = naive_patch_distance(arr, i, j, 2, 1.0)
                assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11)

    def test_clamps_huge_squares_as_the_filter_does(self):
        # (1e200)^2 overflows; each square is clamped at 1e300, so the
        # kernel's zero taps meet no inf and the distance stays finite
        arr = np.zeros((9, 3))
        arr[4] = 1e200
        img = as_img(arr)
        assert patch_distance(img, (4, 1), (3, 1), make_patch_kernel(1, 0.01)) == 1e300
        assert math.isfinite(patch_distance(img, (4, 1), (3, 1), make_patch_kernel(1, 0.5)))

    def test_names_the_center_outside_the_image(self):
        img = as_img(rand_image(3, 9, 3))
        kern = make_patch_kernel(1, 0.5)
        with pytest.raises(ParameterError, match=r"^i \(9, 0\) is outside a 9x3 image$"):
            patch_distance(img, (9, 0), (1, 1), kern)
        with pytest.raises(ParameterError, match=r"^j \[1, -1\] is outside a 9x3 image$"):
            patch_distance(img, (1, 1), [1, -1], kern)
        params = RobustNlmParams(h=10.0, h2=10.0, search_radius=1, patch_radius=1)
        with pytest.raises(ParameterError, match=r"^center \(0, 3\) is outside a 9x3 image$"):
            compute_weight_field(img, (0, 3), params)

    def test_rejects_out_of_bounds_center(self):
        img = as_img(rand_image(3, 6, 6))
        kern = make_patch_kernel(1, 0.5)
        with pytest.raises(ParameterError):
            patch_distance(img, (6, 0), (1, 1), kern)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (9,), (3, 3, 3)])
    def test_rejects_kernel_not_square_of_odd_side(self, shape):
        img = as_img(rand_image(4, 8, 8))
        with pytest.raises(ParameterError, match="odd side"):
            patch_distance(img, (2, 2), (5, 5), np.full(shape, 1.0 / math.prod(shape)))


class TestClassicAgainstOracle:
    def test_matches_naive_filter(self):
        arr = textured_image(7, 16, 16)
        got = nlm_denoise(as_img(arr), SMALL).pixels
        want = naive_nlm(arr, 40.0, 3, 1, SMALL.sigma_s)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_matches_naive_max_neighbor(self):
        arr = textured_image(8, 14, 15)
        params = NlmParams(h=40.0, search_radius=3, patch_radius=1, self_weight="max_neighbor")
        got = nlm_denoise(as_img(arr), params).pixels
        want = naive_nlm(arr, 40.0, 3, 1, params.sigma_s, self_weight="max_neighbor")
        assert np.max(np.abs(got - want)) < 1e-6

    def test_matches_naive_on_wide_window(self):
        arr = textured_image(9, 12, 12)
        params = NlmParams(h=60.0, search_radius=5, patch_radius=2)
        got = nlm_denoise(as_img(arr), params).pixels
        want = naive_nlm(arr, 60.0, 5, 2, params.sigma_s)
        assert np.max(np.abs(got - want)) < 1e-6


class TestRobustAgainstOracle:
    def test_matches_naive_filter(self):
        arr = textured_image(10, 16, 16)
        got = robust_nlm_denoise(as_img(arr), SMALL_ROBUST).pixels
        want = naive_robust_nlm(arr, 40.0, 25.0, 1.5, 3, 1, SMALL.sigma_s, "natural")
        assert np.max(np.abs(got - want)) < 1e-6

    def test_matches_naive_max_neighbor(self):
        arr = textured_image(11, 13, 16)
        base = NlmParams(h=40.0, search_radius=3, patch_radius=1, self_weight="max_neighbor")
        got = robust_nlm_denoise(as_img(arr), RobustNlmParams(**asdict(base), h2=25.0)).pixels
        want = naive_robust_nlm(arr, 40.0, 25.0, 1.5, 3, 1, base.sigma_s, "max_neighbor")
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("self_weight", ["natural", "max_neighbor"])
    def test_matches_naive_with_impulses(self, self_weight):
        # impulses push some pixels past the three-sigma band, so the
        # corruption factor is below 1 there and the oracle checks its value
        arr = with_impulses(textured_image(12, 16, 16), seed=12, rate=0.1)
        base = NlmParams(h=40.0, search_radius=3, patch_radius=1, self_weight=self_weight)
        got = robust_nlm_denoise(as_img(arr), RobustNlmParams(**asdict(base), h2=25.0)).pixels
        want = naive_robust_nlm(arr, 40.0, 25.0, 1.5, 3, 1, base.sigma_s, self_weight)
        assert np.max(np.abs(got - want)) < 1e-6
        assert np.max(np.abs(got - nlm_denoise(as_img(arr), base).pixels)) > 1.0


class TestRobustOnImpulses:
    def test_beats_classic_on_speckle_with_impulses(self):
        # the seeded speckled phantom of acceptance criterion 5, plus 5%
        # salt-and-pepper: the pixels the robust weight exists to discount
        clean = as_img(make_phantom())
        noisy = add_multiplicative_speckle(clean, SpeckleParams(
            model="multiplicative_gaussian", sigma=0.2, seed=7))
        img = GrayImage(with_impulses(noisy.pixels, seed=2024, rate=0.05))
        sigma_n = estimate_noise_sigma(img).sigma_n
        base = NlmParams(h=9.0 * sigma_n)
        classic = nlm_denoise(img, base)
        robust = robust_nlm_denoise(img, RobustNlmParams(**asdict(base), h2=148.0 / sigma_n))
        assert psnr(clean, robust) > psnr(clean, classic)
        assert epi(clean, robust) >= epi(clean, classic)


class TestFilterInvariants:
    def test_constant_image_is_preserved_exactly(self):
        # integer-valued constant: every weight is exactly 1.0 and the
        # normalized sum reproduces the constant with no rounding at all
        img = as_img(np.full((12, 12), 128.0))
        out = nlm_denoise(img, SMALL)
        assert np.array_equal(out.pixels, img.pixels)

    def test_robust_constant_preservation(self):
        img = as_img(np.full((12, 12), 128.0))
        out = robust_nlm_denoise(img, SMALL_ROBUST)
        assert np.max(np.abs(out.pixels - 128.0)) < 1e-9

    def test_single_pixel_image_is_identity(self):
        img = as_img(np.array([[42.5]]))
        assert nlm_denoise(img, SMALL).pixels[0, 0] == 42.5
        assert robust_nlm_denoise(img, SMALL_ROBUST).pixels[0, 0] == 42.5

    def test_output_stays_within_input_range(self):
        arr = rand_image(12, 20, 20, lo=7, hi=213)
        for out in (
            nlm_denoise(as_img(arr), SMALL),
            robust_nlm_denoise(as_img(arr), SMALL_ROBUST),
        ):
            assert out.pixels.min() >= arr.min() - 1e-12
            assert out.pixels.max() <= arr.max() + 1e-12

    def test_flip_equivariance(self):
        # mirror boundary and symmetric taps commute with flips up to
        # floating-point reassociation
        arr = textured_image(13, 18, 17)
        flipped = nlm_denoise(as_img(arr[::-1, ::-1].copy()), SMALL).pixels
        direct = nlm_denoise(as_img(arr), SMALL).pixels[::-1, ::-1]
        assert np.max(np.abs(flipped - direct)) < 1e-9

    def test_shift_equivariance_is_bit_exact_on_interior(self):
        # rows whose whole read footprint is in bounds see identical inputs
        # in identical order, so cropping a row off the top must not change
        # them at all
        arr = textured_image(14, 24, 16)
        full = nlm_denoise(as_img(arr), SMALL).pixels
        cropped = nlm_denoise(as_img(arr[1:, :].copy()), SMALL).pixels
        pad = 3 + 1  # search_radius + patch_radius
        assert np.array_equal(full[1 + pad : 24 - pad, :], cropped[pad : 23 - pad, :])

    def test_infinite_h2_reduces_to_classic_bitwise(self):
        # |v - vhat| / inf == 0 and exp(0) == 1, so the corruption factor
        # multiplies nothing and the arithmetic is literally the same
        arr = textured_image(15, 16, 16)
        robust = robust_nlm_denoise(as_img(arr), RobustNlmParams(**asdict(SMALL), h2=math.inf))
        classic = nlm_denoise(as_img(arr), SMALL)
        assert robust.pixels.tobytes() == classic.pixels.tobytes()

    def test_vanishing_h_returns_input_exactly(self):
        # all cross weights underflow to 0 while the self weight stays
        # exp(-0) == 1, so each pixel averages only with itself
        arr = rand_image(16, 10, 10)
        out = nlm_denoise(as_img(arr), NlmParams(h=1e-300, search_radius=3, patch_radius=1))
        assert np.array_equal(out.pixels, arr)

    def test_extreme_finite_inputs_match_the_oracles(self):
        # The squared differences at these pixels overflow to inf, which
        # weighs the candidate 0; the engine must not make NaN of them.
        arr = textured_image(44, 14, 13)
        arr[2, 3], arr[7, 9], arr[11, 1] = 1e200, -1e200, 1e180
        robust = RobustNlmParams(**asdict(SMALL), h2=25.0)
        runs = ((lambda threads: nlm_denoise(as_img(arr), SMALL, threads=threads),
                 naive_nlm(arr, 40.0, 3, 1, SMALL.sigma_s)),
                (lambda threads: robust_nlm_denoise(as_img(arr), robust, threads=threads),
                 naive_robust_nlm(arr, 40.0, 25.0, 1.5, 3, 1, SMALL.sigma_s, "natural")))
        with mock.patch.object(os, "cpu_count", return_value=2), \
                mock.patch.object(workers, "_MIN_PASSES", 1):
            assert engine.engine_plan(2, 14, 13, SMALL)[1] == 2
            for run, want in runs:
                got = run(1).pixels
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
                assert run(2).pixels.tobytes() == got.tobytes()

    def test_threads_do_not_change_bits(self, monkeypatch):
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)  # tiny images fork too
        arr = textured_image(17, 23, 19)
        one = nlm_denoise(as_img(arr), SMALL, threads=1).pixels.tobytes()
        assert nlm_denoise(as_img(arr), SMALL, threads=2).pixels.tobytes() == one
        assert nlm_denoise(as_img(arr), SMALL, threads=5).pixels.tobytes() == one
        r1 = robust_nlm_denoise(as_img(arr), SMALL_ROBUST, threads=1).pixels.tobytes()
        assert robust_nlm_denoise(as_img(arr), SMALL_ROBUST, threads=3).pixels.tobytes() == r1
        # Past this machine's CPU cap: 3 and 4 workers over one-row tiles,
        # 7, 8, 8 and 5, 6, 6, 6 of them, so the workers' tile counts differ.
        with mock.patch.object(os, "cpu_count", return_value=4), \
                mock.patch.object(engine, "_TILE_PIXELS", 19), \
                mock.patch.object(os, "fork", side_effect=os.fork) as fork:
            for threads in (3, 4):
                assert engine.engine_plan(threads, 23, 19, SMALL) == (1, threads)
                assert nlm_denoise(as_img(arr), SMALL, threads=threads).pixels.tobytes() == one
                robust = robust_nlm_denoise(as_img(arr), SMALL_ROBUST, threads=threads)
                assert robust.pixels.tobytes() == r1
        assert fork.call_count == 2 * (2 + 3)  # two calls each at 3 and at 4 workers

    def test_thread_count_validation(self):
        img = as_img(rand_image(18, 8, 8))
        for bad in (-1, True, 1.5, "2"):
            with pytest.raises(ParameterError):
                nlm_denoise(img, SMALL, threads=bad)
        # 0 means one worker per core
        nlm_denoise(img, SMALL, threads=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_oracle_agreement_property(self, seed):
        arr = rand_image(seed, 8, 8)
        got = nlm_denoise(as_img(arr), SMALL).pixels
        want = naive_nlm(arr, 40.0, 3, 1, SMALL.sigma_s)
        assert np.max(np.abs(got - want)) < 1e-6


@st.composite
def engine_cases(draw):
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    # search radius up to twice the longer side, within a work budget
    # that keeps the brute-force oracle and the one-row tiles quick
    budget = min(20_000 // (height * width), 4_000 // height)
    cap = max(1, min(2 * max(height, width), (math.isqrt(budget) - 1) // 2))
    return (height, width, draw(st.integers(1, cap)), draw(st.integers(1, 2)))


class TestEngine:
    @settings(max_examples=25, deadline=None)
    @given(case=engine_cases(), seed=st.integers(0, 2**32 - 1),
           self_weight=st.sampled_from(["natural", "max_neighbor"]), robust=st.booleans())
    # case = (height, width, search radius, patch radius): single rows and
    # columns, search radii of at least twice the longer side, patch radius 2
    @example(case=(1, 23, 5, 1), seed=1, self_weight="natural", robust=True)
    @example(case=(23, 1, 5, 1), seed=2, self_weight="max_neighbor", robust=False)
    @example(case=(1, 9, 18, 2), seed=3, self_weight="max_neighbor", robust=True)
    @example(case=(7, 1, 14, 2), seed=4, self_weight="natural", robust=False)
    @example(case=(4, 6, 12, 2), seed=5, self_weight="natural", robust=True)
    @example(case=(5, 3, 10, 2), seed=6, self_weight="max_neighbor", robust=False)
    def test_tiles_and_threads_keep_bits_and_oracle_agreement(self, case, seed, self_weight,
                                                              robust):
        height, width, search_radius, patch_radius = case
        arr = textured_image(seed, height, width)
        base = NlmParams(h=40.0, search_radius=search_radius, patch_radius=patch_radius,
                         self_weight=self_weight)
        if robust:
            def run(threads):
                return robust_nlm_denoise(as_img(arr), RobustNlmParams(**asdict(base), h2=25.0),
                                          threads=threads).pixels
            want = naive_robust_nlm(arr, 40.0, 25.0, 1.5, search_radius, patch_radius,
                                    base.sigma_s, self_weight)
        else:
            def run(threads):
                return nlm_denoise(as_img(arr), base, threads=threads).pixels
            want = naive_nlm(arr, 40.0, search_radius, patch_radius, base.sigma_s, self_weight)
        first = run(1)
        assert np.max(np.abs(first - want)) < 1e-6
        # tile heights 1, 2 and the default; four CPUs and no work floor
        # let 3 and 4 workers run on a smaller machine and a tiny image too
        with mock.patch.object(os, "cpu_count", return_value=4), \
                mock.patch.object(workers, "_MIN_PASSES", 1):
            for tile_pixels in (1, 2 * width, engine._TILE_PIXELS):
                with mock.patch.object(engine, "_TILE_PIXELS", tile_pixels):
                    for threads in (1, 2, 3, 4):
                        assert run(threads).tobytes() == first.tobytes()

    @pytest.mark.parametrize("robust", [False, True])
    @pytest.mark.parametrize("self_weight", ["natural", "max_neighbor"])
    @pytest.mark.parametrize("h, sigma_s", [(40.0, 0.05), (40.0, 0.02), (math.inf, 1.0)])
    def test_oracle_at_zero_outer_taps_and_infinite_h(self, h, sigma_s, self_weight, robust):
        # sigma_s 0.05 and 0.02 leave the outer patch taps exactly 0 (from
        # two and from one pixel out); h = inf makes every weight 1, a box
        # average over the search window
        height, width = 9, 11
        arr = textured_image(31, height, width)
        base = NlmParams(h=h, search_radius=3, patch_radius=2, sigma_s=sigma_s,
                         self_weight=self_weight)
        if robust:
            def run(threads):
                return robust_nlm_denoise(as_img(arr), RobustNlmParams(**asdict(base), h2=25.0),
                                          threads=threads).pixels
            want = naive_robust_nlm(arr, h, 25.0, 1.5, 3, 2, sigma_s, self_weight)
        else:
            def run(threads):
                return nlm_denoise(as_img(arr), base, threads=threads).pixels
            want = naive_nlm(arr, h, 3, 2, sigma_s, self_weight)
        first = run(1)
        assert np.max(np.abs(first - want)) < 1e-9
        for tile_pixels in (1, 2 * width, engine._TILE_PIXELS):
            with mock.patch.object(engine, "_TILE_PIXELS", tile_pixels), \
                    mock.patch.object(workers, "_MIN_PASSES", 1):
                for threads in (1, 2):
                    assert run(threads).tobytes() == first.tobytes()

    def test_worker_count_is_capped_by_cpus_and_tiles(self):
        before = threading.active_count()
        cpus = os.cpu_count() or 1
        big = RobustNlmParams(h=40.0, search_radius=10**3, h2=25.0)  # work far past any floor
        rows, count = engine.engine_plan(10**6, 10**6, 1, big)
        assert 1 <= count <= cpus
        assert rows <= engine._TILE_PIXELS
        assert engine.engine_plan(10**6, 1, 512, big) == (1, 1)  # one tile, one worker
        # a row wider than a tile still gets a one-row tile
        assert engine.engine_plan(1, 4, 10 * engine._TILE_PIXELS, big) == (1, 1)
        assert threading.active_count() == before

    def test_blas_threads_do_not_change_bits(self):
        # Rows this wide would make a column product of more than
        # _BLAS_SERIAL multiply-adds, which OpenBLAS splits over threads.
        height, width, search_radius, patch_radius = 24, 2600, 2, 3
        script = textwrap.dedent(f"""
            import hashlib, os
            import numpy as np
            from despeckle import GrayImage, NlmParams, RobustNlmParams, nlm_denoise, robust_nlm_denoise
            from despeckle import workers
            os.cpu_count = lambda: 2
            workers._MIN_PASSES = 1  # this image is below the floor of a second worker
            arr = np.random.Generator(np.random.Philox(45)).uniform(0, 255, ({height}, {width}))
            radii = dict(search_radius={search_radius}, patch_radius={patch_radius})
            for threads in (1, 2):
                for out in (nlm_denoise(GrayImage(arr), NlmParams(h=40.0, **radii), threads=threads),
                            robust_nlm_denoise(GrayImage(arr),
                                               RobustNlmParams(h=40.0, **radii, h2=25.0),
                                               threads=threads)):
                    print(hashlib.sha256(out.pixels.tobytes()).hexdigest())
        """)
        digests = []
        for blas_threads in ("1", None):
            env = child_env(OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=None,
                            GOTO_NUM_THREADS=None)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert digests[0] == digests[1]
        assert digests[0][0] == digests[0][2] and digests[0][1] == digests[0][3]
        # and each product, m n k multiply-adds, stays within the size
        # OpenBLAS runs on one thread; one unchunked row would not
        sizes = []
        arr = np.random.Generator(np.random.Philox(45)).uniform(0, 255, (height, width))
        base = NlmParams(h=40.0, search_radius=search_radius, patch_radius=patch_radius)
        record = MatmulSpy(lambda x, y: sizes.append(x.shape[-2] * x.shape[-1] * y.shape[-1]))
        with mock.patch.object(engine, "np", record):
            out = nlm_denoise(as_img(arr), base, threads=1)
        assert hashlib.sha256(out.pixels.tobytes()).hexdigest() == digests[0][0]
        assert sizes and max(sizes) <= engine._BLAS_SERIAL
        band, padded_width = engine._BAND, width + 2 * (search_radius + patch_radius)
        assert band * (band + 2 * patch_radius) * padded_width > engine._BLAS_SERIAL

    @pytest.mark.parametrize("patch_radius", [1, 2, 3])
    def test_blas_rows_do_not_depend_on_the_row_count(self, patch_radius):
        # Tiles change only how many blocks of rows a product spans and
        # where a row sits in it; the engine's bits rest on BLAS giving a
        # row, or a block, the same bits whatever that count and place.
        blame = ("OpenBLAS chose a GEMM kernel whose rows depend on the row count, so the "
                 "engine's bits depend on its tiling on this CPU; the engine is not at fault")
        bands = {}

        def grab(x, y):  # the column band is the left factor, the row band the right one
            bands.update({"col": x} if x.ndim == 2 else {"row": y})

        params = NlmParams(h=40.0, search_radius=1, patch_radius=patch_radius)
        with mock.patch.object(engine, "np", MatmulSpy(grab)):
            nlm_denoise(as_img(rand_image(46, 8, 8)), params)
        col_band, row_band = bands["col"].copy(), bands["row"].copy()
        band, inner = engine._BAND, col_band.shape[1]
        most = band * (engine._BLAS_SERIAL // (band * band * inner))  # rows of the largest
        rng = np.random.Generator(np.random.Philox(patch_radius))
        rows = (rng.uniform(0.0, 255.0, (most, 3 * inner)) ** 2)[:, :inner]
        want = np.matmul(rows, row_band)
        for count in range(band, most + 1, band):
            for y0 in {0, (most - count) // (2 * band) * band, most - count}:
                got = np.matmul(rows[y0 : y0 + count], row_band)
                assert got.tobytes() == want[y0 : y0 + count].tobytes(), blame
        nblk = 6
        flat = rng.uniform(0.0, 255.0, (nblk * band + 2 * patch_radius) * most) ** 2
        blocks = as_strided(flat, (nblk, inner, most), (8 * band * most, 8 * most, 8))
        want = np.matmul(col_band, blocks)
        for count in range(1, nblk + 1):
            for j0 in range(nblk - count + 1):
                got = np.matmul(col_band, blocks[j0 : j0 + count])
                assert got.tobytes() == want[j0 : j0 + count].tobytes(), blame

    def test_peak_memory_grows_only_by_full_image_arrays(self):
        search_radius, patch_radius, width = 2, 1, 128
        tile = engine._TILE_PIXELS // width  # the same tile height at both image heights
        params = NlmParams(h=40.0, search_radius=search_radius, patch_radius=patch_radius,
                           self_weight="max_neighbor")
        pad, band = search_radius + patch_radius, engine._BAND
        stride = -(-(width + 2 * pad) // band) * band  # one column chunk at this width

        def full_image_bytes(height):
            # padded input and padded penalty, down to the rows under the
            # last block of distances, and the output
            rows = -(-(height + search_radius) // band) * band + 2 * patch_radius + search_radius + 1
            return 8 * (2 * rows * stride + height * width)

        def peak(height):
            img = as_img(textured_image(height, height, width))
            corr = np.full_like(img.pixels, 0.5)
            tracemalloc.start()
            try:
                engine._filter_engine(img, params, corr, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # per tile: differences then distances, column products, and the
        # acc, norm and wmax rows
        blocks = (tile + search_radius + band - 2) // band + 1
        scratch = 8 * ((2 * blocks * band + 2 * patch_radius) * stride + 2 * patch_radius
                       + 3 * tile * stride)
        slack = 256 * 1024  # fixed costs: index vectors, ufunc buffers, interpreter objects
        small, tall = peak(256), peak(1024)
        assert small <= full_image_bytes(256) + scratch + slack
        assert tall - small <= full_image_bytes(1024) - full_image_bytes(256) + slack


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the engine forks its workers")
class TestForkedWorkers:
    @staticmethod
    def _patch_kernel(monkeypatch, caller_action, child_action):
        """Run ``caller_action`` or ``child_action`` before each of the
        engine's matrix products, by the process that makes it."""
        caller = os.getpid()
        monkeypatch.setattr(engine, "np", MatmulSpy(
            lambda x, y: (caller_action if os.getpid() == caller else child_action)()))

    def test_child_failure_raises_numeric_error_and_leaks_nothing(self, monkeypatch, tmp_path,
                                                                  capsys):
        arr = rand_image(41, 24, 16)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)
        assert engine.engine_plan(2, 24, 16, SMALL)[1] == 2
        self._patch_kernel(monkeypatch, lambda: None, fail)
        fds = open_fds()
        with pytest.raises(NumericError, match="worker process failed: RuntimeError: injected"):
            nlm_denoise(as_img(arr), SMALL, threads=2)
        assert_no_children()
        assert open_fds() == fds
        save_pgm(as_img(arr), tmp_path / "in.pgm")
        assert cli_main(["denoise", str(tmp_path / "in.pgm"), str(tmp_path / "out.pgm"),
                         "--search-radius", "3", "--patch-radius", "1", "--threads", "2"]) == 1
        assert "error: an NLM worker process failed: RuntimeError" in capsys.readouterr().err
        assert_no_children()

    def test_caller_failure_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)
        stalled = []

        def stall():  # once per child, so the call returns in time only if it kills them
            if not stalled:
                stalled.append(True)
                time.sleep(20)

        self._patch_kernel(monkeypatch, fail, stall)
        fds = open_fds()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected failure"):
            nlm_denoise(as_img(rand_image(42, 40, 16)), SMALL, threads=4)
        assert time.monotonic() - start < 10
        assert_no_children()
        assert open_fds() == fds

    def test_runs_serially_beside_other_threads_or_without_fork(self, monkeypatch):
        arr = textured_image(43, 24, 16)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)
        one = nlm_denoise(as_img(arr), SMALL, threads=1).pixels.tobytes()
        fork = mock.Mock(side_effect=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        helper = threading.Thread(target=release.wait, args=(30,))
        helper.start()
        try:
            assert nlm_denoise(as_img(arr), SMALL, threads=2).pixels.tobytes() == one
        finally:
            release.set()
            helper.join(timeout=30)
        assert not helper.is_alive()
        assert fork.call_count == 0
        # with the helper gone, the same call forks its one child
        assert nlm_denoise(as_img(arr), SMALL, threads=2).pixels.tobytes() == one
        assert fork.call_count == 1
        monkeypatch.delattr(os, "fork")
        assert nlm_denoise(as_img(arr), SMALL, threads=2).pixels.tobytes() == one


    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states")
    def test_children_of_a_killed_caller_stop(self):
        # each child stops before its next tile
        assert_children_of_a_killed_caller_stop("""
            import numpy as np
            from despeckle import GrayImage, NlmParams, RobustNlmParams, robust_nlm_denoise
            from despeckle import nlm
            nlm._TILE_PIXELS = 8 * 256  # tiles of about 0.1 s, some 5 s for the child
            arr = np.random.Generator(np.random.Philox(46)).uniform(0, 255, (1024, 256))
            params = RobustNlmParams(h=40.0, search_radius=40, h2=25.0)
            robust_nlm_denoise(GrayImage(arr), params, threads=2)
        """)


class TestWeightField:
    def _field(self, arr, center, h1=50.0, h2=20.0):
        base = NlmParams(h=h1, search_radius=3, patch_radius=1)
        params = RobustNlmParams(**asdict(base), h2=h2)
        return compute_weight_field(as_img(arr), center, params), params

    def test_entry_count_and_sum(self):
        arr = textured_image(20, 16, 16)
        field, _ = self._field(arr, (8, 8))
        assert len(field.entries) == 7 * 7
        total = math.fsum(w for _, w in field.entries)
        assert abs(total - 1.0) < 1e-9
        assert all(0.0 <= w <= 1.0 for _, w in field.entries)
        assert field.normalizer > 0.0

    def test_reconstructs_filter_output(self):
        arr = textured_image(21, 16, 16)
        # both self-weight rules, the corner centres among the inputs
        for self_weight in ("natural", "max_neighbor"):
            base = NlmParams(h=50.0, search_radius=3, patch_radius=1, self_weight=self_weight)
            params = RobustNlmParams(**asdict(base), h2=20.0)
            filtered = robust_nlm_denoise(as_img(arr), params).pixels
            for center in ((8, 8), (0, 0), (15, 3), (2, 15)):
                field = compute_weight_field(as_img(arr), center, params)
                pad = np.pad(arr, 3 + 1, mode="symmetric")
                acc = math.fsum(
                    w * pad[center[0] + 4 + dy, center[1] + 4 + dx]
                    for (dy, dx), w in field.entries
                )
                assert abs(acc - filtered[center]) < 1e-9

    def test_outlier_weight_drops(self):
        arr = textured_image(22, 16, 16).copy()
        center = (8, 8)
        target = (10, 9)
        before, _ = self._field(arr, center)
        bumped = arr.copy()
        bumped[target] += 150.0
        after, _ = self._field(bumped, center)
        offset = (target[0] - center[0], target[1] - center[1])
        w_before = dict(before.entries)[offset]
        w_after = dict(after.entries)[offset]
        assert w_after < w_before

    def test_max_neighbor_self_weight(self):
        arr = textured_image(23, 16, 16)
        base = NlmParams(h=50.0, search_radius=3, patch_radius=1, self_weight="max_neighbor")
        field = compute_weight_field(as_img(arr), (8, 8), RobustNlmParams(**asdict(base), h2=20.0))
        weights = dict(field.entries)
        self_w = weights.pop((0, 0))
        assert math.isclose(self_w, max(weights.values()), rel_tol=1e-12)

    def test_center_must_be_in_bounds(self):
        arr = rand_image(24, 8, 8)
        with pytest.raises(ParameterError):
            self._field(arr, (8, 0))

    @pytest.mark.parametrize("decay", [dict(h=1e150, sigma_s=0.5), dict(h=1e200),
                                       dict(h=math.inf), dict(h=1e150, sigma_s=0.01)])
    def test_shares_the_filters_guards_at_huge_samples(self, decay):
        # Every squared difference here exceeds 1e300 and meets the clamp;
        # h = 1e200 and inf floor the decay to -0, and sigma_s = 0.01
        # gives the kernel zero taps, which must not meet an inf.
        arr = rand_image(25, 16, 16, 1e199, 1e200)
        params = RobustNlmParams(search_radius=2, patch_radius=1, h2=1e200, **decay)
        field = compute_weight_field(as_img(arr), (8, 8), params)
        assert all(0.0 <= w <= 1.0 for _, w in field.entries)
        assert abs(math.fsum(w for _, w in field.entries) - 1.0) < 1e-9
        pad = np.pad(arr, 2, mode="symmetric")
        acc = math.fsum(w * pad[10 + dy, 10 + dx] for (dy, dx), w in field.entries)
        want = robust_nlm_denoise(as_img(arr), params).pixels[8, 8]
        assert abs(acc - want) <= 1e-9 * abs(want)

    def test_total_underflow_keeps_the_pixel_as_the_filter_does(self):
        # every cross weight underflows and max_neighbor's self weight is
        # their maximum, 0: C(i) = 0, and the filter returns its input
        arr = rand_image(26, 16, 16, 50.0, 200.0)
        params = RobustNlmParams(search_radius=2, patch_radius=1, h=1e-3, h2=1e200,
                                 self_weight="max_neighbor")
        assert np.array_equal(robust_nlm_denoise(as_img(arr), params).pixels, arr)
        field = compute_weight_field(as_img(arr), (8, 8), params)
        assert field.normalizer == 0.0
        identity = {offset: float(offset == (0, 0)) for offset, _ in field.entries}
        assert dict(field.entries) == identity


class TestParams:
    def test_sigma_s_defaults_to_half_patch_radius(self):
        assert NlmParams(h=10.0).sigma_s == 1.5
        assert NlmParams(h=10.0, patch_radius=2).sigma_s == 1.0
        assert NlmParams(h=10.0, sigma_s=0.8).sigma_s == 0.8

    def test_shipped_defaults(self):
        params = NlmParams(h=10.0)
        assert params.search_radius == 10
        assert params.patch_radius == 3
        assert params.self_weight == "natural"
        robust = RobustNlmParams(**asdict(params), h2=5.0)
        assert robust.prefilter_sigma == 1.5

    def test_h_validation(self):
        with pytest.raises(ParameterError):
            NlmParams(h=0.0)
        with pytest.raises(ParameterError):
            NlmParams(h=-3.0)
        with pytest.raises(ParameterError):
            NlmParams(h=math.nan)
        NlmParams(h=math.inf)  # an infinite decay is a flat box average

    def test_window_validation(self):
        with pytest.raises(ParameterError):
            NlmParams(h=10.0, search_radius=0)
        with pytest.raises(ParameterError):
            NlmParams(h=10.0, patch_radius=-1)
        with pytest.raises(ParameterError):
            NlmParams(h=10.0, patch_radius=0)
        # patch windows may exceed the search window; they pad independently
        NlmParams(h=10.0, search_radius=1, patch_radius=4)

    def test_patch_radius_past_any_array_is_a_parameter_error(self):
        # the default sigma_s, patch_radius / 2, would not fit a float
        with pytest.raises(ParameterError, match="^patch_radius must be an integer"):
            NlmParams(h=10.0, patch_radius=10**400)

    def test_self_weight_validation(self):
        with pytest.raises(ParameterError):
            NlmParams(h=10.0, self_weight="clamp")

    @pytest.mark.parametrize("search_radius, patch_radius", [(10**6, 1), (1, 10**6)])
    def test_oversized_radius_fails_fast_in_bounded_memory(self, search_radius, patch_radius):
        img = as_img(rand_image(25, 8, 8))
        base = NlmParams(h=40.0, search_radius=search_radius, patch_radius=patch_radius)
        robust = RobustNlmParams(**asdict(base), h2=25.0)
        name = "search_radius" if search_radius > 1 else "patch_radius"
        for call in (lambda: nlm_denoise(img, base), lambda: robust_nlm_denoise(img, robust),
                     lambda: compute_weight_field(img, (3, 3), robust)):
            with pytest.raises(ParameterError):
                call()  # lazy imports on first use are not the rejection's cost
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(ParameterError, match=f"^{name} for a 8x8 image"):
                    call()
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 0.5
            assert peak < 2**20

    def test_radius_bound_is_twice_the_longer_side_or_twenty(self):
        tall = as_img(textured_image(26, 3, 12))
        for search_radius, patch_radius in ((24, 1), (1, 24)):
            base = NlmParams(h=40.0, search_radius=search_radius, patch_radius=patch_radius)
            compute_weight_field(tall, (1, 5), RobustNlmParams(**asdict(base), h2=25.0))
        for search_radius, patch_radius in ((25, 1), (1, 25)):
            with pytest.raises(ParameterError):
                nlm_denoise(tall, NlmParams(h=40.0, search_radius=search_radius,
                                            patch_radius=patch_radius))
        one = as_img(np.array([[7.0]]))
        assert nlm_denoise(one, NlmParams(h=40.0, search_radius=20)).pixels[0, 0] == 7.0
        with pytest.raises(ParameterError):
            nlm_denoise(one, NlmParams(h=40.0, search_radius=21))

    def test_sigmas_are_bounded_by_the_mirror_period(self):
        # 2 max(3, 12, 10) = 24 bounds sigma_s and the prefilter's blur
        # radius ceil(3 prefilter_sigma)
        tall = as_img(textured_image(26, 3, 12))
        base = NlmParams(h=40.0, search_radius=2, patch_radius=1, sigma_s=24.0)
        at_bound = RobustNlmParams(**asdict(base), h2=25.0, prefilter_sigma=8.0)
        nlm_denoise(tall, base)
        robust_nlm_denoise(tall, at_bound)
        compute_weight_field(tall, (1, 5), at_bound)
        wide = NlmParams(h=40.0, search_radius=2, patch_radius=1, sigma_s=1e200)
        wide_robust = RobustNlmParams(**asdict(wide), h2=25.0)
        for run in (lambda: nlm_denoise(tall, wide),
                    lambda: robust_nlm_denoise(tall, wide_robust),
                    lambda: compute_weight_field(tall, (1, 5), wide_robust)):
            with pytest.raises(ParameterError, match="^sigma_s for a 3x12 image must be a positive finite real <= 24,"):
                run()
        past = RobustNlmParams(**asdict(base), h2=25.0, prefilter_sigma=8.01)
        for run in (lambda: robust_nlm_denoise(tall, past),
                    lambda: compute_weight_field(tall, (1, 5), past)):
            with pytest.raises(ParameterError,
                               match="^prefilter_sigma for a 3x12 image must be a .* <= 8,"):
                run()

    def test_h2_validation(self):
        with pytest.raises(ParameterError):
            RobustNlmParams(h=10.0, h2=0.0)
        with pytest.raises(ParameterError):
            RobustNlmParams(h=10.0, h2=math.nan)
        with pytest.raises(ParameterError):
            RobustNlmParams(h=10.0, h2=5.0, prefilter_sigma=0.0)

    def test_robust_fields_are_the_classic_fields_then_two(self):
        names = [field.name for field in fields(RobustNlmParams)]
        assert names == [field.name for field in fields(NlmParams)] + ["h2", "prefilter_sigma"]
        # the classic checks run too
        with pytest.raises(ParameterError, match="^h must be"):
            RobustNlmParams(h=0.0, h2=5.0)
        with pytest.raises(ParameterError, match="^search_radius must be"):
            RobustNlmParams(h=10.0, search_radius=0, h2=5.0)

    def test_the_config_rebuilds_the_params_that_ran(self):
        img = as_img(textured_image(48, 16, 16))
        out, config = denoise(img, "robust-nlm", domain="linear", threads=1, search_radius=3,
                              patch_radius=1, self_weight="max_neighbor")
        params = RobustNlmParams(**{field.name: config[field.name]
                                    for field in fields(RobustNlmParams)})
        assert asdict(params) == {key: config[key] for key in asdict(params)}
        assert np.array_equal(robust_nlm_denoise(img, params, threads=1).pixels, out.pixels)

    def test_each_filter_refuses_the_others_params(self):
        img = as_img(rand_image(49, 12, 12))
        with pytest.raises(ParameterError, match="^params must be NlmParams, got RobustNlmParams$"):
            nlm_denoise(img, SMALL_ROBUST)
        for run in (lambda: robust_nlm_denoise(img, SMALL),
                    lambda: compute_weight_field(img, (5, 5), SMALL)):
            with pytest.raises(ParameterError,
                               match="^params must be RobustNlmParams, got NlmParams$"):
                run()
