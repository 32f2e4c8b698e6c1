"""End-to-end acceptance checks for every shipped guarantee.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL" line (run pytest with -s to see the lines for
passing tests; failing tests show them in the captured-output section).

Criterion 5 asks that robustness cost nothing where there is nothing to
be robust against: on purely Gaussian multiplicative speckle, with the
default parameter formulas (h1 = 9*sigma_n, h2 = 148/sigma_n), the
robust filter must match classic non-local means in PSNR and EPI. It
holds because the corruption penalty acts only on pixels identified as
highly corrupted (beyond three local sigmas of their prefiltered
neighborhood); ordinary speckle and edge pixels keep a factor of 1.
"""

import hashlib
import math
import os
import time
from dataclasses import asdict

import numpy as np
import pytest

from conftest import as_img, make_phantom, make_step, rand_image, textured_image
from despeckle import workers
from despeckle import (
    FrostParams,
    GrayImage,
    LeeParams,
    NlmParams,
    RobustNlmParams,
    SpeckleParams,
    SradParams,
    add_gaussian_noise,
    add_multiplicative_speckle,
    compute_weight_field,
    epi,
    estimate_noise_sigma,
    exp_expand,
    frost_filter,
    gaussian_blur,
    lee_filter,
    load_pgm,
    log_compress,
    make_patch_kernel,
    nlm_denoise,
    patch_distance,
    psnr,
    robust_nlm_denoise,
    save_pgm,
    srad,
    ssim,
)
from reference import naive_frost, naive_lee, naive_nlm, naive_robust_nlm, srad_reference

CLASSIC_SMALL = NlmParams(h=50.0, search_radius=3, patch_radius=1)
ROBUST_SMALL = RobustNlmParams(**asdict(CLASSIC_SMALL), h2=10.0)


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ten_fixtures():
    return [textured_image(seed, 32, 32) for seed in range(10)]


@pytest.fixture(scope="module")
def classic_small_outputs(ten_fixtures):
    return [nlm_denoise(as_img(arr), CLASSIC_SMALL, threads=1).pixels for arr in ten_fixtures]


@pytest.fixture(scope="module")
def phantom256():
    return as_img(make_phantom())


@pytest.fixture(scope="module")
def noisy256(phantom256):
    params = SpeckleParams(model="multiplicative_gaussian", sigma=0.2, seed=7)
    return add_multiplicative_speckle(phantom256, params)


def test_criterion_01_oracle_equivalence(ten_fixtures, classic_small_outputs):
    start = time.perf_counter()
    worst = 0.0
    for arr, classic in zip(ten_fixtures, classic_small_outputs):
        want = naive_nlm(arr, 50.0, 3, 1, CLASSIC_SMALL.sigma_s)
        worst = max(worst, float(np.max(np.abs(classic - want))))
        robust = robust_nlm_denoise(as_img(arr), ROBUST_SMALL, threads=1).pixels
        want = naive_robust_nlm(arr, 50.0, 10.0, 1.5, 3, 1, CLASSIC_SMALL.sigma_s, "natural")
        worst = max(worst, float(np.max(np.abs(robust - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"max |delta| vs naive references {worst:.3e} (<= 1e-6), {elapsed:.2f}s (< 10s)")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_noisy_distance_offset():
    # kernel-weighted squared distance between two patches with independent
    # additive noise fields picks up exactly 2 sigma^2 in expectation
    start = time.perf_counter()
    yy, xx = np.mgrid[0:24, 0:24].astype(float)
    clean = 110.0 + 40.0 * np.sin(xx / 6.0) * np.cos(yy / 8.0)
    kernel = make_patch_kernel(3, 1.5)
    i, j = (8, 8), (15, 15)  # patches are disjoint, so their noise is independent
    d_clean = patch_distance(as_img(clean), i, j, kernel)
    rng = np.random.Generator(np.random.Philox(2024))
    sigma = 20.0
    draws = 10_000
    total = 0.0
    for _ in range(draws):
        noisy = clean + rng.normal(0.0, sigma, clean.shape)
        total += patch_distance(as_img(noisy), i, j, kernel)
    mean = total / draws
    expected = d_clean + 2.0 * sigma * sigma
    rel = abs(mean - expected) / expected
    elapsed = time.perf_counter() - start
    ok = rel <= 0.03 and elapsed < 5.0
    _report(2, ok, f"mean {mean:.2f} vs clean+800 = {expected:.2f}, rel err {rel:.4%} (<= 3%), {elapsed:.2f}s (< 5s)")
    assert rel <= 0.03
    assert elapsed < 5.0


def test_criterion_03_degenerate_equivalence(ten_fixtures, classic_small_outputs):
    # an infinite h2 forces every corruption factor to exp(-0) == 1
    degenerate = RobustNlmParams(**asdict(CLASSIC_SMALL), h2=math.inf)
    worst = 0.0
    for arr, classic in zip(ten_fixtures, classic_small_outputs):
        robust = robust_nlm_denoise(as_img(arr), degenerate, threads=1).pixels
        worst = max(worst, float(np.max(np.abs(robust - classic))))
    ok = worst <= 1e-9
    _report(3, ok, f"max |robust(h2=inf) - classic| = {worst:.3e} (<= 1e-9) on all ten fixtures")
    assert worst <= 1e-9


def test_criterion_04_weight_contract():
    rng = np.random.Generator(np.random.Philox(9))
    yy, xx = np.mgrid[0:64, 0:64].astype(float)
    arr = 120.0 + 40.0 * np.sin(yy / 5.0) * np.cos(xx / 7.0) + 10.0 * rng.standard_normal((64, 64))
    img = as_img(arr)
    params = RobustNlmParams(h=50.0, search_radius=3, patch_radius=1, h2=10.0)
    centers = [(int(r), int(c)) for r, c in rng.integers(0, 64, size=(100, 2))]

    worst_sum = 0.0
    min_drop = math.inf
    for center in centers:
        field = compute_weight_field(img, center, params)
        total = math.fsum(w for _, w in field.entries)
        worst_sum = max(worst_sum, abs(total - 1.0))
        assert all(0.0 <= w <= 1.0 for _, w in field.entries)

        # inject an outlier at an in-bounds window member and require its
        # normalized weight to strictly decrease
        dy = 2 if center[0] < 32 else -2
        dx = 1 if center[1] < 32 else -1
        target = (center[0] + dy, center[1] + dx)
        bumped = arr.copy()
        bumped[target] += 150.0
        after = compute_weight_field(as_img(bumped), center, params)
        w_before = dict(field.entries)[(dy, dx)]
        w_after = dict(after.entries)[(dy, dx)]
        assert w_after < w_before, (center, w_before, w_after)
        min_drop = min(min_drop, w_before - w_after)

    ok = worst_sum <= 1e-9
    _report(4, ok, f"100 pixels: worst |sum-1| = {worst_sum:.3e} (<= 1e-9), weights in [0,1], "
                   f"outlier weight always drops (min drop {min_drop:.3e})")
    assert worst_sum <= 1e-9


def test_criterion_05_denoising_efficacy(phantom256, noisy256):
    # Both filters run in the linear domain on the same input with the
    # default parameter formulas so the comparison is one-factor.
    start = time.perf_counter()
    sigma_n = estimate_noise_sigma(noisy256).sigma_n
    classic_params = NlmParams(h=9.0 * sigma_n)
    robust_params = RobustNlmParams(**asdict(classic_params), h2=148.0 / sigma_n)
    classic = nlm_denoise(noisy256, classic_params, threads=1)
    robust = robust_nlm_denoise(noisy256, robust_params, threads=1)
    elapsed = time.perf_counter() - start

    p_noisy = psnr(phantom256, noisy256)
    p_classic = psnr(phantom256, classic)
    p_robust = psnr(phantom256, robust)
    e_classic = epi(phantom256, classic)
    e_robust = epi(phantom256, robust)

    gain_ok = p_robust - p_noisy >= 2.0            # (a)
    psnr_ok = p_robust >= p_classic - 0.1          # (b) part 1
    epi_ok = e_robust >= e_classic - 0.01          # (b) part 2
    time_ok = elapsed < 60.0
    ok = gain_ok and psnr_ok and epi_ok and time_ok
    _report(5, ok,
            f"(a) robust-noisy = {p_robust - p_noisy:+.3f} dB (needs >= +2) "
            f"{'ok' if gain_ok else 'VIOLATED'}; "
            f"(b) robust-classic = {p_robust - p_classic:+.3f} dB (needs >= -0.1) "
            f"{'ok' if psnr_ok else 'VIOLATED'}, "
            f"EPI delta = {e_robust - e_classic:+.4f} (needs >= -0.01) "
            f"{'ok' if epi_ok else 'VIOLATED'}; {elapsed:.1f}s (< 60s)")

    # regression pins for this exact fixture; the robust pins date from
    # the filter that penalizes only identified outliers
    assert abs(sigma_n - 15.090151) < 1e-3
    assert abs(p_noisy - 22.268589) < 1e-2
    assert abs(p_classic - 26.561108) < 1e-2
    assert abs(p_robust - 26.561587) < 1e-2
    assert abs(e_classic - 0.436092) < 1e-3
    assert abs(e_robust - 0.436320) < 1e-3

    assert time_ok
    assert gain_ok, f"robust gain over noisy input {p_robust - p_noisy:.3f} dB < 2 dB"
    assert psnr_ok, (
        f"robust PSNR {p_robust:.4f} is {p_classic - p_robust:.3f} dB below classic "
        f"{p_classic:.4f}; the corruption penalty costs accuracy on outlier-free "
        f"Gaussian speckle"
    )
    assert epi_ok, (
        f"robust EPI {e_robust:.4f} vs classic {e_classic:.4f}: the penalty suppresses "
        f"edge candidates, blurring edges"
    )


def test_criterion_06_baseline_sanity(phantom256, noisy256):
    lee_params = LeeParams(window_radius=2, noise_sigma=0.2)
    frost_params = FrostParams(window_radius=2, damping=1.0)
    srad_params = SradParams(iterations=100, dt=0.05)

    # constant preservation is exact for integer-valued constants
    flat = as_img(np.full((16, 16), 128.0))
    lee_exact = np.array_equal(lee_filter(flat, lee_params).pixels, flat.pixels)
    frost_exact = np.array_equal(frost_filter(flat, frost_params).pixels, flat.pixels)
    srad_exact = np.array_equal(srad(flat, srad_params).pixels, flat.pixels)

    # every baseline must beat the noisy input on the speckled phantom
    sigma_n = estimate_noise_sigma(noisy256).sigma_n
    mean = float(noisy256.pixels.mean())
    p_noisy = psnr(phantom256, noisy256)
    gains = {}
    out = lee_filter(noisy256, LeeParams(window_radius=2, noise_sigma=sigma_n / mean))
    gains["lee"] = psnr(phantom256, out) - p_noisy
    out = frost_filter(noisy256, frost_params)
    gains["frost"] = psnr(phantom256, out) - p_noisy
    out = srad(noisy256, srad_params)
    gains["srad"] = psnr(phantom256, out) - p_noisy

    # brute-force oracle agreement at 16x16
    arr = textured_image(42, 16, 16)
    lee_err = float(np.max(np.abs(
        lee_filter(as_img(arr), lee_params).pixels - naive_lee(arr, 2, 0.2))))
    frost_err = float(np.max(np.abs(
        frost_filter(as_img(arr), frost_params).pixels - naive_frost(arr, 2, 1.0))))
    pos = np.abs(arr) + 1.0
    srad_err = float(np.max(np.abs(
        srad(as_img(pos), SradParams(iterations=5, dt=0.05)).pixels
        - srad_reference(pos, 5, 0.05, 1.0, 1.0))))

    ok = (lee_exact and frost_exact and srad_exact
          and all(g > 0 for g in gains.values())
          and max(lee_err, frost_err, srad_err) <= 1e-8)
    _report(6, ok,
            f"constants exact (lee={lee_exact}, frost={frost_exact}, srad={srad_exact}); "
            f"PSNR gains lee {gains['lee']:+.2f} frost {gains['frost']:+.2f} "
            f"srad {gains['srad']:+.2f} dB (all > 0); "
            f"oracle errors lee {lee_err:.1e} frost {frost_err:.1e} srad {srad_err:.1e} (<= 1e-8)")
    assert lee_exact and frost_exact and srad_exact
    assert all(g > 0 for g in gains.values()), gains
    assert max(lee_err, frost_err, srad_err) <= 1e-8


def test_criterion_07_determinism(monkeypatch):
    monkeypatch.setattr(workers, "_MIN_PASSES", 1)  # this small image splits too

    def digest(pixels):
        return hashlib.sha256(pixels.tobytes()).hexdigest()

    arr = textured_image(77, 48, 40)
    img = as_img(arr)
    thread_counts = sorted({1, 2, 4, os.cpu_count() or 1})

    checks = []
    for params, runner in (
        (CLASSIC_SMALL, nlm_denoise),
        (ROBUST_SMALL, robust_nlm_denoise),
    ):
        digests = {digest(runner(img, params, threads=t).pixels) for t in thread_counts}
        digests |= {digest(runner(img, params, threads=1).pixels)}  # repeat run
        checks.append(len(digests) == 1)

    for out_a, out_b in (
        (lee_filter(img, LeeParams()), lee_filter(img, LeeParams())),
        (frost_filter(img, FrostParams()), frost_filter(img, FrostParams())),
        (srad(as_img(np.abs(arr) + 1.0), SradParams(iterations=10)),
         srad(as_img(np.abs(arr) + 1.0), SradParams(iterations=10))),
    ):
        checks.append(digest(out_a.pixels) == digest(out_b.pixels))

    noise_params = SpeckleParams(model="rayleigh", sigma=0.3, seed=123)
    flat = as_img(np.full((32, 32), 90.0))
    checks.append(
        digest(add_multiplicative_speckle(flat, noise_params).pixels)
        == digest(add_multiplicative_speckle(flat, noise_params).pixels)
    )

    ok = all(checks)
    _report(7, ok, f"bit-identical checksums across threads {thread_counts} and repeats "
                   f"for nlm, robust-nlm, lee, frost, srad, synth")
    assert all(checks), checks


def test_criterion_08_metric_correctness(phantom256):
    checks = []

    # closed-form and degenerate examples
    img = as_img(rand_image(60, 16, 16))
    checks.append(psnr(img, img) == math.inf)
    a = as_img(np.full((8, 8), 40.0))
    b = as_img(np.full((8, 8), 50.0))
    checks.append(math.isclose(psnr(a, b), 10.0 * math.log10(65025.0 / 100.0), rel_tol=1e-12))
    zero = as_img(np.zeros((8, 8)))
    peak = as_img(np.full((8, 8), 255.0))
    checks.append(math.isclose(psnr(zero, peak), 0.0, abs_tol=1e-12))

    checks.append(ssim(img, img) == 1.0)
    c1 = (0.01 * 255.0) ** 2
    want = (2.0 * 100.0 * 110.0 + c1) / (100.0**2 + 110.0**2 + c1)
    got = ssim(as_img(np.full((16, 16), 100.0)), as_img(np.full((16, 16), 110.0)))
    checks.append(math.isclose(got, want, rel_tol=1e-9))
    noised = add_gaussian_noise(phantom256, sigma=50.0, seed=88)
    ssim_heavy = ssim(phantom256, noised)
    checks.append(ssim_heavy < 0.5)
    checks.append(abs(ssim_heavy - 0.062869) < 1e-3)  # pinned regression value

    step = as_img(make_step())
    checks.append(math.isclose(epi(step, step), 1.0, abs_tol=1e-12))
    checks.append(math.isclose(epi(step, as_img(make_step() + 25.0)), 1.0, abs_tol=1e-12))
    epi_blur = epi(step, gaussian_blur(step, 3.0))
    checks.append(epi_blur < 1.0)
    checks.append(abs(epi_blur - 0.141559) < 1e-3)  # pinned regression value

    sigmas = (5.0, 10.0, 20.0, 40.0, 80.0)
    values = [psnr(phantom256, add_gaussian_noise(phantom256, sigma=s, seed=300 + int(s)))
              for s in sigmas]
    monotone = all(x > y for x, y in zip(values, values[1:]))
    checks.append(monotone)

    ok = all(checks)
    _report(8, ok, f"closed-form psnr/ssim/epi examples pass; psnr over sigma "
                   f"{tuple(int(s) for s in sigmas)} = {[round(v, 2) for v in values]}, "
                   f"strictly decreasing: {monotone}")
    assert all(checks), checks


def test_criterion_09_round_trips(tmp_path):
    arr = rand_image(61, 15, 17)
    worst_cases = []
    for maxval in (255, 65535):
        first = tmp_path / f"a{maxval}.pgm"
        second = tmp_path / f"b{maxval}.pgm"
        save_pgm(GrayImage(arr), first, maxval=maxval)
        save_pgm(load_pgm(first), second, maxval=maxval)
        worst_cases.append(first.read_bytes() == second.read_bytes())
        worst_cases.append(np.array_equal(load_pgm(first).pixels, load_pgm(second).pixels))

    img = as_img(rand_image(62, 20, 20, lo=0, hi=255))
    log_err = float(np.max(np.abs(exp_expand(log_compress(img)).pixels - img.pixels)))
    ok = all(worst_cases) and log_err <= 1e-6
    _report(9, ok, f"PGM save/load idempotent at maxval 255 and 65535; "
                   f"log/exp round-trip max |delta| = {log_err:.2e} (<= 1e-6)")
    assert all(worst_cases)
    assert log_err <= 1e-6


def test_criterion_10_benchmark_smoke():
    clean = as_img(make_phantom(side=512))
    params = SpeckleParams(model="multiplicative_gaussian", sigma=0.2, seed=7)
    noisy = add_multiplicative_speckle(clean, params)
    sigma_n = estimate_noise_sigma(noisy).sigma_n
    robust_params = RobustNlmParams(h=9.0 * sigma_n, h2=148.0 / sigma_n)
    start = time.perf_counter()
    out = robust_nlm_denoise(noisy, robust_params, threads=1)
    elapsed = time.perf_counter() - start
    rate = (512 * 512) / elapsed
    assert np.all(np.isfinite(out.pixels))
    assert out.pixels.shape == (512, 512)
    # tracked benchmark, not a hard gate: the 120 s budget is reported only
    ok = True
    _report(10, ok, f"512x512 robust filter, 21x21 search, 7x7 patch, single thread: "
                    f"{elapsed:.2f}s ({rate:,.0f} px/s); 120s budget tracked, not enforced")
