"""Non-local means denoising, classic and robust.

Both filters restore a pixel as a weighted average of the pixels in a
square search window around it. The weight of a candidate j combines
the kernel-weighted squared distance between the patch around i and the
patch around j; the robust variant first identifies the highly
corrupted pixels and then gives them less weight. A pixel j is
identified when its deviation |v(j) - v_hat(j)| from a Gaussian
prefilter v_hat exceeds tau(j), three local sigmas estimated from the
blurred mean absolute deviation; its weight is multiplied by
exp(-max(0, |v(j) - v_hat(j)| - tau(j)) / h2). Every other pixel keeps
a factor of exactly 1, so ordinary noise and edges are weighed as in
classic non-local means, while outliers contribute little to the
average even when their patch happens to look similar.

Boundary handling treats the image as extended by mirror reflection:
window positions and patch reads past the border resolve against the
reflected surface (the padded-array convention).

The engine pads the input and the penalty by R + r (search plus patch
radius) and flattens both, so that all its arrays share one row stride
S = W + 2(R + r). A search offset (dy, dx) is then the flat step
dy S + dx, and each pass over an offset (difference, column taps, row
taps, exp, accumulation) reads and writes one contiguous slice. It
works in row tiles of about `_TILE_PIXELS` pixels, pulled by a pool of
at most one worker per CPU, each reading the shared padded arrays and
writing its rows of the output. Patch distances are symmetric, so each
offset o of the half window serves both candidates i + o and i - o.
Every pixel adds its self term, then the +o and -o terms of each
half-window offset in one fixed order, so output bits do not depend on
the thread count or the tile height.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, check_int, check_real
from .image import (
    GrayImage,
    blur_array,
    correlate1d_into,
    correlate1d_valid,  # noqa: F401  (perfbench/tracing.py wraps this binding)
    gaussian_axis_weights,
    mirror_indices,
    mirror_pad,
)

SELF_WEIGHT_MODES = ("natural", "max_neighbor")
# Pixels per row tile: 256 KiB per tile-sized float64 array.
_TILE_PIXELS = 32768


@dataclass(frozen=True)
class PatchKernel:
    """Gaussian weighting of patch positions.

    ``weights`` is the full (2 radius + 1)^2 grid, proportional to
    exp(-(dx^2 + dy^2) / (2 sigma_s^2)) and normalized to sum 1. The
    unit sum is what makes patch distances commensurable across kernel
    sizes (and makes the additive-noise distance offset come out as
    exactly twice the noise variance).
    """

    radius: int
    sigma_s: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        side = 2 * self.radius + 1
        if w.shape != (side, side):
            raise ParameterError(f"kernel weights must be {side}x{side}, got {w.shape}")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ParameterError("kernel weights must sum to 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def make_patch_kernel(radius: int, sigma_s: float) -> PatchKernel:
    """Build the normalized Gaussian patch kernel of the given radius."""
    radius = check_int(radius, "radius")
    taps = gaussian_axis_weights(sigma_s, radius)
    weights = np.outer(taps, taps)
    weights /= weights.sum()
    return PatchKernel(radius=radius, sigma_s=float(sigma_s), weights=weights)


@dataclass(frozen=True)
class NlmParams:
    """Classic non-local means configuration.

    h is the weight decay scale (the squared patch distance is divided
    by h^2). Defaults follow the usual despeckling setup: 21x21 search
    window, 7x7 patches, spatial sigma of half the patch radius.
    search_radius and patch_radius are independent; neither needs to
    dominate the other.
    """

    h: float
    search_radius: int = 10
    patch_radius: int = 3
    sigma_s: float | None = None
    self_weight: str = "natural"

    def __post_init__(self):
        # an infinite h is allowed: it makes the filter a flat box average
        object.__setattr__(self, "h", check_real(self.h, "h", allow_inf=True))
        object.__setattr__(self, "search_radius", check_int(self.search_radius, "search_radius", 1))
        object.__setattr__(self, "patch_radius", check_int(self.patch_radius, "patch_radius", 1))
        sigma_s = self.patch_radius / 2.0 if self.sigma_s is None else self.sigma_s
        object.__setattr__(self, "sigma_s", check_real(sigma_s, "sigma_s"))
        if self.self_weight not in SELF_WEIGHT_MODES:
            raise ParameterError(
                f"self_weight must be one of {SELF_WEIGHT_MODES}, got {self.self_weight!r}"
            )


@dataclass(frozen=True)
class RobustNlmParams:
    """Robust non-local means configuration.

    ``base.h`` plays the role of the patch-similarity decay h1; ``h2``
    scales the per-candidate corruption penalty
    max(0, |v(j) - v_hat(j)| - tau(j)) / h2 (note: not squared), which
    is nonzero only for pixels beyond their three-sigma band tau.
    ``prefilter_sigma`` is the Gaussian blur behind both v_hat and tau.
    h2 = +inf turns the penalty off, which reduces the filter to classic
    non-local means with h = h1 exactly.
    """

    base: NlmParams
    h2: float
    prefilter_sigma: float = 1.5

    def __post_init__(self):
        if not isinstance(self.base, NlmParams):
            raise ParameterError(f"base must be NlmParams, got {type(self.base).__name__}")
        object.__setattr__(self, "h2", check_real(self.h2, "h2", allow_inf=True))
        object.__setattr__(self, "prefilter_sigma",
                           check_real(self.prefilter_sigma, "prefilter_sigma"))


@dataclass(frozen=True)
class WeightField:
    """The normalized weights one filtered pixel was averaged with.

    ``entries`` holds one ((dy, dx), weight) pair per search-window
    offset, in row-major offset order; ``normalizer`` is the
    pre-normalization weight sum C(i).
    """

    center: tuple[int, int]
    entries: tuple[tuple[tuple[int, int], float], ...]
    normalizer: float

    def __post_init__(self):
        if not (math.isfinite(self.normalizer) and self.normalizer > 0):
            raise ParameterError(f"normalizer must be finite and > 0, got {self.normalizer!r}")
        total = 0.0
        for _, w in self.entries:
            if not (-1e-12 <= w <= 1.0 + 1e-9):
                raise ParameterError(f"normalized weight out of [0, 1]: {w!r}")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"normalized weights must sum to 1, got {total!r}")


def _check_center(img: GrayImage, center: tuple[int, int], name: str) -> None:
    if not (0 <= center[0] < img.height and 0 <= center[1] < img.width):
        raise ParameterError(f"{name} {center} is outside a {img.height}x{img.width} image")


def _mirrored_block(v: np.ndarray, center: tuple[int, int], radius: int) -> np.ndarray:
    """The (2 radius + 1)^2 block around an in-bounds ``center`` of the
    mirror-extended surface."""
    rows = mirror_indices(v.shape[0], radius)[center[0] : center[0] + 2 * radius + 1]
    cols = mirror_indices(v.shape[1], radius)[center[1] : center[1] + 2 * radius + 1]
    return v[np.ix_(rows, cols)]


def patch_distance(img: GrayImage, i: tuple[int, int], j: tuple[int, int],
                   kernel: PatchKernel) -> float:
    """Kernel-weighted squared distance between the patches around i and j.

    Patch positions outside the image are read through mirror
    reflection. Both centers must be in bounds.
    """
    _check_center(img, i, "i")
    _check_center(img, j, "j")
    a = _mirrored_block(img.pixels, i, kernel.radius)
    b = _mirrored_block(img.pixels, j, kernel.radius)
    return float(np.sum(kernel.weights * (a - b) ** 2))


def _check_radii(img: GrayImage, params: NlmParams) -> None:
    """Reject a search or patch radius above 2 max(H, W, 10) before
    anything is sized by it. The mirror-extended image repeats with
    period 2H by 2W, so wider windows only revisit its samples; the
    floor of 10 keeps the default radii valid on the smallest images."""
    bound = 2 * max(img.height, img.width, 10)
    where = f" for a {img.height}x{img.width} image"
    check_int(params.search_radius, "search_radius" + where, 1, bound)
    check_int(params.patch_radius, "patch_radius" + where, 1, bound)


def _plan_tiles(threads, height: int, width: int) -> tuple[int, int]:
    """Tile height and worker count for the engine; starts nothing.

    ``threads`` = 0 asks for one worker per CPU. Whatever is asked for,
    workers never outnumber the CPUs or the tiles.
    """
    cpus = os.cpu_count() or 1
    cap = min(check_int(threads, "threads (0 = auto)") or cpus, cpus)
    rows = max(1, min(_TILE_PIXELS // width, -(-height // cap)))
    return rows, min(cap, -(-height // rows))


def _filter_engine(v: np.ndarray, search_radius: int, patch_radius: int,
                   taps: np.ndarray, h: float, corr: np.ndarray | None,
                   self_weight: str, threads: int) -> np.ndarray:
    """Weighted mean over the search window, tile by tile.

    The input and the penalty are mirror-padded by R + r (R the search
    radius, r the patch radius) and flattened, so every array shares one
    row stride S = W + 2(R + r) and an offset (dy, dx) is the flat step
    m = dy S + dx. A tile of n rows whose first pixel sits at flat index
    k0 covers [k0, k0 + (n - 1) S + W); the margin columns in between
    are computed but never read.

    Offsets o run over the half window {dy > 0} or {dy = 0, dx > 0}.
    Since d(i, i - o) = d(i - o, i), one patch-distance field E over
    [k0 - m, k0 + (n - 1) S + W) serves both candidates: E[i] weighs
    i + o and E[i - o] weighs i - o. Every step of an offset (the
    difference, the column and row taps, exp and the +o and -o
    accumulation) reads and writes one contiguous slice. The self term
    comes first, except under ``max_neighbor``, whose self weight is
    known only after the last offset.

    Memory: besides the padded input, the padded penalty and the
    output, each worker holds 3 x (tile + R + 2r) x S float64 scratch
    values plus tile x S values each for ``acc``, ``norm`` and, for
    ``max_neighbor``, ``wmax``.
    """
    big_r, r = search_radius, patch_radius
    height, width = v.shape
    pad = big_r + r
    stride = width + 2 * pad
    padded = mirror_pad(v, pad).ravel()
    corr_padded = mirror_pad(corr, pad).ravel() if corr is not None else None
    # Guard h*h against underflow to 0: -1/0 would be -inf and an
    # exact-zero distance (identical patches) would produce 0 * -inf = NaN.
    inv_h = -1.0 / max(h * h, sys.float_info.min)
    skip_self = self_weight == "max_neighbor"
    tile_rows, workers = _plan_tiles(threads, height, width)
    half = list(range(1, big_r + 1))
    half += [dy * stride + dx for dy in range(1, big_r + 1) for dx in range(-big_r, big_r + 1)]
    halo = r * stride + r  # from a patch centre to its first tap
    scratch_size = (tile_rows + big_r + 2 * r) * stride
    out = np.empty((height, width))

    def run_tile(y0: int, y1: int, bufs, acc_buf, norm_buf, wmax_buf) -> None:
        a, b, c = bufs
        # Row t of this view of the differences in ``a`` starts t strides
        # in, so each column tap reads one contiguous slice.
        rows = sliding_window_view(a, a.size - 2 * r * stride)[::stride]
        n = y1 - y0
        k0 = (y0 + pad) * stride + pad
        size = (n - 1) * stride + width
        center = padded[k0 : k0 + size]
        acc, norm = acc_buf[:size], norm_buf[:size]
        wmax = None if wmax_buf is None else wmax_buf[:size]

        def add_candidate(w, k):
            # the candidates at flat indices k .. k + size, weighed by w
            # before their penalty
            if corr_padded is not None:
                w = np.multiply(w, corr_padded[k : k + size], out=a[:size])
            acc_term = np.multiply(w, padded[k : k + size], out=b[:size])
            np.add(acc, acc_term, out=acc)
            np.add(norm, w, out=norm)
            if wmax is not None:
                np.maximum(wmax, w, out=wmax)

        if skip_self:
            acc.fill(0.0)
            norm.fill(0.0)
            wmax.fill(0.0)
        elif corr_padded is not None:
            np.copyto(norm, corr_padded[k0 : k0 + size])
            np.multiply(norm, center, out=acc)
        else:
            norm.fill(1.0)
            np.copyto(acc, center)
        for m in half:
            # E over [k0 - m, k0 + size), from squared differences grown
            # by the patch halo on each side
            span = size + m
            lo = k0 - m - halo
            diff = np.subtract(padded[lo : lo + span + 2 * halo],
                               padded[lo + m : lo + m + span + 2 * halo],
                               out=a[: span + 2 * halo])
            np.multiply(diff, diff, out=diff)
            cols = correlate1d_into(rows[:, : span + 2 * r], taps, 0,
                                    b[None, : span + 2 * r], c[None, : span + 2 * r])[0]
            dist = correlate1d_into(cols, taps, 0, c[:span], a[:span])
            dist *= inv_h
            np.exp(dist, out=dist)
            add_candidate(dist[m:], k0 + m)
            add_candidate(dist[:size], k0 - m)
        if wmax is not None:
            acc += np.multiply(wmax, center, out=b[:size])
            norm += wmax
        acc_px, norm_px = (buf[: n * stride].reshape(n, stride)[:, :width]
                           for buf in (acc_buf, norm_buf))
        # All-zero weight sums (possible only through exp underflow at
        # extreme decay settings) fall back to the identity.
        if not norm_px.all():
            zero = norm_px == 0.0
            norm_px[zero] = 1.0
            acc_px[zero] = v[y0:y1][zero]
        np.divide(acc_px, norm_px, out=out[y0:y1])

    def work(tiles: queue.SimpleQueue) -> None:
        bufs = [np.empty(scratch_size) for _ in range(3)]
        acc, norm = np.empty(tile_rows * stride), np.empty(tile_rows * stride)
        wmax = np.empty(tile_rows * stride) if skip_self else None
        # For tiny h the scaled distances saturate to -inf and exp flushes
        # them to the intended weight 0, so the overflow is not an error.
        with np.errstate(over="ignore"):
            while True:
                try:
                    y0 = tiles.get_nowait()
                except queue.Empty:
                    return
                run_tile(y0, min(y0 + tile_rows, height), bufs, acc, norm, wmax)

    tiles = queue.SimpleQueue()
    for y0 in range(0, height, tile_rows):
        tiles.put(y0)
    # The calling thread is one of the workers. The others start while it
    # runs, so the scheduler puts them on other CPUs rather than beside it.
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        helpers = [pool.submit(work, tiles) for _ in range(workers - 1)]
        work(tiles)
        for fut in helpers:
            fut.result()
    return out


def nlm_denoise(img: GrayImage, params: NlmParams, threads: int = 1) -> GrayImage:
    """Classic non-local means.

    Each output pixel is the weighted mean of the search-window pixels,
    with weights exp(-d(i, j) / h^2) for the kernel-weighted squared
    patch distance d. Output size equals input size. Each radius may be
    at most 2 max(H, W, 10).
    """
    _check_radii(img, params)
    taps = gaussian_axis_weights(params.sigma_s, params.patch_radius)
    out = _filter_engine(img.pixels, params.search_radius, params.patch_radius,
                         taps, params.h, None, params.self_weight, threads)
    return GrayImage(out)


def _corruption_factor(v: np.ndarray, h2: float, sigma: float) -> np.ndarray:
    """exp(-max(0, |v - v_hat| - tau) / h2) for every pixel.

    v_hat and the local scale are Gaussian blurs with the prefilter's
    ``sigma``. tau is three local sigmas: the blurred mean absolute
    deviation |v - v_hat| times sqrt(pi / 2), the ratio of a Gaussian's
    sigma to its mean absolute deviation. Only a pixel whose deviation
    exceeds that band counts as corrupted; every other pixel keeps a
    factor of exactly 1.
    """
    dev = np.abs(v - blur_array(v, sigma))
    tau = blur_array(dev, sigma)
    tau *= 3.0 * math.sqrt(math.pi / 2.0)
    excess = np.subtract(dev, tau, out=tau)
    np.maximum(excess, 0.0, out=excess)
    excess /= -h2
    with np.errstate(under="ignore"):
        return np.exp(excess, out=excess)


def robust_nlm_denoise(img: GrayImage, params: RobustNlmParams, threads: int = 1) -> GrayImage:
    """Non-local means that discounts the highly corrupted pixels.

    Weights are exp(-d(i, j) / h1^2) * exp(-max(0, |v(j) - v_hat(j)| - tau(j)) / h2),
    where v_hat is the input blurred with ``prefilter_sigma`` and
    tau = 3 * sqrt(pi / 2) * G_sigma * |v - v_hat| is a three-sigma
    band on the local mean absolute deviation, blurred with the same
    sigma. Only candidates that deviate from their own smoothed
    neighborhood by more than that band are discounted, which makes the
    average robust to outliers at no cost on ordinary speckle. Each
    radius may be at most 2 max(H, W, 10).
    """
    v = img.pixels
    _check_radii(img, params.base)
    corr = _corruption_factor(v, params.h2, params.prefilter_sigma)
    taps = gaussian_axis_weights(params.base.sigma_s, params.base.patch_radius)
    out = _filter_engine(v, params.base.search_radius, params.base.patch_radius,
                         taps, params.base.h, corr, params.base.self_weight, threads)
    return GrayImage(out)


def compute_weight_field(img: GrayImage, center: tuple[int, int],
                         params: RobustNlmParams) -> WeightField:
    """Normalized robust weights at one pixel, for inspection and testing.

    Evaluates the weight definition `robust_nlm_denoise` applies
    (including the self-weight rule) for every search-window offset at
    once: the patch distances come from sliding the patch kernel over
    the mirrored block of the search window grown by the patch radius.
    The weights are normalized by the window sum C(i) and returned per
    offset in row-major offset order. They agree with the filter's to
    rounding, not bit for bit: the filter sums the same terms in a
    different order.
    """
    _check_center(img, center, "center")
    base = params.base
    big_r, r = base.search_radius, base.patch_radius
    _check_radii(img, base)
    kernel = make_patch_kernel(r, base.sigma_s)
    v = img.pixels
    patches = sliding_window_view(_mirrored_block(v, center, big_r + r), kernel.weights.shape)
    dist = np.sum(kernel.weights * (patches - patches[big_r, big_r]) ** 2, axis=(-2, -1))
    corr = _corruption_factor(v, params.h2, params.prefilter_sigma)
    hh1 = max(base.h * base.h, sys.float_info.min)  # mirror the engine's underflow guard
    with np.errstate(under="ignore"):
        raw = np.exp(-dist / hh1) * _mirrored_block(corr, center, big_r)
    if base.self_weight == "max_neighbor":
        raw[big_r, big_r] = 0.0
        raw[big_r, big_r] = raw.max()
    normalizer = math.fsum(raw.ravel().tolist())
    if normalizer <= 0.0:
        raise ParameterError(
            f"all weights underflowed to zero at pixel {center}; decay scales are too small"
        )
    offsets = itertools.product(range(-big_r, big_r + 1), repeat=2)
    entries = tuple(zip(offsets, (raw / normalizer).ravel().tolist()))
    return WeightField(center=tuple(center), entries=entries, normalizer=normalizer)
