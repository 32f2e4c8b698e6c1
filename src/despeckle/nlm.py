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
dy S + dx, and each of its 31 passes at r = 3 (29 without a penalty:
difference, column and row taps, exp, accumulation) reads and writes one
contiguous slice, nearly all in place. It works in row tiles of about
`_TILE_PIXELS` pixels, dealt in turn to at most one process per CPU:
the caller and forked children, which read the padded arrays and write
their rows of the output into a shared anonymous mapping. Patch
distances are symmetric, so each offset o of the half window serves
both candidates i + o and i - o. Every pixel adds its self term, then
the +o and -o terms of each half-window offset in one fixed order, so
output bits do not depend on the worker count or the tile height.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, ParameterError, check_int, check_real
from .image import (
    GrayImage,
    blur_array,
    correlate1d_into,
    correlate1d_valid,  # noqa: F401  (perfbench/tracing.py wraps this binding)
    gaussian_axis_weights,
    mirror_pad,
)

SELF_WEIGHT_MODES = ("natural", "max_neighbor")
# Pixels per row tile: 256 KiB per tile-sized float64 array.
_TILE_PIXELS = 32768


def make_patch_kernel(radius: int, sigma_s: float) -> np.ndarray:
    """The read-only (2 radius + 1)^2 Gaussian weighting of patch positions.

    It is the outer product of the engine's taps, proportional to
    exp(-(dx^2 + dy^2) / (2 sigma_s^2)) and normalized to sum 1. The
    unit sum is what makes patch distances commensurable across kernel
    sizes (and makes the additive-noise distance offset come out as
    exactly twice the noise variance).
    """
    taps = gaussian_axis_weights(sigma_s, radius)
    weights = np.outer(taps, taps)
    weights /= weights.sum()
    weights.setflags(write=False)
    return weights


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


def _mirrored_blocks(v: np.ndarray, radius: int, *centers: tuple[int, int]) -> list[np.ndarray]:
    """The (2 radius + 1)^2 blocks around in-bounds ``centers`` of the
    mirror-extended surface."""
    rows, cols = (mirror_pad(np.arange(n), radius) for n in v.shape)
    side = 2 * radius + 1
    return [v[np.ix_(rows[y : y + side], cols[x : x + side])] for y, x in centers]


def patch_distance(img: GrayImage, i: tuple[int, int], j: tuple[int, int],
                   kernel: np.ndarray) -> float:
    """Kernel-weighted squared distance between the patches around i and j.

    ``kernel`` is a square 2-D array of odd side, as `make_patch_kernel`
    returns. Patch positions outside the image are read through mirror
    reflection. Both centers must be in bounds.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    side = kernel.shape[0] if kernel.ndim == 2 else 0
    if kernel.shape != (side, side) or side % 2 == 0:
        raise ParameterError(
            f"patch kernel must be a square 2-D array of odd side, got shape {kernel.shape}"
        )
    _check_center(img, i, "i")
    _check_center(img, j, "j")
    a, b = _mirrored_blocks(img.pixels, side // 2, i, j)
    return float(np.sum(kernel * (a - b) ** 2))


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


def _filter_engine(img: GrayImage, params: NlmParams, corr: np.ndarray | None,
                   threads: int) -> GrayImage:
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
    i + o and E[i - o] weighs i - o. An offset's 31 passes at r = 3 (29
    without a penalty) each cover one contiguous slice of two scratch
    buffers: the squared differences into a (2), the column taps into b
    and the row taps, scaled by -1/h^2, back into a (3r + 1 each, by
    Horner's rule), exp in place (1), then the +o candidate through b
    and the -o candidate, the last reader of E, in place in a (4 each:
    times the penalty, into ``norm``, times the pixels, into ``acc``).
    ``max_neighbor`` adds a ``wmax`` pass per candidate and its self
    term after the last offset; otherwise the self term comes first.

    Memory: besides the padded input, the padded penalty and the output
    (shared by forked workers), each worker process holds its own
    2 x (tile + R + 2r) x S float64 scratch values plus tile x S values
    each for ``acc``, ``norm`` and, for ``max_neighbor``, ``wmax``.
    """
    v = img.pixels
    big_r, r = params.search_radius, params.patch_radius
    taps = gaussian_axis_weights(params.sigma_s, r)
    height, width = v.shape
    pad = big_r + r
    stride = width + 2 * pad
    padded = mirror_pad(v, pad).ravel()
    corr_padded = mirror_pad(corr, pad).ravel() if corr is not None else None
    # Guard h*h against underflow to 0: -1/0 would be -inf and an
    # exact-zero distance (identical patches) would produce 0 * -inf = NaN.
    inv_h = -1.0 / max(params.h * params.h, sys.float_info.min)
    row_taps = taps * inv_h  # the decay rides on the row pass
    skip_self = params.self_weight == "max_neighbor"
    tile_rows, workers = _plan_tiles(threads, height, width)
    halo = r * stride + r  # from a patch centre to its first tap
    scratch_size = (tile_rows + big_r + 2 * r) * stride
    out = np.empty(v.shape) if workers == 1 else np.ndarray(v.shape, buffer=mmap.mmap(-1, v.nbytes))

    def run_tile(y0: int, y1: int, a, b, acc_buf, norm_buf, wmax_buf) -> None:
        # Row t of this view of the differences in ``a`` starts t strides
        # in, so each column tap reads one contiguous slice.
        rows = sliding_window_view(a, a.size - 2 * r * stride)[::stride]
        n = y1 - y0
        k0 = (y0 + pad) * stride + pad
        size = (n - 1) * stride + width
        center = padded[k0 : k0 + size]
        acc, norm = acc_buf[:size], norm_buf[:size]
        wmax = None if wmax_buf is None else wmax_buf[:size]

        def add_candidate(w, k, term):
            # the candidates at flat indices k .. k + size, weighed by w
            # before their penalty; ``term`` (may be ``w``) gets the products
            if corr_padded is not None:
                w = np.multiply(w, corr_padded[k : k + size], out=term)
            np.add(norm, w, out=norm)
            if wmax is not None:
                np.maximum(wmax, w, out=wmax)
            np.add(acc, np.multiply(w, padded[k : k + size], out=term), out=acc)

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
        half = (dy * stride + dx for dy in range(big_r + 1)
                for dx in range(-big_r if dy else 1, big_r + 1))
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
                                    b[None, : span + 2 * r])[0]
            dist = correlate1d_into(cols, row_taps, 0, a[:span])
            np.exp(dist, out=dist)
            add_candidate(dist[m:], k0 + m, b[:size])
            # the last read of dist: weigh the -o candidate in place
            add_candidate(dist[:size], k0 - m, dist[:size])
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

    def work(starts: range) -> None:
        a, b = np.empty(scratch_size), np.empty(scratch_size)
        acc, norm = np.empty(tile_rows * stride), np.empty(tile_rows * stride)
        wmax = np.empty(tile_rows * stride) if skip_self else None
        # For tiny h the scaled distances saturate to -inf and exp flushes
        # them to the intended weight 0, so the overflow is not an error.
        with np.errstate(over="ignore"):
            for y0 in starts:
                run_tile(y0, min(y0 + tile_rows, height), a, b, acc, norm, wmax)

    _run_workers(work, range(0, height, tile_rows), workers)
    del padded, corr_padded  # free them before GrayImage copies ``out``
    return GrayImage(out)


def _run_workers(work, starts: range, workers: int) -> None:
    """Run ``work(starts[k::workers])`` for each worker k: k = 0 here, the
    rest in forked children, which write results only to shared mappings.
    A child that raises exits 1 with one line on a pipe, and this raises
    `NumericError`; if this share raises, the children are killed. All
    are reaped first. Without ``os.fork``, or beside other threads (whose
    locks a child would inherit held), all of ``starts`` runs here.
    """
    if workers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return work(starts)
    read_fd, write_fd = os.pipe()
    pids = []
    try:
        for k in range(1, workers):
            if (pid := os.fork()) == 0:  # the child
                try:
                    work(starts[k::workers])
                    os._exit(0)
                except BaseException as exc:
                    os.write(write_fd, f"{type(exc).__name__}: {exc}\n".encode()[:512])
                finally:
                    os._exit(1)
            pids.append(pid)
        work(starts[::workers])
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:  # EOF once every child has exited
            report = pipe.read().decode(errors="replace").strip()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise NumericError(f"an NLM worker process failed: {report or f'exit codes {codes}'}")


def nlm_denoise(img: GrayImage, params: NlmParams, threads: int = 1) -> GrayImage:
    """Classic non-local means.

    Each output pixel is the weighted mean of the search-window pixels,
    with weights exp(-d(i, j) / h^2) for the kernel-weighted squared
    patch distance d. Output size equals input size. Each radius may be
    at most 2 max(H, W, 10).
    """
    _check_radii(img, params)
    return _filter_engine(img, params, None, threads)


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
    _check_radii(img, params.base)
    corr = _corruption_factor(img.pixels, params.h2, params.prefilter_sigma)
    return _filter_engine(img, params.base, corr, threads)


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
    patches = sliding_window_view(_mirrored_blocks(v, big_r + r, center)[0], kernel.shape)
    dist = np.sum(kernel * (patches - patches[big_r, big_r]) ** 2, axis=(-2, -1))
    corr = _corruption_factor(v, params.h2, params.prefilter_sigma)
    hh1 = max(base.h * base.h, sys.float_info.min)  # mirror the engine's underflow guard
    with np.errstate(under="ignore"):
        raw = np.exp(-dist / hh1) * _mirrored_blocks(corr, big_r, center)[0]
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
