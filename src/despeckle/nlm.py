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
S and a search offset (dy, dx) is the flat step dy S + dx. Its 13 steps
per offset (11 without a penalty) are the squared differences, the
column and row taps of the patch kernel as two banded matrix products
through NumPy's BLAS, exp, and the accumulation. Each worker
(`engine_plan`) takes an equal share of the rows, cut into equal row
tiles of at most about `_TILE_PIXELS` pixels: the caller and forked
children, which read the padded arrays and write their rows of the
output into a shared anonymous mapping.
Patch distances are symmetric, so each offset o of the half window
serves both candidates i + o and i - o. Every pixel adds its self term,
then the +o and -o terms of each half-window offset in one fixed order,
and the products are blocked at fixed padded rows and columns, so
output bits do not depend on the worker count or the tile height.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ParameterError, check_choice, check_int, check_real
from .image import (_BAND, _BLAS_SERIAL, GrayImage, blur_array, check_radii, check_sigmas,
                    gaussian_axis_weights, mirror_pad, tap_band)
from .image import correlate1d_valid  # noqa: F401  (perfbench/tracing.py wraps this binding)
from .workers import plan, run_workers, worker_array

SELF_WEIGHT_MODES = ("natural", "max_neighbor")
# Pixels per row tile: 256 KiB per tile-sized float64 array.
_TILE_PIXELS = 32768
# The clamp of squared differences: an inf times a kernel's zero tap is NaN.
_SQUARE_CLAMP = 1e300


def _decay(h: float) -> float:
    """-1/h^2, the weight exponent's factor of a patch distance."""
    return -1.0 / (h * h)


def make_patch_kernel(radius: int, sigma_s: float) -> np.ndarray:
    """The read-only (2 radius + 1)^2 Gaussian weighting of patch positions.

    It is the outer product of the engine's taps, proportional to
    exp(-(dx^2 + dy^2) / (2 sigma_s^2)); the taps sum to 1, so it does
    too, to rounding. The unit sum is what makes patch distances
    commensurable across kernel sizes (and makes the additive-noise
    distance offset come out as exactly twice the noise variance).
    """
    taps = gaussian_axis_weights(sigma_s, radius)
    weights = np.outer(taps, taps)
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
        # no array is wider than sys.maxsize, and the default sigma_s needs a float radius
        object.__setattr__(self, "patch_radius",
                           check_int(self.patch_radius, "patch_radius", 1, sys.maxsize))
        sigma_s = self.patch_radius / 2.0 if self.sigma_s is None else self.sigma_s
        object.__setattr__(self, "sigma_s", check_real(sigma_s, "sigma_s"))
        check_choice(self.self_weight, "self_weight", SELF_WEIGHT_MODES)


@dataclass(frozen=True, kw_only=True)
class RobustNlmParams(NlmParams):
    """Robust non-local means configuration: `NlmParams`, whose ``h`` is
    the patch-similarity decay h1, and two keyword-only fields.

    ``h2`` scales the per-candidate corruption penalty
    max(0, |v(j) - v_hat(j)| - tau(j)) / h2 (note: not squared), which
    is nonzero only for pixels beyond their three-sigma band tau.
    ``prefilter_sigma`` is the Gaussian blur behind both v_hat and tau.
    h2 = +inf turns the penalty off, which reduces the filter to classic
    non-local means with h = h1 exactly.
    """

    h2: float
    prefilter_sigma: float = 1.5

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "h2", check_real(self.h2, "h2", allow_inf=True))
        object.__setattr__(self, "prefilter_sigma", check_real(self.prefilter_sigma, "prefilter_sigma"))


@dataclass(frozen=True)
class WeightField:
    """The normalized weights one filtered pixel was averaged with.

    ``entries`` holds one ((dy, dx), weight) pair per search-window
    offset, in row-major offset order; ``normalizer`` is the
    pre-normalization weight sum C(i). It checks nothing: its producer,
    `compute_weight_field`, guarantees the weights.
    """

    center: tuple[int, int]
    entries: tuple[tuple[tuple[int, int], float], ...]
    normalizer: float


@functools.lru_cache(maxsize=32)
def _folded(n: int, radius: int) -> np.ndarray:
    """The read-only indices of an axis of length n, padded by ``radius``
    with `mirror_pad`; cached, since the pad costs more than a patch."""
    folded = mirror_pad(np.arange(n), radius)
    folded.setflags(write=False)
    return folded


def _mirrored_blocks(v: np.ndarray, radius: int, **centers: tuple[int, int]) -> list[np.ndarray]:
    """The (2 radius + 1)^2 blocks around the named ``centers`` of the
    mirror-extended surface; a center outside ``v`` is a ParameterError."""
    for name, center in centers.items():
        if not (0 <= center[0] < v.shape[0] and 0 <= center[1] < v.shape[1]):
            raise ParameterError(f"{name} {center} is outside a {v.shape[0]}x{v.shape[1]} image")
    rows, cols = (_folded(n, radius) for n in v.shape)
    side = 2 * radius + 1
    return [v[np.ix_(rows[y : y + side], cols[x : x + side])] for y, x in centers.values()]


def patch_distance(img: GrayImage, i: tuple[int, int], j: tuple[int, int],
                   kernel: np.ndarray) -> float:
    """Kernel-weighted squared distance between the patches around i and j.

    ``kernel`` is a square 2-D array of odd side, as `make_patch_kernel`
    returns. Patch positions past the border are mirror reflections; both
    centers must be in bounds. Squares are clamped as in the filter.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    side = kernel.shape[0] if kernel.ndim == 2 else 0
    if kernel.shape != (side, side) or side % 2 == 0:
        raise ParameterError(
            f"patch kernel must be a square 2-D array of odd side, got shape {kernel.shape}"
        )
    a, b = _mirrored_blocks(img.pixels, side // 2, i=i, j=j)
    with np.errstate(over="ignore"):
        return float(np.sum(kernel * np.minimum((a - b) ** 2, _SQUARE_CLAMP)))


def _check_extent(img: GrayImage, params: NlmParams, kind: type) -> None:
    """That ``params`` is exactly a ``kind``, and the mirror-period bound
    on every radius and sigma of the filter."""
    if type(params) is not kind:
        raise ParameterError(f"params must be {kind.__name__}, got {type(params).__name__}")
    check_radii(img, search_radius=params.search_radius, patch_radius=params.patch_radius)
    check_sigmas(img, 1.0, sigma_s=params.sigma_s)
    if kind is RobustNlmParams:
        check_sigmas(img, 3.0, prefilter_sigma=params.prefilter_sigma)


def engine_plan(threads, height: int, width: int, params: NlmParams) -> tuple[int, int]:
    """Tile height and worker count of `nlm_denoise`, or for a
    `RobustNlmParams` of `robust_nlm_denoise`, on a ``height`` x
    ``width`` image (see `workers.plan`); starts nothing. The work is 11
    array passes per pixel and half-window offset, 13 with the penalty."""
    offsets = 2 * params.search_radius * (params.search_radius + 1)
    passes = 13 if isinstance(params, RobustNlmParams) else 11
    return plan(threads, height, width, _TILE_PIXELS, passes * offsets)


def _filter_engine(img: GrayImage, params: NlmParams, corr: np.ndarray | None,
                   threads: int) -> GrayImage:
    """Weighted mean over the search window, tile by tile.

    The input and the penalty are mirror-padded by R + r (R the search
    radius, r the patch radius), a few rows more at the bottom, and
    flattened, so every array shares one row stride S (W + 2(R + r)
    rounded up to equal column chunks, each a multiple of B = `_BAND`)
    and an offset (dy, dx) is the flat step m = dy S + dx. A tile of n
    rows whose first pixel sits at flat index k0 covers
    [k0, k0 + (n - 1) S + W); the margin columns are never read.

    Offsets o run over the half window {dy > 0} or {dy = 0, dx > 0}.
    Since d(i, i - o) = d(i - o, i), one patch-distance field E over
    [k0 - m, k0 + (n - 1) S + W) serves both candidates: E[i] weighs
    i + o and E[i - m] weighs i - o. E is made in whole blocks of B rows
    from padded row r on: the squared differences of those rows and r
    more on each side (2 passes, into a), the column taps as a
    B x (B + 2r) band times each block of B + 2r rows of them, chunk by
    chunk (into b), and the row taps, scaled by `_decay`, as each block of
    B columns of that, r more on each side, times a (B + 2r) x B band
    (back into a). Then exp (1 pass), the +o candidate through b and the
    -o candidate, the last reader of E, in place in a (4 passes each:
    times the penalty, into ``norm``, times the pixels, into ``acc``).
    ``max_neighbor`` adds a ``wmax`` pass per candidate and its self
    term after the last offset; otherwise the self term comes first.

    Blocks and chunks sit at fixed padded rows and columns, so a
    distance comes from the same place of a product of the same shape
    whatever the tiling; only a row product's row count varies, and
    OpenBLAS sums a row alike at any count of 2 or more (the bit tests
    over tiles and row crops hold it to that). For r < 2044 no product
    exceeds `_BLAS_SERIAL` multiply-adds, so none runs on BLAS threads.

    Memory: besides the padded input and penalty and the output (shared
    by forked workers), each worker holds 2 x (tile + R + 2B + 2r) x S
    float64 scratch values at most, plus tile x S for each of ``acc``,
    ``norm`` and, for ``max_neighbor``, ``wmax``. The penalty ``corr`` is
    freed once padded, unless the caller holds it too, and the output
    becomes the returned image without a copy.
    """
    v = img.pixels
    big_r, r = params.search_radius, params.patch_radius
    taps = gaussian_axis_weights(params.sigma_s, r)
    height, width = v.shape
    pad, inner = big_r + r, _BAND + 2 * r  # inner: the inner length of both products
    most = _BAND * max(1, _BLAS_SERIAL // (_BAND * _BAND * inner))  # rows or columns per product
    chunks = -(-(width + 2 * pad) // most)
    chunk = _BAND * -(-(width + 2 * pad) // (chunks * _BAND))
    stride = chunks * chunk
    # the rows and columns past the padding feed only distances never read
    spec = ((pad, -(-(height + big_r) // _BAND) * _BAND - height + r + 1),
            (pad, stride - width - pad))
    padded = mirror_pad(v, spec).ravel()
    corr_padded = mirror_pad(corr, spec).ravel() if corr is not None else None
    del corr  # the caller holds no other reference: free it before ``out`` and the scratch
    col_band = tap_band(taps)
    row_band = np.ascontiguousarray(col_band.T * _decay(params.h))  # the decay rides the row taps
    clamp = max(v.max(), -v.min()) > 5e149  # else no square reaches `_SQUARE_CLAMP`
    skip_self = params.self_weight == "max_neighbor"
    tile_rows, workers = engine_plan(threads, height, width, params)
    tile_blocks = (tile_rows + big_r + _BAND - 2) // _BAND + 1
    out = worker_array(v.size, workers).reshape(v.shape)

    def run_tile(y0: int, y1: int, a, b, acc_buf, norm_buf, wmax_buf) -> None:
        n = y1 - y0
        k0 = (y0 + pad) * stride + pad
        size = (n - 1) * stride + width
        center = padded[k0 : k0 + size]
        acc, norm = acc_buf[:size], norm_buf[:size]
        wmax = None if wmax_buf is None else wmax_buf[:size]
        # row blocks of a make those of b; column blocks of b, r wider, those of a
        blocks = [a.itemsize * s for s in (_BAND * stride, chunk, stride, 1)]
        columns = [a.itemsize * s for s in (_BAND, stride, 1)]
        d_blocks = as_strided(a, (tile_blocks, chunks, inner, chunk), blocks)
        c_blocks = as_strided(b[r:], (tile_blocks, chunks, _BAND, chunk), blocks)
        c_rows = as_strided(b, (stride // _BAND, tile_blocks * _BAND, inner), columns)
        e_rows = as_strided(a, (stride // _BAND, tile_blocks * _BAND, _BAND), columns)

        def add_candidate(w, k, term):
            # the candidates at flat indices k .. k + size, weighed by w
            # before their penalty; ``term`` (may be ``w``) gets the products
            if corr_padded is not None:
                w = np.multiply(w, corr_padded[k : k + size], out=term)
            np.add(norm, w, out=norm)
            if wmax is not None:
                np.maximum(wmax, w, out=wmax)
            np.add(acc, np.multiply(w, padded[k : k + size], out=term), out=acc)

        acc.fill(0.0)
        norm.fill(0.0)
        if skip_self:
            wmax.fill(0.0)
        else:  # the natural self term, of weight 1 before its penalty
            b[:size].fill(1.0)
            add_candidate(b[:size], k0, b[:size])
        for dy in range(big_r + 1):
            for dx in range(-big_r if dy else 1, big_r + 1):
                # E over [k0 - m, k0 + size), in the blocks j0 .. j0 + nblk - 1
                m = dy * stride + dx
                j0 = (y0 + big_r - dy) // _BAND
                nblk = (y1 - 1 + big_r) // _BAND + 1 - j0
                lo, span = j0 * _BAND * stride, (nblk * _BAND + 2 * r) * stride
                diff = np.subtract(padded[lo : lo + span], padded[lo + m : lo + m + span],
                                   out=a[:span])
                np.multiply(diff, diff, out=diff)
                if clamp:
                    np.minimum(diff, _SQUARE_CLAMP, out=diff)
                np.matmul(col_band, d_blocks[:nblk], out=c_blocks[:nblk])
                c, e = c_rows[:, : nblk * _BAND], e_rows[:, : nblk * _BAND]
                for y in range(0, nblk * _BAND, most):
                    np.matmul(c[:, y : y + most], row_band, out=e[:, y : y + most])
                first = k0 - m - (j0 * _BAND + r) * stride
                dist = np.exp(a[first : first + size + m], out=a[first : first + size + m])
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

    def work(first, end, link) -> None:
        a = worker_array((tile_blocks * _BAND + 2 * r) * stride)
        b = worker_array(tile_blocks * _BAND * stride + 2 * r)  # the r values at each end stay 0
        acc, norm = worker_array(tile_rows * stride), worker_array(tile_rows * stride)
        wmax = worker_array(tile_rows * stride) if skip_self else None
        # Distances huge against h^2 (huge samples) saturate to -inf and exp
        # flushes them to the intended weight 0, so the overflow is not an error.
        with np.errstate(over="ignore"):
            for y0 in range(first, end, tile_rows):
                link.check()
                run_tile(y0, min(y0 + tile_rows, end), a, b, acc, norm, wmax)

    run_workers(work, height, workers, "NLM")
    return GrayImage._adopt(out)


def nlm_denoise(img: GrayImage, params: NlmParams, threads: int = 0) -> GrayImage:
    """Classic non-local means.

    Each output pixel is the weighted mean of the search-window pixels,
    with weights exp(-d(i, j) / h^2) for the kernel-weighted squared
    patch distance d. Output size equals input size. Each radius, and
    sigma_s, may be at most 2 max(H, W, 10). ``params`` must be an
    `NlmParams`; a `RobustNlmParams` is a ParameterError.

    ``threads`` caps the worker processes; 0, the default, means one per
    CPU. Each worker needs a floor of work (`workers.plan`), so a 64x64
    image runs on one. The output bits do not depend on the worker count.
    """
    _check_extent(img, params, NlmParams)
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
    # for a huge excess (huge samples) the quotient saturates to -inf, whose exp is the factor 0
    with np.errstate(over="ignore", under="ignore"):
        excess /= -h2
        return np.exp(excess, out=excess)


def robust_nlm_denoise(img: GrayImage, params: RobustNlmParams, threads: int = 0) -> GrayImage:
    """Non-local means that discounts the highly corrupted pixels.

    Weights are exp(-d(i, j) / h1^2) * exp(-max(0, |v(j) - v_hat(j)| - tau(j)) / h2),
    where v_hat is the input blurred with ``prefilter_sigma`` and
    tau = 3 * sqrt(pi / 2) * G_sigma * |v - v_hat| is a three-sigma
    band on the local mean absolute deviation, blurred with the same
    sigma. Only candidates that deviate from their own smoothed
    neighborhood by more than that band are discounted, which makes the
    average robust to outliers at no cost on ordinary speckle. Each
    radius, sigma_s and the prefilter's blur radius
    ceil(3 prefilter_sigma) may be at most 2 max(H, W, 10); ``params``
    must be a `RobustNlmParams`. ``threads`` is as for `nlm_denoise`:
    0, the default, means one worker per CPU, the work floor applies,
    and the bits do not depend on it.
    """
    _check_extent(img, params, RobustNlmParams)
    # the engine gets the only reference to the penalty, and frees it once padded
    return _filter_engine(img, params, _corruption_factor(img.pixels, params.h2,
                                                          params.prefilter_sigma), threads)


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
    It shares the filter's guards, `_decay` and `_SQUARE_CLAMP`, and its
    identity where C(i) = 0: weight 1 at (0, 0), ``normalizer`` 0.0. So
    on every input the filter takes, the weights lie in [0, 1], sum 1.
    """
    _check_extent(img, params, RobustNlmParams)
    big_r, r = params.search_radius, params.patch_radius
    kernel = make_patch_kernel(r, params.sigma_s)
    v = img.pixels
    patches = sliding_window_view(_mirrored_blocks(v, big_r + r, center=center)[0], kernel.shape)
    corr = _corruption_factor(v, params.h2, params.prefilter_sigma)
    with np.errstate(over="ignore", under="ignore"):
        squares = np.minimum((patches - patches[big_r, big_r]) ** 2, _SQUARE_CLAMP)
        dist = np.sum(kernel * squares, axis=(-2, -1))
        raw = np.exp(dist * _decay(params.h)) * _mirrored_blocks(corr, big_r, center=center)[0]
    if params.self_weight == "max_neighbor":
        raw[big_r, big_r] = 0.0
        raw[big_r, big_r] = raw.max()
    normalizer = math.fsum(raw.ravel().tolist())
    if normalizer == 0.0:
        raw[big_r, big_r] = 1.0
    offsets = itertools.product(range(-big_r, big_r + 1), repeat=2)
    entries = tuple(zip(offsets, (raw / (normalizer or 1.0)).ravel().tolist()))
    return WeightField(center=tuple(center), entries=entries, normalizer=normalizer)
