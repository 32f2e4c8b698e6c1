"""Classic local despeckling filters: Lee, Frost, and SRAD.

These serve as comparison baselines for the non-local filters. All
three use mirror boundary extension and sum in a fixed order, so
repeated runs are bit-identical.

They work plane by plane on a few preallocated image-sized arrays, so
their memory does not grow with the window. Lee and Frost take the
window mean and variance as fixed-order sums over the shifted planes
of the mirror-padded input. SRAD sweeps each iteration in row strips
over buffers it writes in place, so that a strip's passes stay in
cache, and splits the strips of a large enough image among forked
workers; its output bits are those of the plain four-difference
formulation at any strip height and worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NumericError, check_int, check_real
from .image import GrayImage, cache_aligned, check_radii, mirror_pad
from .workers import run_workers, shared_array, worker_cap

# Values per row strip of `srad`: 128 KiB per strip-sized float64 array.
_STRIP_VALUES = 16384


@dataclass(frozen=True)
class LeeParams:
    """Lee filter configuration: window radius and noise coefficient of
    variation (sigma expressed relative to the local mean)."""

    window_radius: int = 2
    noise_sigma: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "window_radius", check_int(self.window_radius, "window_radius", 1))
        object.__setattr__(self, "noise_sigma",
                           check_real(self.noise_sigma, "noise_sigma", nonnegative=True))


@dataclass(frozen=True)
class FrostParams:
    """Frost filter configuration: window radius and damping factor K."""

    window_radius: int = 2
    damping: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "window_radius", check_int(self.window_radius, "window_radius", 1))
        object.__setattr__(self, "damping", check_real(self.damping, "damping"))


@dataclass(frozen=True)
class SradParams:
    """Speckle-reducing anisotropic diffusion configuration.

    The explicit scheme is stable for dt in (0, 0.25]. q0 is the
    initial speckle scale and decays as q0 * exp(-rho * t * dt) with the
    1-based iteration counter t.
    """

    iterations: int = 100
    dt: float = 0.05
    q0: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "iterations", check_int(self.iterations, "iterations"))
        object.__setattr__(self, "dt", check_real(self.dt, "dt", at_most=0.25))
        object.__setattr__(self, "q0", check_real(self.q0, "q0"))
        object.__setattr__(self, "rho", check_real(self.rho, "rho", nonnegative=True))


def _window_stats(padded: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population variance of the (2 radius + 1)^2 window around
    each pixel of an image mirror-padded by ``radius``.

    Both are fixed-order sums over the shifted planes of ``padded``: the
    mean sums rows, then columns; the variance sums the squared
    deviations from that mean (two passes, so a flat window gives 0).
    """
    side = 2 * radius + 1
    height, width = padded.shape[0] - 2 * radius, padded.shape[1] - 2 * radius
    rows = padded[:, :width].copy()
    for dx in range(1, side):
        rows += padded[:, dx : dx + width]
    mean = rows[:height].copy()
    for dy in range(1, side):
        mean += rows[dy : dy + height]
    mean /= side * side
    var = np.zeros_like(mean)
    dev = rows[:height]
    for dy in range(side):
        for dx in range(side):
            np.subtract(padded[dy : dy + height, dx : dx + width], mean, out=dev)
            dev *= dev
            var += dev
    var /= side * side
    return mean, var


def lee_filter(img: GrayImage, params: LeeParams) -> GrayImage:
    """Local linear minimum-mean-square-error despeckling.

    out = m + k (v - m) with gain
    k = max(0, (s^2 - m^2 sigma^2) / (s^2 (1 + sigma^2))) clamped to
    [0, 1], where m and s^2 are the window mean and population variance.
    Flat windows (s^2 = 0) get k = 0 and return the local mean. The
    window radius may be at most 2 max(H, W, 10).
    """
    check_radii(img, window_radius=params.window_radius)
    v = img.pixels
    m, s2 = _window_stats(mirror_pad(v, params.window_radius), params.window_radius)
    sig2 = params.noise_sigma ** 2
    num = np.multiply(m, m)
    num *= sig2
    np.subtract(s2, num, out=num)
    den = s2
    den *= 1.0 + sig2
    gain = np.zeros_like(m)
    np.divide(num, den, out=gain, where=den > 0)
    np.clip(gain, 0.0, 1.0, out=gain)
    out = np.subtract(v, m, out=num)
    out *= gain
    out += m
    return GrayImage(out)


def frost_filter(img: GrayImage, params: FrostParams) -> GrayImage:
    """Exponentially damped window average.

    Window pixels are weighted exp(-K * Cv^2 * dist(i, j)) with the
    Euclidean offset distance and the local squared coefficient of
    variation Cv^2 = s^2 / m^2 (taken as 0 when m = 0). Flat windows
    yield the plain window mean; large K on textured windows collapses
    the weight onto the center pixel. The window radius may be at most
    2 max(H, W, 10).

    The offsets are taken one distance at a time: the samples at one
    distance are summed, then weighed by that distance's exp, so each
    exp is computed once and no array is kept per offset or distance.
    """
    check_radii(img, window_radius=params.window_radius)
    v = img.pixels
    radius = params.window_radius
    height, width = v.shape
    padded = mirror_pad(v, radius)
    m, s2 = _window_stats(padded, radius)
    m2 = np.multiply(m, m, out=m)
    kcv2 = np.divide(s2, m2, out=np.zeros_like(s2), where=m2 > 0)
    kcv2 *= -params.damping
    # the center sample has weight exp(0) = 1
    num = v.copy()
    den = np.ones_like(v)
    ring, weight = m2, s2
    offsets = sorted((dy * dy + dx * dx, dy, dx)
                     for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1))
    for dist2, group in itertools.groupby(offsets[1:], key=lambda o: o[0]):
        ring.fill(0.0)
        count = 0
        for _, dy, dx in group:
            ring += padded[radius + dy : radius + dy + height, radius + dx : radius + dx + width]
            count += 1
        np.multiply(kcv2, math.sqrt(dist2), out=weight)
        with np.errstate(under="ignore"):
            np.exp(weight, out=weight)
        ring *= weight
        num += ring
        weight *= count
        den += weight
    num /= den
    return GrayImage(num)


def _plan_strips(threads, height: int, width: int) -> tuple[int, int]:
    """Strip height and worker count for `srad`; starts nothing.

    ``threads`` = 0 asks for one worker per CPU. Each worker takes at
    least one full strip of `_STRIP_VALUES` values, so a second worker
    starts only on an image that holds two; and workers never outnumber
    the CPUs (see `worker_cap`).
    """
    rows = max(1, _STRIP_VALUES // (width + 2))
    return rows, min(worker_cap(threads), max(1, height // rows))


def srad(img: GrayImage, params: SradParams, threads: int = 0) -> GrayImage:
    """Speckle-reducing anisotropic diffusion (explicit scheme).

    Per iteration: one-sided neighbor differences give the normalized
    gradient and Laplacian, from which the instantaneous coefficient of
    variation q is formed; the diffusion coefficient
    c = 1 / (1 + (q^2 - q0(t)^2) / (q0(t)^2 (1 + q0(t)^2))) is clamped
    to [0, 1]; the image steps by (dt / 4) * div(c grad v). Pixels must
    be strictly positive (shift the image first if needed); positivity
    is preserved by the scheme for dt <= 0.25. An iteration that leaves
    a pixel non-finite raises `NumericError`. ``threads`` caps the worker
    processes as for `nlm_denoise`; here 0, one per CPU, is the default.

    The image is mirror-padded by one pixel and flattened, and the
    south and east differences and c are kept on the same row stride
    S = W + 2, so a neighbour is a flat step (S south, 1 east) and every
    pass is one contiguous slice; what the passes write into the margins
    is dropped when the iteration restores the mirror. A pixel's north
    and west differences are the negated south and east ones of the
    pixel above and to its left, and since x + (-y) == x - y and
    (-y)^2 == y^2 exactly, each pixel sees the same IEEE operations in
    the same order as with four difference arrays. Likewise c dN and
    c dW are the negated products c_S dS and c_E dE of the pixel above
    and to its left, so two product arrays serve all four terms. c is
    never negative, since q^2 >= 0 (lap^2 <= 4 grad2 by Cauchy-Schwarz)
    keeps the denominator above 0; the exceptions, -0.0 and NaN, clamp
    to themselves, so only the upper bound is applied.

    Each iteration sweeps the image in row strips of about
    `_STRIP_VALUES` values, so that a strip's passes stay in cache:
    strip k forms its differences and c (keeping its own copies of the
    south differences of the row above it and the east difference of
    the value before it), then strip k - 1, whose last row needs c of
    the row below, steps. Workers (`_plan_strips`) take blocks of
    consecutive strips; a strip next to another worker's block steps
    only after every worker has formed its c, and the next iteration
    forms only after every worker has stepped, restored its mirror
    margins and checked its pixels. No strip is formed from stepped
    pixels, so the bits do not depend on the worker count or the strip
    height. The padded image, the differences and c are image-sized
    (shared with the workers); each worker's other scratch is 5 strips.
    """
    v = img.pixels
    if np.any(v <= 0):
        idx = np.argwhere(v <= 0)[0]
        raise DomainError(
            f"diffusion requires strictly positive pixels; pixel ({idx[0]}, {idx[1]}) "
            f"is {v[idx[0], idx[1]]!r} (shift the image by a small epsilon first)"
        )
    height, width = v.shape
    stride = width + 2
    dt, q0, rho = params.dt, params.q0, params.rho
    strip_rows, workers = _plan_strips(threads, height, width)
    alloc = shared_array if workers > 1 else cache_aligned
    flat = alloc((height + 2) * stride)
    grid = flat.reshape(height + 2, stride)
    grid[...] = mirror_pad(v, 1)
    # c keeps its top and bottom margin rows at 0
    c_flat = alloc(flat.size)
    c_grid = c_flat.reshape(grid.shape)
    ys = [*range(0, height, strip_rows), height]
    count = len(ys) - 1
    # Strip k's south differences, from the row above it on, and east
    # differences, from the value before it on: south[k] = flat[k + S] -
    # flat[k] and east[k] = flat[k + 1] - flat[k]. The first strip's
    # row above (the top margin) and value before (read only for the
    # margin) keep their initial 0, the first by the mirror.
    south = alloc(height * stride + count * stride)
    east = alloc(height * stride + count)

    def strip(k, sq, esq, a, b, tmp) -> SimpleNamespace:
        y0, y1 = ys[k], ys[k + 1]
        lo, hi = (y0 + 1) * stride, (y1 + 1) * stride  # the flat span of pixel rows y0..y1-1
        n = hi - lo
        s_at, e_at = lo + (k - 1) * stride, lo - stride + k
        s_span, e_span = south[s_at : s_at + n + stride], east[e_at : e_at + n + 1]
        sq_span, esq_span = sq[: n + stride], esq[: n + 1]
        s_skip, e_skip = (0, 0) if k else (stride, 1)
        return SimpleNamespace(
            px=flat[lo:hi],
            # the differences a strip forms: s_new = s_hi - s_lo, e_new = e_hi - e_lo
            s_new=s_span[s_skip:], s_hi=flat[lo + s_skip : hi + stride],
            s_lo=flat[lo - stride + s_skip : hi],
            e_new=e_span[e_skip:], e_hi=flat[lo + e_skip : hi + 1], e_lo=flat[lo - 1 + e_skip : hi],
            s_span=s_span, d_s=s_span[stride:], neg_d_n=s_span[:n],
            e_span=e_span, d_e=e_span[1:], neg_d_w=e_span[:n],
            c=c_flat[lo:hi], c_s=c_flat[lo : hi + stride], c_e=c_flat[lo : hi + 1],
            c_right=c_grid[y0 + 1 : y1 + 1, -1],
            # squares, then the products: index j is flat index lo - S + j
            # (sq) and lo - 1 + j (esq)
            sq=sq_span, sq_n=sq_span[:n], sq_s=sq_span[stride:],
            esq=esq_span, esq_w=esq_span[:n], esq_e=esq_span[1:],
            a=a[:n], b=b[:n], tmp=tmp[:n])

    def work(w, link) -> None:
        first, last = count * w // workers, count * (w + 1) // workers
        scratch = (cache_aligned((strip_rows + 1) * stride), cache_aligned(strip_rows * stride + 1),
                   *(cache_aligned(strip_rows * stride) for _ in range(3)))
        strips = {k: strip(k, *scratch) for k in range(first, last)}
        # A strip steps right after the one below it forms, and the
        # image's last strip right after its own forming, unless a
        # neighbour is another worker's: then it steps after the barrier.
        early = {k for k in strips
                 if (k > first or k == 0) and (k < last - 1 or k == count - 1)}
        late = [k for k in strips if k not in early]
        rows = grid[ys[first] + 1 : ys[last] + 1]
        block = flat[(ys[first] + 1) * stride : (ys[last] + 1) * stride]
        for t in range(1, params.iterations + 1):
            q0_t = q0 * math.exp(-rho * t * dt)
            q0_sq = q0_t * q0_t
            if t > 1:
                link.barrier()  # every strip has stepped
            for k in range(first, last + 1):
                if k < last:
                    _srad_form(strips[k], q0_sq)
                if k - 1 in early:
                    _srad_step(strips[k - 1], dt)
            link.barrier()  # every strip has formed
            for k in late:
                _srad_step(strips[k], dt)
            # restore the mirror margins the steps wrote over
            rows[:, 0] = rows[:, 1]
            rows[:, -1] = rows[:, -2]
            if last == count:
                grid[-1] = grid[-2]
            if not np.isfinite(block).all():
                raise NumericError(f"diffusion diverged to non-finite values at iteration {t}")

    run_workers(work, workers, "SRAD")
    return GrayImage(grid[1:-1, 1:-1])


def _srad_form(s: SimpleNamespace, q0_sq: float) -> None:
    """The differences and c of one strip of `srad`."""
    np.subtract(s.s_hi, s.s_lo, out=s.s_new)
    np.subtract(s.e_hi, s.e_lo, out=s.e_new)
    np.multiply(s.s_span, s.s_span, out=s.sq)
    np.multiply(s.e_span, s.e_span, out=s.esq)
    # grad2 = (dN^2 + dS^2 + dW^2 + dE^2) / v^2
    grad2 = np.add(s.sq_n, s.sq_s, out=s.a)
    grad2 += s.esq_w
    grad2 += s.esq_e
    grad2 /= np.multiply(s.px, s.px, out=s.tmp)
    # lap = (dN + dS + dW + dE) / v
    lap = np.subtract(s.d_s, s.neg_d_n, out=s.b)
    lap -= s.neg_d_w
    lap += s.d_e
    lap /= s.px
    # q2 = (0.5 grad2 - lap^2 / 16) / (1 + lap / 4)^2. lap^2 is taken
    # as lap * lap: (lap / 4)^2 stays finite where lap * lap overflows
    # (1.34e154 < |lap| < 5.4e154), and would change c there.
    q2 = grad2
    q2 *= 0.5
    q2 -= np.multiply(np.multiply(lap, lap, out=s.tmp), 1.0 / 16.0, out=s.tmp)
    np.multiply(lap, 0.25, out=s.tmp)
    s.tmp += 1.0
    q2 /= np.multiply(s.tmp, s.tmp, out=s.tmp)
    q2 -= q0_sq
    q2 /= q0_sq * (1.0 + q0_sq)
    q2 += 1.0
    np.divide(1.0, q2, out=s.c)
    np.minimum(s.c, 1.0, out=s.c)
    # The bottom row and the right column meet only the zero south and
    # east differences of the mirror, so they need only be finite: the
    # row stays 0, and the column, just computed from margin values, is
    # reset to 0 before 0 * c there can turn into NaN.
    s.c_right[...] = 0.0


def _srad_step(s: SimpleNamespace, dt: float) -> None:
    """Step one strip of `srad` by (dt / 4) div(c grad v)."""
    # div = c dN + c_S dS + c dW + c_E dE. sq gets c_S dS from the row
    # above the strip on, esq c_E dE from the value left of it on; their
    # entries one row up and one value left are -c dN and -c dW.
    np.multiply(s.c_s, s.s_span, out=s.sq)
    np.multiply(s.c_e, s.e_span, out=s.esq)
    div = np.subtract(s.sq_s, s.sq_n, out=s.a)
    div -= s.esq_w
    div += s.esq_e
    div *= dt / 4.0
    s.px += div
