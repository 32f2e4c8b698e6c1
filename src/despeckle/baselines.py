"""Classic local despeckling filters: Lee, Frost, and SRAD.

These serve as comparison baselines for the non-local filters. All
three use mirror boundary extension and sum in a fixed order, so
repeated runs are bit-identical.

They work plane by plane on a few preallocated image-sized arrays, so
their memory does not grow with the window. Lee and Frost take the
window mean and variance as fixed-order sums over the shifted planes
of the mirror-padded input. SRAD reads one padded image and writes
another each iteration, as the scalar scheme does, sweeping in row
strips so that a strip's passes stay in cache; its only image-sized
arrays are the two padded images. When the work fills more than one
forked worker, each takes an equal share of the rows, cut into equal
strips, and they meet once between iterations; its output bits are
those of the plain four-difference formulation at any strip height and
worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NumericError, check_int, check_real
from .image import GrayImage, check_radii, mirror_pad
from .workers import plan, run_workers, worker_array

# Values per row strip of `srad`: 128 KiB per strip-sized float64 array.
_STRIP_VALUES = 16384
# Array passes per value and iteration of `srad`: 33 to form and step, 2 to check.
_SRAD_PASSES = 35


@dataclass(frozen=True)
class LeeParams:
    """Lee filter configuration: window radius and noise coefficient of
    variation (sigma expressed relative to the local mean); an infinite
    noise_sigma gives the filter's limit, the window mean."""

    window_radius: int = 2
    noise_sigma: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "window_radius", check_int(self.window_radius, "window_radius", 1))
        object.__setattr__(self, "noise_sigma", check_real(self.noise_sigma, "noise_sigma",
                                                           nonnegative=True, allow_inf=True))


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
    Flat windows (s^2 = 0) get k = 0 and return the local mean, as does
    every window at sigma = inf. The window radius is at most 2 max(H, W, 10).
    """
    check_radii(img, window_radius=params.window_radius)
    v = img.pixels
    m, s2 = _window_stats(mirror_pad(v, params.window_radius), params.window_radius)
    sig2 = params.noise_sigma ** 2
    # At sigma = inf, or on huge samples, m^2 sigma^2 and s^2 (1 + sigma^2) overflow: the quotient
    # is -inf / inf, 0 inf (m = 0) or finite / inf, the gain's limit is 0 and fmax turns NaNs into it.
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.multiply(m, m)
        num *= sig2
        np.subtract(s2, num, out=num)
        den = s2
        den *= 1.0 + sig2
        gain = np.zeros_like(m)
        np.divide(num, den, out=gain, where=den > 0)
    np.fmin(np.fmax(gain, 0.0, out=gain), 1.0, out=gain)
    out = np.subtract(v, m, out=num)
    out *= gain
    out += m
    return GrayImage._adopt(out)


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
    with np.errstate(over="ignore"):  # -inf at a huge Cv^2 (a mean near 0): weight exp(-inf) = 0
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
        with np.errstate(over="ignore", under="ignore"):
            np.multiply(kcv2, math.sqrt(dist2), out=weight)
            np.exp(weight, out=weight)
        ring *= weight
        num += ring
        weight *= count
        den += weight
    num /= den
    return GrayImage._adopt(num)


def srad_plan(threads, height: int, width: int, params: SradParams) -> tuple[int, int]:
    """Strip height and worker count of `srad` on a ``height`` x ``width``
    image (see `workers.plan`), counting a barrier per iteration; starts
    nothing."""
    return plan(threads, height, width + 2, _STRIP_VALUES, _SRAD_PASSES * params.iterations,
                params.iterations)


def srad(img: GrayImage, params: SradParams, threads: int = 0) -> GrayImage:
    """Speckle-reducing anisotropic diffusion (explicit scheme).

    Per iteration: one-sided neighbor differences give the normalized
    gradient and Laplacian, from which the instantaneous coefficient of
    variation q is formed; the diffusion coefficient
    c = 1 / (1 + (q^2 - q0(t)^2) / (q0(t)^2 (1 + q0(t)^2))) is clamped
    to [0, 1], and takes its limit where q0(t)^2 is too small for
    1 + q0(t)^2 to exceed 1 (c = 1 where q = 0, else 0); the image steps
    by (dt / 4) * div(c grad v). The scheme needs strictly positive
    pixels, which it keeps for dt <= 0.25: an image whose minimum lo is
    at most 0 is lifted by 1e-6 - lo before the first iteration and
    lowered by as much after the last, and one whose lo is too low for
    the lift to leave the minimum above 0 (below about -1e10) raises
    `DomainError`. An iteration that leaves a pixel non-finite raises
    `NumericError`. ``threads`` caps the worker processes as for
    `nlm_denoise`: 0, the default, means one per CPU, and a call starts
    no more workers than its work fills (a 256x256 image runs on one
    worker for up to 15 iterations).

    The image is mirror-padded by one pixel and flattened, and the
    differences and c are kept on the same row stride S = W + 2, so a
    neighbour is a flat step (S south, 1 east) and every pass is one
    contiguous slice; what the passes write into the margins is dropped
    when the iteration restores the mirror. A pixel's north and west
    differences are the negated south and east ones of the pixel above
    and to its left, and since x + (-y) == x - y and (-y)^2 == y^2
    exactly, each pixel sees the same IEEE operations in the same order
    as with four difference arrays. Likewise c dN and c dW are the
    negated products c_S dS and c_E dE of the pixel above and to its
    left, so two product arrays serve all four terms. c is never
    negative, since q^2 >= 0 (lap^2 <= 4 grad2 by Cauchy-Schwarz) keeps
    the denominator above 0; the exceptions, -0.0 and NaN, clamp to
    themselves, so only the upper bound is applied.

    Like the scalar scheme, each iteration reads one padded grid and
    writes the other, and the two swap. It sweeps in row strips of
    about `_STRIP_VALUES` values, so that a strip's passes stay in
    cache: a strip forms its differences and c in strip-sized scratch,
    for one halo row more (the row below it, whose c its last row
    reads, and which the next strip forms the same way), and steps.
    Each worker (`srad_plan`) takes an equal share of the rows, cut
    into equal strips, and the workers meet at one barrier between
    iterations. No strip reads what another writes in the same
    iteration, so the bits do not depend on the worker count or the
    strip height. The two padded grids are the only
    image-sized arrays (shared with the workers); each worker's scratch
    is eight arrays of a strip and two rows.
    """
    v = img.pixels
    lo = float(v.min())
    shift = (1e-6 - lo) if lo <= 0.0 else 0.0
    if lo + shift <= 0.0:
        raise DomainError(f"diffusion needs positive pixels; the minimum {lo!r} is too low to lift")
    height, width = v.shape
    stride = width + 2
    dt, q0, rho = params.dt, params.q0, params.rho
    strip_rows, workers = srad_plan(threads, height, width, params)
    flats = [worker_array((height + 2) * stride, workers) for _ in range(2)]
    grids = [flat.reshape(height + 2, stride) for flat in flats]
    np.add(mirror_pad(v, 1), shift, out=grids[0])

    def strip(y0, y1, src, dst, s, e, sq, esq, a, b, tmp, c) -> SimpleNamespace:
        lo, hi = (y0 + 1) * stride, (y1 + 1) * stride  # the flat span of the strip's rows
        n = hi - lo
        # c is formed for the row below too, unless that is the bottom margin
        m = n + stride if y1 < height else n
        # s[j] and sq[j] belong to flat index lo - S + j, e[j] and esq[j]
        # to lo - 1 + j, c[j] to lo + j
        s, e, sq, esq = s[: m + stride], e[: m + 1], sq[: m + stride], esq[: m + 1]
        cs, ce = sq[: n + stride], esq[: n + 1]
        return SimpleNamespace(
            v=src[lo : lo + m], px=src[lo:hi], out=dst[lo:hi],
            s=s, s_hi=src[lo : lo + m + stride], s_lo=src[lo - stride : lo + m],
            e=e, e_hi=src[lo : lo + m + 1], e_lo=src[lo - 1 : lo + m],
            d_s=s[stride:], neg_d_n=s[:m], d_e=e[1:], neg_d_w=e[:m],
            sq=sq, sq_n=sq[:m], sq_s=sq[stride:], esq=esq, esq_w=esq[:m], esq_e=esq[1:],
            a=a[:m], b=b[:m], tmp=tmp[:m], c=c[:m], div=a[:n],
            c_right=c[: n + stride].reshape(-1, stride)[:, -1], c_below=c[m : n + stride],
            # the products: c_S dS, then c_E dE, from the row above and the value before on
            c_s=c[: n + stride], s_span=s[: n + stride], cs=cs, cs_s=cs[stride:], neg_cn=cs[:n],
            c_e=c[: n + 1], e_span=e[: n + 1], ce=ce, ce_e=ce[1:], neg_cw=ce[:n])

    def work(first, end, link) -> None:
        scratch = [worker_array((strip_rows + 2) * stride) for _ in range(8)]
        sweeps = [[strip(y0, min(y0 + strip_rows, end), flats[p], flats[1 - p], *scratch)
                   for y0 in range(first, end, strip_rows)] for p in (0, 1)]
        blocks = [grid[first + 1 : end + 1] for grid in grids]
        for t in range(1, params.iterations + 1):
            q0_t = q0 * math.exp(-rho * t * dt)
            q0_sq = q0_t * q0_t
            if t > 1:
                link.barrier()  # every worker has written the grid this one reads
            for s in sweeps[(t - 1) % 2]:
                _srad_form(s, q0_sq)
                _srad_step(s, dt)
            # restore the mirror margins the steps wrote over or left out
            grid, rows = grids[t % 2], blocks[t % 2]
            rows[:, 0] = rows[:, 1]
            rows[:, -1] = rows[:, -2]
            if first == 0:
                grid[0] = grid[1]
            if end == height:
                grid[-1] = grid[-2]
            if not np.isfinite(rows).all():
                raise NumericError(f"diffusion diverged to non-finite values at iteration {t}")

    run_workers(work, height, workers, "SRAD")
    return GrayImage._adopt(grids[params.iterations % 2][1:-1, 1:-1] - shift)


def _srad_form(s: SimpleNamespace, q0_sq: float) -> None:
    """The differences and c of one strip of `srad` and its halo row."""
    np.subtract(s.s_hi, s.s_lo, out=s.s)
    np.subtract(s.e_hi, s.e_lo, out=s.e)
    np.multiply(s.s, s.s, out=s.sq)
    np.multiply(s.e, s.e, out=s.esq)
    # grad2 = (dN^2 + dS^2 + dW^2 + dE^2) / v^2
    grad2 = np.add(s.sq_n, s.sq_s, out=s.a)
    grad2 += s.esq_w
    grad2 += s.esq_e
    grad2 /= np.multiply(s.v, s.v, out=s.tmp)
    # lap = (dN + dS + dW + dE) / v
    lap = np.subtract(s.d_s, s.neg_d_n, out=s.b)
    lap -= s.neg_d_w
    lap += s.d_e
    lap /= s.v
    # q2 = (0.5 grad2 - lap^2 / 16) / (1 + lap / 4)^2. lap^2 is taken
    # as lap * lap: (lap / 4)^2 stays finite where lap * lap overflows
    # (1.34e154 < |lap| < 5.4e154), and would change c there.
    q2 = grad2
    q2 *= 0.5
    q2 -= np.multiply(np.multiply(lap, lap, out=s.tmp), 1.0 / 16.0, out=s.tmp)
    np.multiply(lap, 0.25, out=s.tmp)
    s.tmp += 1.0
    q2 /= np.multiply(s.tmp, s.tmp, out=s.tmp)
    if 1.0 + q0_sq == 1.0:  # c's limit (the formula is 1 / 0 on a flat window); q2 <= 0 is q = 0
        np.less_equal(q2, 0.0, out=s.c)
    else:
        q2 -= q0_sq
        q2 /= q0_sq * (1.0 + q0_sq)
        q2 += 1.0
        np.divide(1.0, q2, out=s.c)
        np.minimum(s.c, 1.0, out=s.c)
    # The right column and the bottom margin row meet only the zero
    # east and south differences of the mirror, so they need only be
    # finite: the column, just computed from margin values, is reset to
    # 0 before 0 * c there can turn into NaN, and so is the bottom
    # margin row, which the image's last strip does not form.
    s.c_right[...] = 0.0
    s.c_below[...] = 0.0


def _srad_step(s: SimpleNamespace, dt: float) -> None:
    """Write one strip of `srad` stepped by (dt / 4) div(c grad v)."""
    # div = c dN + c_S dS + c dW + c_E dE. cs holds c_S dS from the row
    # above the strip on, ce c_E dE from the value left of it on; their
    # entries one row up and one value left are -c dN and -c dW.
    np.multiply(s.c_s, s.s_span, out=s.cs)
    np.multiply(s.c_e, s.e_span, out=s.ce)
    div = np.subtract(s.cs_s, s.neg_cn, out=s.div)
    div -= s.neg_cw
    div += s.ce_e
    div *= dt / 4.0
    np.add(s.px, div, out=s.out)
