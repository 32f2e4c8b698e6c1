"""Classic local despeckling filters: Lee, Frost, and SRAD.

These serve as comparison baselines for the non-local filters. All
three use mirror boundary extension and sum in a fixed order, so
repeated runs are bit-identical.

They work plane by plane on a few preallocated image-sized arrays, so
their memory does not grow with the window. Lee and Frost take the
window mean and variance as fixed-order sums over the shifted planes
of the mirror-padded input. SRAD sweeps each iteration in row strips
over buffers it writes in place, so that a strip's passes stay in
cache; its output bits are those of the plain four-difference
formulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NumericError, check_int, check_real
from .image import GrayImage, cache_aligned, check_radii, mirror_pad

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


def srad(img: GrayImage, params: SradParams) -> GrayImage:
    """Speckle-reducing anisotropic diffusion (explicit scheme).

    Per iteration: one-sided neighbor differences give the normalized
    gradient and Laplacian, from which the instantaneous coefficient of
    variation q is formed; the diffusion coefficient
    c = 1 / (1 + (q^2 - q0(t)^2) / (q0(t)^2 (1 + q0(t)^2))) is clamped
    to [0, 1]; the image steps by (dt / 4) * div(c grad v). Pixels must
    be strictly positive (shift the image first if needed); positivity
    is preserved by the scheme for dt <= 0.25. An iteration that leaves
    a pixel non-finite raises `NumericError`.

    The image is mirror-padded by one pixel and flattened, and the
    south and east differences and c are kept on the same row stride
    S = W + 2, so a neighbour is a flat step (S south, 1 east) and every
    pass is one contiguous slice; what the passes write into the margins
    is dropped when each step restores the mirror. A pixel's north and
    west differences are the negated south and east ones of the pixel
    above and to its left, and since x + (-y) == x - y and
    (-y)^2 == y^2 exactly, each pixel sees the same IEEE operations in
    the same order as with four difference arrays. Likewise c dN and
    c dW are the negated products c_S dS and c_E dE of the pixel above
    and to its left, so two product arrays serve all four terms.

    Each iteration sweeps the image in row strips of about
    `_STRIP_VALUES` values, so that a strip's passes stay in cache: the
    differences and c of strip k, then the step of strip k - 1, whose
    last row needs c of the row below. Only the padded image, the
    differences and c are image-sized; the other scratch is 5 strips.
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
    flat = cache_aligned((height + 2) * stride)
    grid = flat.reshape(height + 2, stride)
    grid[...] = mirror_pad(v, 1)
    # south[k] = flat[k + S] - flat[k] and east[k] = flat[k + 1] - flat[k].
    # Only pixel rows, margin columns included, are written: the top margin
    # row's south differences and the east difference just before pixel
    # (0, 0) keep their initial 0, the first by the mirror, the second
    # read only for the margin. c keeps its bottom margin row at 0.
    south, east, c_flat = (cache_aligned(flat.size) for _ in range(3))
    c_grid = c_flat.reshape(grid.shape)
    strip_rows = max(1, _STRIP_VALUES // stride)
    sq, esq = cache_aligned((strip_rows + 1) * stride), cache_aligned(strip_rows * stride + 1)
    a, b, tmp = (cache_aligned(strip_rows * stride) for _ in range(3))
    strips = []
    for y0 in range(0, height, strip_rows):
        y1 = min(y0 + strip_rows, height)
        lo, hi = (y0 + 1) * stride, (y1 + 1) * stride  # the flat span of pixel rows y0..y1-1
        n = hi - lo
        s_span, e_span = south[lo - stride : hi], east[lo - 1 : hi]
        sq_span, esq_span = sq[: n + stride], esq[: n + 1]
        strips.append(SimpleNamespace(
            px=flat[lo:hi], below=flat[lo + stride : hi + stride], right=flat[lo + 1 : hi + 1],
            s_span=s_span, d_s=s_span[stride:], neg_d_n=s_span[:n],
            e_span=e_span, d_e=e_span[1:], neg_d_w=e_span[:n],
            c=c_flat[lo:hi], c_s=c_flat[lo : hi + stride], c_e=c_flat[lo : hi + 1],
            c_right=c_grid[y0 + 1 : y1 + 1, -1], rows=grid[y0 + 1 : y1 + 1],
            bottom=grid[-2:] if y1 == height else None,
            # squares, then the products: index j is flat index lo - S + j
            # (sq) and lo - 1 + j (esq)
            sq=sq_span, sq_n=sq_span[:n], sq_s=sq_span[stride:],
            esq=esq_span, esq_w=esq_span[:n], esq_e=esq_span[1:],
            a=a[:n], b=b[:n], tmp=tmp[:n]))
    for t in range(1, params.iterations + 1):
        q0_t = q0 * math.exp(-rho * t * dt)
        q0_sq = q0_t * q0_t
        for k, s in enumerate(strips):
            np.subtract(s.below, s.px, out=s.d_s)
            np.subtract(s.right, s.px, out=s.d_e)
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
            # q2 = (0.5 grad2 - lap^2 / 16) / (1 + lap / 4)^2
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
            np.clip(s.c, 0.0, 1.0, out=s.c)
            # The bottom row and the right column meet only the zero south
            # and east differences of the mirror, so they need only be
            # finite: the row stays 0, and the column, just computed from
            # margin values, is reset to 0 before 0 * c there can turn into
            # NaN.
            s.c_right[...] = 0.0
            if k:
                _srad_step(strips[k - 1], dt, t)
        _srad_step(strips[-1], dt, t)
    return GrayImage(grid[1:-1, 1:-1])


def _srad_step(s: SimpleNamespace, dt: float, t: int) -> None:
    """Step one strip of `srad` by (dt / 4) div(c grad v), restore its
    mirror margins, and raise `NumericError` if a pixel is not finite."""
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
    # restore the mirror margins the step wrote over
    s.rows[:, 0] = s.rows[:, 1]
    s.rows[:, -1] = s.rows[:, -2]
    if s.bottom is not None:
        s.bottom[1] = s.bottom[0]
    if not np.isfinite(s.px).all():
        raise NumericError(f"diffusion diverged to non-finite values at iteration {t}")
