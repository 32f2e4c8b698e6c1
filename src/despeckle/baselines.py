"""Classic local despeckling filters: Lee, Frost, and SRAD.

These serve as comparison baselines for the non-local filters. All
three use mirror boundary extension and sum in a fixed order, so
repeated runs are bit-identical.

They work plane by plane on a few preallocated image-sized arrays, so
their memory does not grow with the window. Lee and Frost take the
window mean and variance as fixed-order sums over the shifted planes
of the mirror-padded input. SRAD keeps every per-iteration quantity in
buffers it writes in place; its output bits are those of the plain
four-difference formulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, check_int, check_real
from .image import GrayImage, mirror_pad


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
    Flat windows (s^2 = 0) get k = 0 and return the local mean.
    """
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
    the weight onto the center pixel.

    The offsets are taken one distance at a time: the samples at one
    distance are summed, then weighed by that distance's exp, so each
    exp is computed once and no array is kept per offset or distance.
    """
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
    is preserved by the scheme for dt <= 0.25.

    The image is mirror-padded by one pixel and flattened, and every
    quantity is kept in a buffer on the same row stride S = W + 2,
    allocated once. A neighbour is then a flat step (S south, 1 east)
    and every pass is one contiguous slice; what the passes write into
    the margins is dropped when each step restores the mirror. The
    south and east differences are stored once: a pixel's north and
    west differences are the negated south and east ones of the pixel
    above and to its left, and since x + (-y) == x - y and
    (-y)^2 == y^2 exactly, each pixel sees the same IEEE operations in
    the same order as with four difference arrays.
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
    grid = mirror_pad(v, 1)
    flat = grid.ravel()
    # pixel rows, margin columns included, start at flat index `stride`
    size = height * stride
    px = flat[stride : stride + size]
    # south[k] = flat[k + S] - flat[k] from the top margin row down;
    # east[k] = flat[k + 1] - flat[k] from the margin left of pixel (0, 0)
    south, east = np.empty(size + stride), np.empty(size + 1)
    south_sq, east_sq = np.empty_like(south), np.empty_like(east)
    d_s, neg_d_n = south[stride:], south[:-stride]
    d_e, neg_d_w = east[1:], east[:-1]
    # c on the padded layout, so that c_south and c_east are flat steps
    c_grid = np.zeros_like(grid)
    c_flat = c_grid.ravel()
    c, c_south, c_east = (c_flat[k : k + size] for k in (stride, 2 * stride, stride + 1))
    a, b, tmp = np.empty(size), np.empty(size), np.empty(size)
    for t in range(1, params.iterations + 1):
        np.subtract(flat[stride:], flat[:-stride], out=south)
        np.subtract(flat[stride : stride + size + 1], flat[stride - 1 : stride + size],
                    out=east)
        np.multiply(south, south, out=south_sq)
        np.multiply(east, east, out=east_sq)
        # grad2 = (dN^2 + dS^2 + dW^2 + dE^2) / v^2
        grad2 = np.add(south_sq[:-stride], south_sq[stride:], out=a)
        grad2 += east_sq[:-1]
        grad2 += east_sq[1:]
        grad2 /= np.multiply(px, px, out=tmp)
        # lap = (dN + dS + dW + dE) / v
        lap = np.subtract(d_s, neg_d_n, out=b)
        lap -= neg_d_w
        lap += d_e
        lap /= px
        # q2 = (0.5 grad2 - lap^2 / 16) / (1 + lap / 4)^2
        q2 = grad2
        q2 *= 0.5
        q2 -= np.multiply(np.multiply(lap, lap, out=tmp), 1.0 / 16.0, out=tmp)
        np.multiply(lap, 0.25, out=tmp)
        tmp += 1.0
        q2 /= np.multiply(tmp, tmp, out=tmp)
        q0_t = q0 * math.exp(-rho * t * dt)
        q0_sq = q0_t * q0_t
        q2 -= q0_sq
        q2 /= q0_sq * (1.0 + q0_sq)
        q2 += 1.0
        np.divide(1.0, q2, out=c)
        np.clip(c, 0.0, 1.0, out=c)
        # The bottom row and the right column meet only the zero south and
        # east differences of the mirror, so they need only be finite: the
        # row stays 0, and the column, just computed from margin values, is
        # reset to 0 before 0 * c there can turn into NaN.
        c_grid[1:-1, -1] = 0.0
        # div = c dN + c_south dS + c dW + c_east dE
        div = np.multiply(c_south, d_s, out=a)
        div -= np.multiply(c, neg_d_n, out=b)
        div -= np.multiply(c, neg_d_w, out=b)
        div += np.multiply(c_east, d_e, out=b)
        div *= dt / 4.0
        px += div
        # restore the mirror margins the step wrote over
        grid[1:-1, 0] = grid[1:-1, 1]
        grid[1:-1, -1] = grid[1:-1, -2]
        grid[0] = grid[1]
        grid[-1] = grid[-2]
        if not np.all(np.isfinite(grid)):
            raise NumericError(f"diffusion diverged to non-finite values at iteration {t}")
    return GrayImage(grid[1:-1, 1:-1])
