"""Classic local despeckling filters: Lee, Frost, and SRAD.

These serve as comparison baselines for the non-local filters. All
three use mirror boundary extension and are single-pass vectorized, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _local_windows(v: np.ndarray, radius: int) -> np.ndarray:
    """(H, W, k, k) view of the mirror-padded k x k window around each pixel."""
    side = 2 * radius + 1
    return sliding_window_view(mirror_pad(v, radius), (side, side))


def lee_filter(img: GrayImage, params: LeeParams) -> GrayImage:
    """Local linear minimum-mean-square-error despeckling.

    out = m + k (v - m) with gain
    k = max(0, (s^2 - m^2 sigma^2) / (s^2 (1 + sigma^2))) clamped to
    [0, 1], where m and s^2 are the window mean and population variance.
    Flat windows (s^2 = 0) get k = 0 and return the local mean.
    """
    v = img.pixels
    windows = _local_windows(v, params.window_radius)
    m = windows.mean(axis=(-2, -1))
    s2 = ((windows - m[..., None, None]) ** 2).mean(axis=(-2, -1))
    sig2 = params.noise_sigma ** 2
    num = s2 - m * m * sig2
    den = s2 * (1.0 + sig2)
    gain = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    gain = np.clip(gain, 0.0, 1.0)
    return GrayImage(m + gain * (v - m))


def frost_filter(img: GrayImage, params: FrostParams) -> GrayImage:
    """Exponentially damped window average.

    Window pixels are weighted exp(-K * Cv^2 * dist(i, j)) with the
    Euclidean offset distance and the local squared coefficient of
    variation Cv^2 = s^2 / m^2 (taken as 0 when m = 0). Flat windows
    yield the plain window mean; large K on textured windows collapses
    the weight onto the center pixel.
    """
    v = img.pixels
    radius = params.window_radius
    windows = _local_windows(v, radius)
    m = windows.mean(axis=(-2, -1))
    s2 = ((windows - m[..., None, None]) ** 2).mean(axis=(-2, -1))
    m2 = m * m
    cv2 = np.divide(s2, m2, out=np.zeros_like(s2), where=m2 > 0)
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    dist = np.sqrt(offs[:, None] ** 2 + offs[None, :] ** 2)
    with np.errstate(under="ignore"):
        weights = np.exp(-params.damping * cv2[..., None, None] * dist)
    wsum = weights.sum(axis=(-2, -1))
    return GrayImage((windows * weights).sum(axis=(-2, -1)) / wsum)


def srad(img: GrayImage, params: SradParams) -> GrayImage:
    """Speckle-reducing anisotropic diffusion (explicit scheme).

    Per iteration: one-sided neighbor differences give the normalized
    gradient and Laplacian, from which the instantaneous coefficient of
    variation q is formed; the diffusion coefficient
    c = 1 / (1 + (q^2 - q0(t)^2) / (q0(t)^2 (1 + q0(t)^2))) is clamped
    to [0, 1]; the image steps by (dt / 4) * div(c grad v). Pixels must
    be strictly positive (shift the image first if needed); positivity
    is preserved by the scheme for dt <= 0.25.
    """
    v = img.pixels
    if np.any(v <= 0):
        idx = np.argwhere(v <= 0)[0]
        raise DomainError(
            f"diffusion requires strictly positive pixels; pixel ({idx[0]}, {idx[1]}) "
            f"is {v[idx[0], idx[1]]!r} (shift the image by a small epsilon first)"
        )
    v = v.copy()
    dt, q0, rho = params.dt, params.q0, params.rho
    for t in range(1, params.iterations + 1):
        p = mirror_pad(v, 1)
        d_north = p[0:-2, 1:-1] - v
        d_south = p[2:, 1:-1] - v
        d_west = p[1:-1, 0:-2] - v
        d_east = p[1:-1, 2:] - v
        grad2 = (d_north**2 + d_south**2 + d_west**2 + d_east**2) / (v * v)
        lap = (d_north + d_south + d_west + d_east) / v
        q2 = (0.5 * grad2 - (1.0 / 16.0) * lap**2) / (1.0 + 0.25 * lap) ** 2
        q0_t = q0 * math.exp(-rho * t * dt)
        q0_sq = q0_t * q0_t
        c = 1.0 / (1.0 + (q2 - q0_sq) / (q0_sq * (1.0 + q0_sq)))
        c = np.clip(c, 0.0, 1.0)
        cp = mirror_pad(c, 1)
        c_south = cp[2:, 1:-1]
        c_east = cp[1:-1, 2:]
        div = c * d_north + c_south * d_south + c * d_west + c_east * d_east
        v += (dt / 4.0) * div
        if not np.all(np.isfinite(v)):
            raise NumericError(f"diffusion diverged to non-finite values at iteration {t}")
    return GrayImage(v)
