"""Synthetic speckle generation, log-domain transforms, and blind noise estimation.

Random fields come from numpy's counter-based Philox generator, so a
given (model, sigma, seed) triple produces bit-identical noise on every
run and platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParameterError, check_int, check_real
from .image import GrayImage

SPECKLE_MODELS = ("multiplicative_gaussian", "rayleigh")


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class SpeckleParams:
    """Configuration of one synthetic speckle draw."""

    model: str
    sigma: float
    seed: int

    def __post_init__(self):
        if self.model not in SPECKLE_MODELS:
            raise ParameterError(
                f"model must be one of {SPECKLE_MODELS}, got {self.model!r}"
            )
        object.__setattr__(self, "sigma", check_real(self.sigma, "sigma", nonnegative=True))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0, 2**64 - 1))


@dataclass(frozen=True)
class NoiseEstimate:
    """Blind noise level estimate (standard deviation in pixel units)."""

    sigma_n: float

    def __post_init__(self):  # a measurement at any image scale, not held to `REAL_RANGE`
        if not 0 <= self.sigma_n < math.inf:
            raise ParameterError(f"sigma_n must be a non-negative finite real, got {self.sigma_n!r}")


def add_multiplicative_speckle(img: GrayImage, params: SpeckleParams) -> GrayImage:
    """Corrupt an image with multiplicative speckle.

    model "multiplicative_gaussian": v = u * (1 + sigma * xi) with xi
    standard normal. model "rayleigh": v = u * r / E[r] with r drawn
    Rayleigh(scale=sigma); the division makes the noise field unit-mean
    so image brightness is preserved in expectation. sigma = 0 returns
    the input unchanged for both models. A draw that overflows float64
    (on huge samples) raises `NumericError`.
    """
    u = img.pixels
    if np.any(u < 0):
        raise DomainError("multiplicative speckle requires non-negative pixels")
    if params.sigma == 0.0:
        return img
    rng = _generator(params.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        if params.model == "multiplicative_gaussian":
            xi = rng.standard_normal(u.shape)
            out = u * (1.0 + params.sigma * xi)
        else:
            r = rng.rayleigh(scale=params.sigma, size=u.shape)
            out = u * (r / (params.sigma * math.sqrt(math.pi / 2.0)))
    if not np.isfinite(out).all():
        raise NumericError(f"speckle of sigma {params.sigma:g} overflows float64 on this image")
    return GrayImage(out)


def add_gaussian_noise(img: GrayImage, sigma: float, seed: int) -> GrayImage:
    """Add i.i.d. zero-mean Gaussian noise of standard deviation sigma."""
    sigma = check_real(sigma, "sigma", nonnegative=True)
    seed = check_int(seed, "seed", 0, 2**64 - 1)
    if sigma == 0.0:
        return img
    eta = _generator(seed).standard_normal(img.pixels.shape)
    return GrayImage(img.pixels + sigma * eta)


def log_compress(img: GrayImage, epsilon: float = 1.0) -> GrayImage:
    """Map pixels to ln(v + epsilon), turning multiplicative noise additive."""
    epsilon = check_real(epsilon, "epsilon")
    v = img.pixels
    if np.any(v < 0):
        idx = np.argwhere(v < 0)[0]
        raise DomainError(
            f"log compression requires non-negative pixels; pixel ({idx[0]}, {idx[1]}) is negative"
        )
    return GrayImage(np.log(v + epsilon))


def exp_expand(img: GrayImage, epsilon: float = 1.0) -> GrayImage:
    """Inverse of `log_compress`: exp(v) - epsilon."""
    epsilon = check_real(epsilon, "epsilon")
    with np.errstate(over="ignore"):
        out = np.exp(img.pixels) - epsilon
    bad = ~np.isfinite(out)
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        raise NumericError(f"exponential expansion overflowed at pixel ({idx[0]}, {idx[1]})")
    return GrayImage(out)


# Second-difference mask whose response to constant and linear ramps is
# exactly zero; its L2 norm is 6, hence the normalization below.
_RESIDUAL_TAPS = ((1.0, -2.0, 1.0), (-2.0, 4.0, -2.0), (1.0, -2.0, 1.0))


def estimate_noise_sigma(img: GrayImage) -> NoiseEstimate:
    """Blind noise standard deviation via the median absolute residual.

    Convolves with a 3x3 second-difference mask (interior pixels only)
    and rescales the median absolute response: for pure Gaussian noise
    the response is N(0, 36 sigma^2) and median(|N(0, s)|) = 0.6745 s.
    The estimate is scale-equivariant and exactly zero on constant
    images. It holds two interior-sized arrays: the response and one
    temporary.
    """
    if img.height < 3 or img.width < 3:
        raise ParameterError(
            f"noise estimation needs at least a 3x3 image, got {img.height}x{img.width}"
        )
    a = img.pixels
    res = np.zeros((img.height - 2, img.width - 2))
    term = np.empty_like(res)  # the one temporary: each tap's term, then added
    for dy, row in enumerate(_RESIDUAL_TAPS):
        for dx, tap in enumerate(row):
            res += np.multiply(tap, a[dy : dy + res.shape[0], dx : dx + res.shape[1]], out=term)
    np.abs(res, out=res)
    sigma = float(np.median(res, overwrite_input=True) / (0.6745 * 6.0))
    return NoiseEstimate(sigma_n=sigma)
