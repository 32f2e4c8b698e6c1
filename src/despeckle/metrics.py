"""Full-reference image quality metrics.

Provides peak signal-to-noise ratio, the structural similarity index
over a Gaussian window, and an edge preservation index based on
correlating high-pass responses. All three take (reference, test) pairs
of equal size; an overflow raises `NumericError` instead of a score.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, check_real
from .image import GrayImage, blur_array

CSV_HEADER = "image_id,filter_name,psnr_db,ssim,epi"
# SSIM's window sigma and stabilizer factors
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def _check_pair(reference: GrayImage, test: GrayImage) -> None:
    if (reference.height, reference.width) != (test.height, test.width):
        raise ParameterError(
            f"image sizes differ: {reference.height}x{reference.width} vs "
            f"{test.height}x{test.width}"
        )


def _finite(value: float, metric: str) -> float:
    if not math.isfinite(value):
        raise NumericError(f"{metric}: the images overflow float64 (got {value!r})")
    return value


def psnr(reference: GrayImage, test: GrayImage, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in decibels.

    10 * log10(peak^2 / MSE), or 10 * (2 log10(peak) - log10(MSE)) where
    the quotient is not a normal float; identical images give +inf.
    Where the images differ but every square underflows, the MSE is
    taken of the differences scaled by the power of two that takes the
    largest magnitude into [0.5, 1), exactly, and the scale is added back
    to its logarithm.
    """
    _check_pair(reference, test)
    peak = check_real(peak, "peak")
    diff = reference.pixels - test.pixels
    with np.errstate(over="ignore"):
        mse = float(np.mean(diff ** 2))
    if mse == 0.0:
        if not diff.any():
            return math.inf
        exponent = math.frexp(float(np.abs(diff).max()))[1]
        scaled = float(np.mean(np.ldexp(diff, -exponent) ** 2))
        return 10.0 * (2.0 * math.log10(peak) - math.log10(scaled) - 2 * exponent * math.log10(2.0))
    ratio = peak ** 2 / _finite(mse, "psnr")
    normal = sys.float_info.min <= ratio < math.inf
    return 10.0 * (math.log10(ratio) if normal else 2.0 * math.log10(peak) - math.log10(mse))


def ssim(reference: GrayImage, test: GrayImage, peak: float = 255.0) -> float:
    """Mean structural similarity over Gaussian-windowed local statistics.

    The window, 11x11 of sigma 1.5, and the stabilizers C1 = (0.01 peak)^2
    and C2 = (0.03 peak)^2 are those of Wang, Bovik, Sheikh & Simoncelli
    (2004); ``peak`` is the dynamic range L. Local means, variances, and
    covariance use mirror boundary, so the score averages over the full
    image without border cropping. Identical images score 1; the result
    lies in [-1, 1]. The five planes are blurred one at a time into a few
    reused buffers, and each pixel's score is the luminance ratio times
    the contrast-structure ratio, so no product of C1 and C2 can overflow.
    """
    _check_pair(reference, test)
    peak = check_real(peak, "peak")
    side = 2 * math.ceil(3.0 * _SSIM_SIGMA) + 1
    if min(reference.height, reference.width) < side:
        raise ParameterError(f"images must be at least {side}x{side} for window sigma "
                             f"{_SSIM_SIGMA}, got {reference.height}x{reference.width}")
    x, y = reference.pixels, test.pixels
    c1, c2 = (_SSIM_K1 * peak) ** 2, (_SSIM_K2 * peak) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        mu_x, mu_y, plane = blur_array(x, _SSIM_SIGMA), blur_array(y, _SSIM_SIGMA), np.empty_like(x)

        def centered(a, b, mu_a, mu_b):  # blur(a b) - mu_a mu_b, with the products in ``plane``
            moment = blur_array(np.multiply(a, b, out=plane), _SSIM_SIGMA)
            return np.subtract(moment, np.multiply(mu_a, mu_b, out=plane), out=moment)

        var = centered(x, x, mu_x, mu_x)
        var += centered(y, y, mu_y, mu_y)
        cs = centered(x, y, mu_x, mu_y)  # and ``plane`` keeps mu_x mu_y
        cs = np.add(np.multiply(cs, 2.0, out=cs), c2, out=cs)
        cs /= np.add(var, c2, out=var)  # the contrast-structure term
        lum = np.add(np.multiply(plane, 2.0, out=plane), c1, out=plane)
        den = np.add(np.multiply(mu_x, mu_x, out=mu_x), np.multiply(mu_y, mu_y, out=var), out=mu_x)
        lum /= np.add(den, c1, out=den)  # the luminance term
        score = float(np.mean(np.multiply(lum, cs, out=lum)))
    return min(1.0, max(-1.0, _finite(score, "ssim")))  # the clamp absorbs rounding


def _response(img: GrayImage) -> tuple[np.ndarray, float]:
    """The mean-removed 4-neighbor Laplacian of ``img`` over the interior
    (mask fully inside), and its energy, the sum of its squares. Below
    energy 1 it is scaled by the power of two that takes its largest
    magnitude into [0.5, 1): exactly, so a correlation is unchanged but
    for squares that no longer underflow."""
    arr = img.pixels
    r = arr[0:-2, 1:-1] + arr[2:, 1:-1] + arr[1:-1, 0:-2] + arr[1:-1, 2:] - 4.0 * arr[1:-1, 1:-1]
    r = r - r.mean()
    energy = float(np.sum(r * r))
    if energy < 1.0:
        r = np.ldexp(r, -math.frexp(float(np.abs(r).max()))[1])
        energy = float(np.sum(r * r))
    return r, energy


def epi(reference: GrayImage, test: GrayImage) -> float:
    """Edge preservation index.

    Pearson correlation between the mean-removed 3x3 Laplacian
    responses of reference and test over interior pixels. Returns 0
    when either response carries no variation (e.g. constant images).
    """
    _check_pair(reference, test)
    if reference.height < 3 or reference.width < 3:
        raise ParameterError(
            f"edge preservation needs at least a 3x3 image, got "
            f"{reference.height}x{reference.width}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        (a, sa), (b, sb) = _response(reference), _response(test)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    scale = math.sqrt(_finite(sa * sb, "epi"))  # bounds |sum(a b)| (Cauchy-Schwarz)
    value = float(np.sum(a * b)) / scale
    return float(min(1.0, max(-1.0, value)))


@dataclass(frozen=True)
class MetricReport:
    """Bundle of the three scores for one (reference, test) pair."""

    psnr_db: float
    ssim: float
    epi: float

    def __post_init__(self):
        if math.isnan(self.psnr_db):
            raise ParameterError("psnr_db must not be NaN")
        for name in ("ssim", "epi"):
            val = getattr(self, name)
            if not (math.isfinite(val) and -1.0 <= val <= 1.0):
                raise ParameterError(f"{name} must lie in [-1, 1], got {val!r}")

    def csv_row(self, image_id: str, filter_name: str) -> str:
        """One CSV line: identifiers plus the scores at six decimals
        ("inf" for a perfect PSNR)."""
        def fmt(value: float) -> str:
            return "inf" if math.isinf(value) else f"{value:.6f}"
        return f"{image_id},{filter_name},{fmt(self.psnr_db)},{fmt(self.ssim)},{fmt(self.epi)}"


def evaluate(reference: GrayImage, test: GrayImage, peak: float = 255.0) -> MetricReport:
    """Compute all three metrics for one pair; ``peak`` is the dynamic
    range of both PSNR and SSIM."""
    return MetricReport(
        psnr_db=psnr(reference, test, peak=peak),
        ssim=ssim(reference, test, peak=peak),
        epi=epi(reference, test),
    )
