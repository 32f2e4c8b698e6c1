"""Full-reference image quality metrics.

Provides peak signal-to-noise ratio, the structural similarity index
over a Gaussian window, and an edge preservation index based on
correlating high-pass responses. All three take (reference, test) pairs
of equal size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_real
from .image import GrayImage, correlate1d_valid, gaussian_axis_weights, mirror_pad

CSV_HEADER = "image_id,filter_name,psnr_db,ssim,epi"


def _check_pair(reference: GrayImage, test: GrayImage) -> None:
    if (reference.height, reference.width) != (test.height, test.width):
        raise ParameterError(
            f"image sizes differ: {reference.height}x{reference.width} vs "
            f"{test.height}x{test.width}"
        )


def psnr(reference: GrayImage, test: GrayImage, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in decibels.

    10 * log10(peak^2 / MSE); identical images give +inf.
    """
    _check_pair(reference, test)
    peak = check_real(peak, "peak")
    mse = float(np.mean((reference.pixels - test.pixels) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak ** 2 / mse)


@dataclass(frozen=True)
class SsimParams:
    """Structural similarity constants.

    The local window is the truncated, renormalized Gaussian of the
    given sigma (11x11 at the default 1.5). Stabilizers are
    C1 = (k1 L)^2 and C2 = (k2 L)^2 for dynamic range L.
    """

    window_sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 255.0

    def __post_init__(self):
        for name in ("window_sigma", "k1", "k2", "dynamic_range"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))

    @property
    def window_side(self) -> int:
        return 2 * math.ceil(3.0 * self.window_sigma) + 1


def _window_filter(arr: np.ndarray, taps: np.ndarray) -> np.ndarray:
    r = taps.size // 2
    padded = mirror_pad(arr, r)
    return correlate1d_valid(correlate1d_valid(padded, taps, axis=0), taps, axis=1)


def ssim(reference: GrayImage, test: GrayImage, params: SsimParams = SsimParams()) -> float:
    """Mean structural similarity over Gaussian-windowed local statistics.

    Local means, variances, and covariance use mirror boundary, so the
    score averages over the full image without border cropping.
    Identical images score 1; the result lies in [-1, 1].
    """
    _check_pair(reference, test)
    side = params.window_side
    if reference.height < side or reference.width < side:
        raise ParameterError(
            f"images must be at least {side}x{side} for window sigma "
            f"{params.window_sigma}, got {reference.height}x{reference.width}"
        )
    x = reference.pixels
    y = test.pixels
    taps = gaussian_axis_weights(params.window_sigma)
    mu_x = _window_filter(x, taps)
    mu_y = _window_filter(y, taps)
    var_x = _window_filter(x * x, taps) - mu_x * mu_x
    var_y = _window_filter(y * y, taps) - mu_y * mu_y
    cov = _window_filter(x * y, taps) - mu_x * mu_y
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    score_map = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(min(1.0, max(-1.0, float(score_map.mean()))))


def _laplacian_interior(arr: np.ndarray) -> np.ndarray:
    # 4-neighbor high-pass response over the interior (mask fully inside).
    return (arr[0:-2, 1:-1] + arr[2:, 1:-1] + arr[1:-1, 0:-2] + arr[1:-1, 2:]
            - 4.0 * arr[1:-1, 1:-1])


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
    a = _laplacian_interior(reference.pixels)
    b = _laplacian_interior(test.pixels)
    a = a - a.mean()
    b = b - b.mean()
    sa = float(np.sum(a * a))
    sb = float(np.sum(b * b))
    if sa == 0.0 or sb == 0.0:
        return 0.0
    value = float(np.sum(a * b)) / math.sqrt(sa * sb)
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


def evaluate(reference: GrayImage, test: GrayImage, peak: float = 255.0,
             ssim_params: SsimParams | None = None) -> MetricReport:
    """Compute all three metrics for one pair."""
    params = ssim_params if ssim_params is not None else SsimParams()
    return MetricReport(
        psnr_db=psnr(reference, test, peak=peak),
        ssim=ssim(reference, test, params=params),
        epi=epi(reference, test),
    )
