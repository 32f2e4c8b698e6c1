"""Grayscale image container, mirror boundary handling, and Gaussian smoothing.

Every filter in this package extends images past their borders by
half-sample mirror reflection: index -1 maps back to 0, index ``width``
maps back to ``width - 1``. The fold is defined once, by `mirror_pad`,
which is NumPy's ``symmetric`` pad; patch reads fold their indices by
padding ``np.arange(n)`` with it, so all modules agree about boundary
values, and `check_radii` bounds the filters' window radii by its period,
as `check_sigmas` bounds the reach of their Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_int, check_real


@dataclass(frozen=True)
class GrayImage:
    """Dense single-channel image with float64 pixels.

    Pixels are stored row-major in a read-only 2-D array. Values are
    nominally in [0, 255] but are not clamped here; clamping and
    quantization happen only on PGM export. Construction rejects empty
    shapes and non-finite values, so any `GrayImage` handed around the
    package is known to be finite.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ParameterError(f"image must be 2-D, got {arr.ndim} dimension(s)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"image must be at least 1x1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("image contains non-finite pixels")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])


def mirror_pad(arr: np.ndarray, pad: int) -> np.ndarray:
    """Pad an array on all sides by half-sample mirror reflection.

    NumPy's ``symmetric`` mode reflects about the half-sample point
    (... 1 0 | 0 1 2 | 2 1 ...), also for pads wider than the array.
    """
    return np.pad(arr, pad, mode="symmetric")


def check_radii(img: GrayImage, **radii: int) -> None:
    """Reject each radius (given as name=value) outside [1, 2 max(H, W, 10)]
    for ``img``, before anything is sized by it.

    `mirror_pad` extends an image with period 2H by 2W, so a wider
    window only revisits its samples; the floor of 10 keeps the default
    radii valid on the smallest images.
    """
    bound = _radius_bound(img)
    for name, radius in radii.items():
        check_int(radius, f"{name} for a {img.height}x{img.width} image", 1, bound)


def check_sigmas(img: GrayImage, reach: float, **sigmas: float) -> None:
    """Reject each Gaussian sigma (given as name=value) that is not a
    positive finite real, or whose reach, ``reach`` sigmas, is past
    `check_radii`'s bound for ``img``, before anything is sized by it.

    A blur reaches 3 sigma: `blur_array` pads and truncates by
    ceil(3 sigma). A kernel truncated at a radius of its own, as the
    patch kernel is, is bounded at a reach of 1 sigma, like a radius.
    """
    bound = _radius_bound(img) / reach
    for name, sigma in sigmas.items():
        check_real(sigma, f"{name} for a {img.height}x{img.width} image", at_most=bound)


def _radius_bound(img: GrayImage) -> int:
    return 2 * max(img.height, img.width, 10)


def gaussian_axis_weights(sigma: float, radius: int | None = None) -> np.ndarray:
    """1-D Gaussian tap weights, normalized to sum 1.

    When ``radius`` is not given the kernel is truncated at
    ceil(3 * sigma). The 2-D kernels used by the blur, the similarity
    metric window, and the patch kernel are all outer products of these
    taps, which equals normalizing exp(-(dx^2 + dy^2) / (2 sigma^2))
    over the full square support.
    """
    sigma = check_real(sigma, "sigma")
    radius = math.ceil(3.0 * sigma) if radius is None else check_int(radius, "radius")
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    if sigma < 0.02:  # every tap but the center underflows: the unit impulse, the limit
        return (k == 0).astype(np.float64)
    if sigma > 1e154:  # sigma ** 2 overflows from ~1.34e154: the normalized box, the limit
        return np.full(k.size, 1.0 / k.size)
    w = np.exp(-(k * k) / (2.0 * sigma ** 2))
    return w / w.sum()


def correlate1d_valid(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Valid-mode 1-D correlation (or convolution: the taps are symmetric)
    of a 2-D array along ``axis``, into one new array.

    The 2c + 1 taps t must be symmetric. Horner's rule sums the windows
    x_k from the outside in, ((x_0 + x_2c) q_0 + x_1 + x_(2c-1)) q_1 ...
    + x_c, times t_c, with q_k = t_k / t_(k+1) (0 where t_k is 0: taps
    that underflowed give no 0/0): 3c + 1 passes, all but the first in
    place. Every element gets the same operations, so bits do not depend
    on how the caller slices the input.
    """
    n, t = arr.shape[axis] - taps.size + 1, taps.tolist()
    c = len(t) // 2
    x = [arr[k : k + n] if axis == 0 else arr[:, k : k + n] for k in range(2 * c + 1)]
    out = np.add(x[0], x[2 * c]) if c else x[0].copy()
    for k in range(1, c + 1):
        out *= t[k - 1] / t[k] if t[k - 1] else 0.0
        out += x[k]
        if k < c:
            out += x[2 * c - k]
    out *= t[c]
    return out


def blur_array(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing of a raw array with mirror boundary."""
    taps = gaussian_axis_weights(sigma)
    padded = mirror_pad(arr, taps.size // 2)
    return correlate1d_valid(correlate1d_valid(padded, taps, 0), taps, 1)


def gaussian_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Gaussian blur with kernel truncated at ceil(3 * sigma).

    The truncated kernel is renormalized to sum 1, so flat regions keep
    their level and the global mean is preserved up to rounding. Output
    size equals input size; borders use mirror extension. The reach
    ceil(3 sigma) may be at most 2 max(H, W, 10).
    """
    check_sigmas(img, 3.0, sigma=sigma)
    return GrayImage(blur_array(img.pixels, sigma))
