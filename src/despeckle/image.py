"""Grayscale image container, mirror boundary handling, and Gaussian smoothing.

Every filter in this package extends images past their borders by
half-sample mirror reflection: index -1 maps back to 0, index ``width``
maps back to ``width - 1``. The fold is defined once, by `mirror_pad`,
which is NumPy's ``symmetric`` pad; patch reads fold their indices by
padding ``np.arange(n)`` with it, so all modules agree about boundary
values, and `check_radii` bounds the filters' window radii by its period,
as `check_sigmas` bounds the reach of their Gaussians. Gaussian taps are
applied as banded matrix products (`tap_band`), by the blur here and by
the NLM engine, each small enough to run on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParameterError, check_int, check_real

_BAND = 8  # rows, or columns, of output per block of a banded product
_BLAS_SERIAL = 4 * 65536  # OpenBLAS runs a product of at most this many multiply-adds on one thread


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

    When ``radius`` is not given the kernel is truncated at ceil(3 * sigma).
    The 2-D kernels used by the blur, the similarity metric window, and the
    patch kernel are all outer products of these taps, which equals
    normalizing exp(-(dx^2 + dy^2) / (2 sigma^2)) over the full square
    support. Below sigma = 0.02 they are the unit impulse; at 1e100, a box.
    """
    sigma = check_real(sigma, "sigma")
    radius = math.ceil(3.0 * sigma) if radius is None else check_int(radius, "radius")
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-(k * k) / (2.0 * sigma ** 2))
    return w / w.sum()


def tap_band(taps: np.ndarray) -> np.ndarray:
    """The B x (B + 2c) band, B = `_BAND`, whose row i holds the 2c + 1 ``taps`` at columns i .. i + 2c."""
    wide = np.zeros((_BAND, _BAND + taps.size))  # read one column narrower, row i starts i later
    wide[:, : taps.size] = taps
    return wide.ravel()[: _BAND * (_BAND + taps.size - 1)].reshape(_BAND, -1)


def correlate1d_valid(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Valid-mode 1-D correlation (or convolution: the taps are symmetric)
    of a 2-D array along ``axis``, into one new array.

    Along axis 1 each block of B = `_BAND` outputs is its B + 2c input
    columns times the transposed `tap_band`, in products of at most
    `_BLAS_SERIAL` multiply-adds (for c up to 8188); along axis 0, the
    same on ``arr.T``. The last block and a product's last rows overlap
    the ones before, and fewer than B outputs or one row are zero-padded
    to a block of two rows, so every product has B columns and two rows
    or more. BLAS sums an output alike wherever it sits in one (held by
    `tests/test_image.py`), so bits do not depend on how ``arr`` is sliced.
    """
    if axis == 0:
        return correlate1d_valid(arr.T, taps, 1).T
    rows, n, inner = arr.shape[0], arr.shape[1] - taps.size + 1, _BAND + taps.size - 1
    if n < _BAND or rows < 2:
        block = np.zeros((max(rows, 2), max(arr.shape[1], inner)))
        block[:rows, : arr.shape[1]] = arr
        return correlate1d_valid(block, taps, 1)[:rows, :n]
    right, out, most = tap_band(taps).T, np.empty((rows, n)), max(2, _BLAS_SERIAL // (_BAND * inner))
    blocks = as_strided(arr, (n // _BAND, rows, inner), (_BAND * arr.strides[1], *arr.strides))
    outs = out[:, : n - n % _BAND].reshape(rows, -1, _BAND).transpose(1, 0, 2)
    for y in (max(0, min(y, rows - most)) for y in range(0, rows, most)):
        np.matmul(blocks[:, y : y + most], right, out=outs[:, y : y + most])
        if n % _BAND:
            np.matmul(arr[y : y + most, n - _BAND :], right, out=out[y : y + most, n - _BAND :])
    return out


def blur_array(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing of a raw array with mirror boundary."""
    taps = gaussian_axis_weights(sigma)
    return correlate1d_valid(correlate1d_valid(mirror_pad(arr, taps.size // 2), taps, 0), taps, 1)


def gaussian_blur(img: GrayImage, sigma: float) -> GrayImage:
    """Gaussian blur with kernel truncated at ceil(3 * sigma).

    The truncated kernel is renormalized to sum 1, so flat regions keep
    their level and the global mean is preserved up to rounding. Output
    size equals input size; borders use mirror extension. The reach
    ceil(3 sigma) may be at most 2 max(H, W, 10).
    """
    check_sigmas(img, 3.0, sigma=sigma)
    return GrayImage(blur_array(img.pixels, sigma))
