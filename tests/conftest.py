import os
from pathlib import Path

import numpy as np

from despeckle import GrayImage


def rand_image(seed, height, width, lo=0.0, hi=255.0):
    """Seeded uniform-random test image (plain array)."""
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.uniform(lo, hi, (height, width))


def textured_image(seed, height, width, noise=25.0):
    """Smooth sinusoidal base plus seeded Gaussian noise; values stay
    well inside [0, 255] so weight decays remain in a useful range."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    base = 120.0 + 50.0 * np.sin(xx / 5.0) * np.cos(yy / 7.0)
    rng = np.random.Generator(np.random.Philox(seed))
    return base + noise * rng.standard_normal((height, width))


def make_phantom(side=256):
    """Piecewise-constant phantom: flat background with a rectangle,
    a disk, and two blocks. Strictly positive everywhere."""
    img = np.full((side, side), 60.0)
    s = side / 256.0

    def span(a, b):
        return slice(round(a * s), round(b * s))

    img[span(40, 120), span(48, 160)] = 180.0
    img[span(24, 56), span(192, 236)] = 220.0
    img[span(150, 230), span(168, 240)] = 90.0
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    disk = (yy - 176.0 * s) ** 2 + (xx - 88.0 * s) ** 2 <= (40.0 * s) ** 2
    img[disk] = 120.0
    return img


def make_step(height=32, width=32, low=60.0, high=190.0):
    """Vertical step edge down the middle."""
    img = np.full((height, width), low)
    img[:, width // 2 :] = high
    return img


def as_img(arr):
    return GrayImage(arr)


def child_env(**changes):
    """The environment for a child interpreter that imports the package
    from this checkout's ``src``, installed or not; a change to None
    removes that variable."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src, **changes}
    return {name: value for name, value in env.items() if value is not None}
