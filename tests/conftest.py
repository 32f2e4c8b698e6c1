import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from despeckle import GrayImage


class MatmulSpy:
    """Stands in for a module's ``np``; ``hook(x, y)`` runs before each
    of its matrix products x @ y."""

    def __init__(self, hook):
        self._hook = hook

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, y, **kwargs):
        self._hook(x, y)
        return np.matmul(x, y, **kwargs)


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


def fail():
    raise RuntimeError("injected failure")


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_children_of_a_killed_caller_stop(script):
    """Run ``script`` in a child interpreter that sees two CPUs, kill that
    interpreter outright once it has forked its first worker, and assert
    that the worker stops within 2 s. A caller killed outright cannot
    kill its children, so each must notice that the caller is gone."""
    prelude = textwrap.dedent("""
        import os
        fork = os.fork

        def reporting_fork():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid

        os.fork, os.cpu_count = reporting_fork, lambda: 2
    """)
    proc = subprocess.Popen([sys.executable, "-c", prelude + textwrap.dedent(script)],
                            stdout=subprocess.PIPE, text=True, env=child_env())
    pids = []
    try:
        pids.append(int(proc.stdout.readline()))
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 2

        def stopped(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rpartition(")")[2].split()[0] == "Z"
            except FileNotFoundError:
                return True

        while not stopped(pids[0]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert stopped(pids[0])
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
