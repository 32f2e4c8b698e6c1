"""Forked worker processes for the filters that split an image by rows.

`worker_cap` is the one thread cap: the most workers a call may start.
`shared_array` allocates what the workers write, in a shared anonymous
mapping. `run_workers` runs a call's shares, one in the caller and the
rest in forked children, and gives each a `barrier` to meet the others
at and a `check` that ends a child whose caller has died.
"""

from __future__ import annotations

import mmap
import os
import signal
import threading

import numpy as np

from .errors import NumericError, check_int


def worker_cap(threads) -> int:
    """The most workers a call asking for ``threads`` may start.

    ``threads`` = 0 asks for one worker per CPU. Whatever is asked for,
    workers never outnumber the CPUs, and the cap is 1 without
    ``os.fork`` or beside other threads, whose locks a forked child
    would inherit held.
    """
    cpus = os.cpu_count() or 1
    asked = check_int(threads, "threads (0 = auto)") or cpus
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(asked, cpus)


def shared_array(size: int) -> np.ndarray:
    """``size`` float64 zeros in an anonymous mapping that forked
    children share, from a page boundary on."""
    return np.ndarray(size, buffer=mmap.mmap(-1, max(8 * size, 1)))


class _ChildFailed(Exception):
    """A child ended before the barrier the caller waits at."""


class _Serial:
    """The one worker of a call that starts no child."""

    def barrier(self) -> None:
        pass

    def check(self) -> None:
        pass


class _Caller(_Serial):
    """Worker 0: meets each child at a barrier through its two pipes."""

    def __init__(self, ups: list[int], downs: list[int]):
        self.ups, self.downs = ups, downs

    def barrier(self) -> None:
        for fd in self.ups:
            if not os.read(fd, 1):  # EOF: the child has exited
                raise _ChildFailed
        for fd in self.downs:
            os.write(fd, b".")


class _Child:
    """A forked worker: stops at the next barrier or check once its
    caller is gone."""

    def __init__(self, up: int, down: int, caller: int):
        self.up, self.down, self.caller = up, down, caller

    def barrier(self) -> None:
        os.write(self.up, b".")
        if not os.read(self.down, 1):  # EOF: the caller has died
            os._exit(1)

    def check(self) -> None:
        if os.getppid() != self.caller:
            os._exit(1)


def run_workers(work, workers: int, what: str) -> None:
    """Run ``work(k, link)`` for each worker k < ``workers``: k = 0 here,
    the rest in forked children, which write results only to shared
    mappings. Every worker must call ``link.barrier()`` equally often.

    A child that raises exits 1 with one line on a pipe, and this raises
    `NumericError` naming ``what``; if this share raises, or a child ends
    before a barrier, the children are killed. All are reaped first. A
    child whose caller has died exits 1 at its next barrier or check.
    """
    if workers == 1:
        return work(0, _Serial())
    caller = os.getpid()
    read_fd, write_fd = os.pipe()
    ups, downs, pids = [], [], []  # this process's ends of each child's two pipes
    try:
        for k in range(1, workers):
            up_read, up_write = os.pipe()
            down_read, down_write = os.pipe()
            ups.append(up_read)
            downs.append(down_write)
            try:
                if (pid := os.fork()) == 0:  # the child
                    try:
                        # without the other ends, a pipe reads EOF once its writer is gone
                        for fd in (read_fd, *ups, *downs):
                            os.close(fd)
                        work(k, _Child(up_write, down_read, caller))
                        os._exit(0)
                    except BaseException as exc:
                        os.write(write_fd, f"{type(exc).__name__}: {exc}\n".encode()[:512])
                    finally:
                        os._exit(1)
            finally:
                os.close(up_write)
                os.close(down_read)
            pids.append(pid)
        work(0, _Caller(ups, downs))
    except BaseException as exc:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if not isinstance(exc, _ChildFailed):
            raise
    finally:
        os.close(write_fd)
        for fd in ups + downs:
            os.close(fd)
        with open(read_fd, "rb") as pipe:  # EOF once every child has exited
            report = pipe.read().decode(errors="replace").strip()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise NumericError(f"an {what} worker process failed: {report or f'exit codes {codes}'}")
