"""Forked worker processes for the filters that split an image by rows.

`plan` is the one rule for how many workers a call starts and how it
cuts a worker's rows into chunks. `worker_array` allocates all that
workers write. `run_workers` gives each worker an equal share of the
rows and runs it, one in the caller and the rest in forked children,
with a `barrier` to meet the others at and a `check` that ends a
child whose caller has died.
"""

from __future__ import annotations

import mmap
import os
import signal
import threading

import numpy as np

from .errors import NumericError, check_int

# Array passes of work per worker: forking and reaping one costs about
# as much, and meeting the others at a barrier 1/_BARRIERS_PER_FORK of it.
_MIN_PASSES = 16_000_000
_BARRIERS_PER_FORK = 128


def plan(threads, height: int, row_values: int, chunk_values: int, passes: int,
         barriers: int = 0) -> tuple[int, int]:
    """Chunk height and worker count for ``height`` rows of ``row_values``
    values that each take ``passes`` array passes, on workers that meet
    ``barriers`` times; starts nothing.

    ``threads`` = 0 asks for one worker per CPU. A call starts one
    worker per floor of work, `_MIN_PASSES` and 1/`_BARRIERS_PER_FORK`
    of that per barrier; at least one, never more than it asks for, the
    CPUs or the rows, and one without ``os.fork`` or beside other
    threads, whose locks a forked child would inherit held. The chunk
    height cuts the largest share of rows (see `run_workers`) into the
    fewest equal chunks of at most ``chunk_values`` values, or one row.
    """
    cpus = os.cpu_count() or 1
    cap = min(check_int(threads, "threads (0 = auto)") or cpus, cpus)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        cap = 1
    floor = _MIN_PASSES + _MIN_PASSES * barriers // _BARRIERS_PER_FORK
    workers = min(cap, height, max(1, height * row_values * passes // floor))
    share = -(-height // workers)
    chunks = -(-share // max(1, chunk_values // row_values))
    return -(-share // chunks), workers


def worker_array(size: int, workers: int = 1) -> np.ndarray:
    """``size`` float64 zeros for ``workers`` workers to write: for one,
    from a 64-byte boundary on, so that blocks every 8 values start
    cache lines (left to the allocator, the placement of scratch buffers
    moved the engine's time by 10-20%); for more, in an anonymous
    mapping that forked children share, from a page boundary on."""
    if workers > 1:
        return np.ndarray(size, buffer=mmap.mmap(-1, max(8 * size, 1)))
    raw = np.zeros(size + 7)
    return raw[-raw.ctypes.data // 8 % 8 :][:size]


class _ChildFailed(Exception):
    """A child ended before the barrier the caller waits at."""


class _Caller:
    """Worker 0: meets each child at a barrier through its two pipes
    (with no children, a barrier meets no one)."""

    def __init__(self, ups: list[int], downs: list[int]):
        self.ups, self.downs = ups, downs

    def barrier(self) -> None:
        for fd in self.ups:
            if not os.read(fd, 1):  # EOF: the child has exited
                raise _ChildFailed
        for fd in self.downs:
            os.write(fd, b".")

    def check(self) -> None:
        pass


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


def run_workers(work, height: int, workers: int, what: str) -> None:
    """Split ``height`` rows into equal shares, worker k < ``workers``
    taking rows first = height k // workers .. end - 1, with end =
    height (k + 1) // workers, and run ``work(first, end, link)`` for
    each: k = 0 here, the rest in forked children, which write results
    only to shared mappings.
    Every worker must call ``link.barrier()`` equally often.

    A child that raises exits 1 with one line on a pipe, and this raises
    `NumericError` naming ``what``; if this share raises, or a child ends
    before a barrier, the children are killed. All are reaped first. A
    child whose caller has died exits 1 at its next barrier or check.
    """
    ends = [height * k // workers for k in range(workers + 1)]
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
                        work(*ends[k : k + 2], _Child(up_write, down_read, caller))
                        os._exit(0)
                    except BaseException as exc:
                        os.write(write_fd, f"{type(exc).__name__}: {exc}\n".encode()[:512])
                    finally:
                        os._exit(1)
            finally:
                os.close(up_write)
                os.close(down_read)
            pids.append(pid)
        work(*ends[:2], _Caller(ups, downs))
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
