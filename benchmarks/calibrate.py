"""
Machine-speed reference for the calibrated timings.

On a shared host the speed of a core changes by up to 2x within seconds, as
other tenants come and go, and every timing of the program moves with it.
The benchmark therefore times a fixed reference kernel right before and
right after every timed call, and also during the call from a timer signal,
and rescales the call's time by how fast the kernel ran.  The kernel does
the same kind of work as the program, small dense numpy solves driven from
the interpreter, and shares no code with it.

Inside a call the kernel would also measure the call's own load on the
cores, which differs between versions of the program.  So a timer sample is
taken only while the program runs a single thread (a process pool keeps a
manager thread alive), and only from the second of two back-to-back kernel
runs, after the first has brought the kernel's data back into the caches.
"""

from __future__ import annotations

import signal
import threading
import time

import numpy as np

TICK_S = 0.1  # interval of the timer samples during a call

# Seconds per kernel run on the reference machine (2-vCPU Intel Xeon
# virtual machine, Python 3.11.7, numpy 2.4.6): a calibrated time is the
# time the call would have taken there.
NOMINAL_S = 1.2e-3

_A = np.arange(16.0).reshape(4, 4) * 0.01 - np.eye(4)
_I = np.eye(4)


def kernel() -> float:
    acc = 0.0
    for _ in range(16):
        K = np.kron(_A, _I) + np.kron(_I, _A)
        v = np.linalg.solve(K, np.ones(16))
        acc += sum(float(t) for t in v)
    return acc


def seconds_per_kernel(min_seconds: float) -> float:
    """Mean seconds per kernel run, over at least ``min_seconds`` and one run."""
    runs, start = 0, time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / runs


class Sampler:
    """Context manager that samples the kernel every TICK_S during a call.

    ``ticks`` holds the seconds of each warm sample and ``wall`` the wall time
    of all kernel runs from the timer, which is not the program's time.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.wall = 0.0

    def _tick(self, signum, frame) -> None:
        if threading.active_count() > 1:
            return
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ticks.append(end - warm)
        self.wall += end - start

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, before: float, after: float) -> float:
        """NOMINAL_S over the mean seconds per kernel run: every timer sample,
        and the runs right before and right after the call, count once each."""
        samples = self.ticks + [before, after]
        return NOMINAL_S * len(samples) / sum(samples)
