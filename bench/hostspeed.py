"""Host-speed probe: corrects operation times for a host whose speed swings.

On the shared 2-core virtual machine this benchmark was written on, the
same operation intermittently runs up to 1.7x slower, in stretches from
a fraction of a second to minutes, while co-tenants are busy. CPU time
slows down with it, so it cannot separate the two. The probe runs a small
fixed kernel from a SIGALRM handler every INTERVAL seconds, which samples
the host's speed evenly in time, also during an operation. An operation's
corrected time is its wall time minus the time the handler took, divided
by the host's slowness: the mean kernel time sampled during the operation
and the 3 intervals before it, over the kernel's fixed reference time.

The kernel runs inside the measured process, on the program's cores and
caches. So that its time follows the host rather than the program, each
sample runs the kernel twice and times only the second, cache-warm run,
and the garbage collector is off while it runs: a collection the
program's own allocations have made due then falls to the program, not to
the kernel. `check_correction.py` adds known costs of different kinds to
each workload and compares the slowdown in corrected and in wall time.
"""

from __future__ import annotations

import bisect
import csv
import gc
import signal
import statistics
import time

import numpy as np
from numpy.fft import irfft, rfft  # bound now, so span tracing never counts them

INTERVAL = 0.05
# The kernels' inputs and outputs are allocated once, here: a kernel that
# allocated from the C heap would shift the program's own heap layout at
# timer-dependent points, and with it the program's peak RSS.
_LINES = [f"{i},{i % 240},{(i * 0.37) % 1:.17g}" for i in range(300)]
_A = np.random.default_rng(0).normal(size=(2, 192, 32))
_W = np.random.default_rng(1).normal(size=(32, 32))
_F = np.empty((2, 193, 32), dtype=np.complex128)
_X = np.empty((2, 384, 32))
_Y = np.empty((2, 192, 32))
_BIG = np.random.default_rng(2).normal(size=(1 << 19,))  # 4 MiB, with _OUT beyond L2
_OUT = np.empty_like(_BIG)


def python_kernel() -> None:
    """Interpreter-bound work: CSV parsing and scalar arithmetic."""
    total = 0.0
    for row in csv.reader(_LINES):
        total += int(row[0]) + float(row[2])


def numeric_kernel() -> None:
    """numpy-bound work: real FFTs, a small matmul, an exp and a memory sweep."""
    rfft(_A, n=384, axis=-2, out=_F)
    irfft(_F, n=384, axis=-2, out=_X)
    np.matmul(_X[:, :192], _W, out=_Y)
    np.abs(_Y, out=_Y)
    np.negative(_Y, out=_Y)
    np.exp(_Y, out=_Y)
    np.multiply(_BIG, 0.5, out=_OUT)


# Kernel and a fixed reference time of the order of its run on the 2-core
# VM (Python 3.11, numpy 2.4); a workload uses the kernel closest to its
# mix. The constants only set the scale of corrected times.
KERNELS = {"python": (python_kernel, 3.0e-4), "numeric": (numeric_kernel, 8.0e-4)}


class SpeedProbe:
    """Context manager that samples host speed while it is entered."""

    def __init__(self, kind: str):
        self.kernel, self.reference_s = KERNELS[kind]
        self.stamps: list[float] = []  # end of each sample
        self.times: list[float] = []  # kernel duration of each sample
        self.handler_s: list[float] = []  # cumulative handler time, for subtraction
        self._total = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.kernel()  # warms the kernel's code and data in the caches
            t1 = time.perf_counter()
            self.kernel()
        finally:
            if collecting:
                gc.enable()
        t2 = time.perf_counter()
        self.stamps.append(t2)
        self.times.append(t2 - t1)
        self._total += time.perf_counter() - t0
        self.handler_s.append(self._total)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        previous = self._previous
        signal.signal(signal.SIGALRM, signal.SIG_DFL if previous is None else previous)

    def handler_time(self, start: float, end: float) -> float:
        """Time spent in the handler between two perf_counter readings."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        before = self.handler_s[lo - 1] if lo > 0 else 0.0
        upto = self.handler_s[hi - 1] if hi > 0 else 0.0
        return upto - before

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end]; 1 means the kernel's reference speed."""
        lo = bisect.bisect_left(self.stamps, start - 3 * INTERVAL)
        hi = bisect.bisect_right(self.stamps, end)
        window = self.times[lo:hi] or self.times[-3:]
        return statistics.fmean(window) / self.reference_s if window else 1.0

    def corrected(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the probe, at reference host speed."""
        return (end - start - self.handler_time(start, end)) / self.factor(start, end)
