"""Correction of timings for the speed of a shared machine.

On a host shared with other tenants the speed of one core swings by a
quarter or more within a second and by half between minutes; CPU time
moves with wall time, so the loss is in speed, not in scheduling.  Such
swings are larger than any bound a regression gate could use, so every
time the benchmark reports is corrected for them.  A fixed calibration
kernel of the same kind of work as the program (300-bit binary floating
point written with Python integers, as mpmath's pure-Python backend
computes, and integer bytecode) is timed before and after each
operation and every INTERVAL_S during it, from a timer signal on the
same thread.  An operation's corrected time is its wall time, less the
time spent in the kernel, times the mean over those samples of
REFERENCE_S / sample: the time the operation would take at the speed
where the kernel takes REFERENCE_S.  On the reference machine (Intel
Xeon, 2 vCPUs, CPython 3.11.7) the kernel takes about 0.55 ms in a fast
phase and 0.9 ms in a typical one.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_S = 0.75e-3


_PREC = 300
_THIRD = ((1 << 600) // 3, -600)


def _round(man: int, exp: int) -> tuple[int, int]:
    excess = man.bit_length() - _PREC
    if excess > 0:
        return man >> excess, exp + excess
    return man, exp


def kernel() -> None:
    """About a millisecond of work at reference speed, of the kind the
    program does: binary floating point at 300 bits written with Python
    integers the way mpmath's pure-Python backend does it, and integer
    bytecode.  It imports nothing, so it can run before the program is
    imported."""
    man, exp = 0, 0
    for i in range(440):
        man, exp = _round(man * _THIRD[0], exp + _THIRD[1])
        if exp > 0:             # never taken; keeps the shift below valid
            man, exp = man << exp, 0
        man, exp = _round(man + (i << -exp), exp)
    s = 0
    for i in range(4400):
        s += i * i % 7


def sample() -> float:
    """Seconds the kernel takes now, with the garbage collector held off so
    that a collection of the program's heap is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Reference speed over the machine's speed, from kernel samples."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class SpeedProbe:
    """Samples the kernel around and during timed calls on this thread."""

    def __init__(self):
        self.samples: list[float] = []
        self.kernel_s = 0.0          # wall time spent in the kernel
        self._sampling = False

    def take(self) -> None:
        """Time the kernel once and keep the sample."""
        if self._sampling:
            return
        self._sampling = True
        try:
            s = sample()
            self.samples.append(s)
            self.kernel_s += s
        finally:
            self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        self.take()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self):
        """Mark the start of a timed call: one sample, then the clock."""
        self.take()
        return len(self.samples) - 1, self.kernel_s, perf_counter()

    def stop(self, mark) -> tuple[float, float]:
        """(seconds, corrected seconds) since `mark`, without the kernel."""
        end = perf_counter()
        first, kernel0, start = mark
        own = end - start - (self.kernel_s - kernel0)
        self.take()
        return own, own * factor(self.samples[first:])
