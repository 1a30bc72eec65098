"""The host's speed, sampled while a workload runs, to put its times on one scale.

On a shared host the CPU's speed drifts by tens of percent over seconds to
minutes, so the plain time of a pass moves with the host as much as with
the program.  :class:`HostSpeed` samples that speed while the pass runs: a
timer interrupts the measured code every INTERVAL_S seconds of wall time
and runs a fixed piece of pure-Python work twice, the first time to refill
the caches after the interrupted code and the second time timed.  A time
measured under it is divided by the slowdown, the timed chunk's mean time
over REFERENCE_S, and so reads in seconds at the reference host's speed.

The timer fires per second of wall time, so slow stretches get more samples
than fast ones; the harmonic mean of the chunk times weights each stretch by
the work done in it instead, which is what a pass's time adds up.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.004
# the timed chunk's time on the host the bounds were set on (see README.md)
REFERENCE_S = 30e-6


def _chunk() -> int:
    return sum(i * i for i in range(600))


class HostSpeed:
    """A context manager that samples the host's speed until it exits."""

    def __init__(self):
        self.restart()

    def restart(self) -> None:
        """Start the interval that :meth:`scaled` ends."""
        self._spent, self._samples, self._inverse = 0.0, 0, 0.0

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _chunk()
        timed = perf_counter()
        _chunk()
        end = perf_counter()
        self._spent += end - start
        self._samples += 1
        self._inverse += 1 / (end - timed)

    def scaled(self, elapsed: float) -> float:
        """``elapsed`` seconds, measured since :meth:`restart`, in seconds
        at the reference host's speed, with the time spent sampling taken
        out."""
        if not self._samples:
            raise RuntimeError("no speed sample was taken; the interval measured is too short")
        slowdown = self._samples / self._inverse / REFERENCE_S
        return (elapsed - self._spent) / slowdown
