"""Timed intervals in reference seconds, corrected for host speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
seconds, with no steal time to show for it: a neighbour's load slows every
instruction and memory access.  A wall-clock interval therefore measures
the host as much as the simulator.  Every timed interval is reported in
*reference seconds* instead: its wall time, less the time spent sampling,
times the host's mean speed over the interval.

Speed is sampled by timing ``chunk``, a fixed pure-Python loop of random
reads from an 8 MB buffer, against ``REFERENCE_CHUNK_S``.  Like the
simulator, whose heap of small objects is 100-250 MB, it is bound by
interpreter dispatch and cache misses together; on this benchmark's
workloads it tracks host speed more closely than a loop that stays in
cache (``perfbench/README.md``, "Host noise").  The chunk lives here, not in the simulator, so a change to the
simulator cannot move it.  While an interval runs, SIGALRM takes a sample
every ``PERIOD_S``; an interval that waits on other processes (the service
client) samples only at its two ends instead, so the sampling never
competes with the work it measures.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Optional

#: Host seconds ``chunk`` takes between simulation steps on a typical 2-core
#: x86_64 VM (Python 3.11).  It only sets the scale: on such a host,
#: reference seconds read close to wall-clock seconds.
REFERENCE_CHUNK_S = 0.006
#: Seconds between samples inside a periodically sampled interval.
PERIOD_S = 0.1
#: Random reads in one ``chunk``.
CHUNK_READS = 15000
#: The buffer ``chunk`` reads; it counts toward the process's RSS.
BUFFER_BYTES = 8 << 20

_buffer: Optional[bytearray] = None


def chunk() -> int:
    """A fixed amount of work: ``CHUNK_READS`` reads at seeded random offsets."""
    global _buffer
    if _buffer is None:
        _buffer = bytearray(b"\x01") * BUFFER_BYTES  # every page written, so resident
    buf, total, x = _buffer, 0, 12345
    for _ in range(CHUNK_READS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += buf[x % BUFFER_BYTES]
    return total


def sample() -> float:
    """One speed sample: ``REFERENCE_CHUNK_S`` / the chunk's host time."""
    start = time.perf_counter()
    chunk()
    return REFERENCE_CHUNK_S / (time.perf_counter() - start)


class HostSpeed:
    """Samples host speed from construction until ``stop()``.

    There is one sample at each end.  ``periodic`` adds one every
    ``PERIOD_S`` on SIGALRM (main thread only); ``spent`` is the time
    those took, which a caller's wall-clock interval includes.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.speeds = [sample()]
        self.spent = 0.0
        if periodic:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.speeds.append(sample())
        self.spent += time.perf_counter() - start

    def stop(self) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.speeds.append(sample())

    @property
    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference host."""
        return statistics.fmean(self.speeds)


class Interval:
    """One timed interval: ``with Interval() as t: ...`` then ``t.s``.

    ``s`` is in reference seconds; ``wall_s`` is the host time of the
    work alone, sampling excluded.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.s: Optional[float] = None
        self.wall_s: Optional[float] = None

    def __enter__(self) -> "Interval":
        self._speed = HostSpeed(self.periodic)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._start - self._speed.spent
        self._speed.stop()
        self.s = self.wall_s * self._speed.speed
