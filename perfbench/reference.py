"""A fixed unit of interpreter work, timed next to the operations.

On a shared host the same pure-Python loop can run 1.5x to 2x slower
for tens of seconds at a time, and every wall-clock timing of eltlab
moves with it.  The benchmark therefore runs this unit of work between
operations, and during long ones, and reports end-to-end timings in
reference milliseconds: an operation's wall time divided by the time
of a reference unit measured around it (``Reference.scale``).  A slow phase of the
host stretches both alike, so the quotient keeps the cost of eltlab
and drops most of the host's.

The unit is plain Python of the same kind eltlab runs (rational
arithmetic on small slotted objects, tuples, dicts and calls) and uses
no eltlab code, so a change to the library cannot change it.  It takes
about one millisecond on a 2 GHz x86-64 vCPU with CPython 3.11.
"""

from __future__ import annotations

import signal
import time
from statistics import harmonic_mean, median
from fractions import Fraction
from typing import List

SIZE = 72  # elements per pass; sets the unit's length


class _Pair:
    __slots__ = ("t", "l")

    def __init__(self, t: Fraction, l: Fraction):
        self.t = t
        self.l = l

    def add(self, other: "_Pair") -> "_Pair":
        if self.t > other.t:
            return self
        if other.t > self.t:
            return other
        return _Pair(self.t, self.l + other.l)

    def mul(self, other: "_Pair") -> "_Pair":
        return _Pair(self.t + other.t, self.l * other.l)


_ITEMS = tuple(_Pair(Fraction(i % 7 - 3, 1 + i % 3), Fraction(i % 5 - 2 or 1)) for i in range(SIZE))


def unit() -> tuple:
    """One unit of work; returns its result so nothing is skipped."""
    seen = {}
    acc = _ITEMS[0]
    for i, x in enumerate(_ITEMS):
        y = _ITEMS[(i * 5 + 1) % SIZE]
        acc = acc.add(x.mul(y))
        key = (x.t, y.l)
        seen[key] = seen.get(key, 0) + 1
    return acc.t, acc.l, len(seen)


EXPECTED = unit()


class Reference:
    """Reference samples, taken on demand, when ``due`` (``every_s``
    seconds after the last one) and, inside a ``with`` block when
    ``during_ops`` is set, from a SIGALRM timer every ``every_s``
    seconds, so long operations are sampled while they run.  Time spent
    sampling from the timer accumulates in ``paused`` for the caller to
    take off its timings.

    A sample runs the unit ``REPEATS`` times and keeps the fastest, so a
    unit that starts with caches emptied by a long operation, or is
    interrupted, does not count.  ``samples`` holds their durations in
    seconds, in order."""

    REPEATS = 2
    WINDOW = 2  # samples on either side of a short operation

    def __init__(self, every_s: float = 0.05, during_ops: bool = False):
        self.every_s = every_s
        self.during_ops = during_ops
        self.samples: List[float] = []
        self.paused = 0.0
        self._last = float("-inf")
        self._busy = False
        self._old_handler = None

    def __enter__(self) -> "Reference":
        if self.during_ops:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.during_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        t0 = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - t0

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.every_s

    def sample(self) -> int:
        """Take one sample; returns its index in ``samples``."""
        self._busy = True
        try:
            best = float("inf")
            for _ in range(self.REPEATS):
                t0 = time.perf_counter()
                result = unit()
                self._last = time.perf_counter()
                if result != EXPECTED:
                    raise AssertionError("the reference unit gave a different result")
                best = min(best, self._last - t0)
            self.samples.append(best)
        finally:
            self._busy = False
        return len(self.samples) - 1

    def scale(self, first: int, last: int) -> float:
        """The unit's duration over an operation that began after
        sample ``first`` and ended after sample ``last``.

        With samples taken while it ran, it is the harmonic mean of
        those and of the samples on either side: timer samples come at
        even steps of wall time, and the harmonic mean of the unit's
        duration over time is the unit of work done at the average speed.
        Otherwise it is the median of the samples just before and after
        and ``WINDOW - 1`` more on either side."""
        if last > first:
            return harmonic_mean(self.samples[first:last + 2])
        return median(self.samples[max(0, first + 1 - self.WINDOW):first + 1 + self.WINDOW])
