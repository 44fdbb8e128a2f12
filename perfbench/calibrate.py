"""A fixed stretch of interpreter work that measures the host's current speed.

On a shared host the speed a single-threaded Python process gets swings by
up to 2x over seconds to minutes, as other tenants come and go.  The
benchmark runs this stretch of work ("a slice") at even steps of CPU time
while the library's queries run, and reports every time scaled to a host
that runs one slice in REF_SLICE_S seconds, so that the host's swings
cancel and the library's own speed remains.

A slice uses the standard library only: it must not get faster or slower
when the library changes.  Its mix follows the library's hot paths:
Fraction elimination (linear algebra over Q), products of dicts keyed by
exponent tuples (polynomials), modular inverses (F_p) and small objects.
"""

from __future__ import annotations

import random
import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from fractions import Fraction

# One slice's time, in seconds, on the reference host.  A fixed constant:
# on the 2-core x86 machine the benchmark was built on a slice took
# 0.95-1.9 ms, as the load from other tenants changed.
REF_SLICE_S = 1.5e-3

_P = 2**31 - 1
_rng = random.Random(20071128)
_MATRIX = [[_rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
_POLY = {(i, j, (i * j) % 3): (7 * i + j) % 5 - 2 for i in range(5) for j in range(5)}
del _rng


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return _Cell(self.a + other.a, self.b * other.b % _P)


def one_slice():
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    for c in range(6):
        p = next((r for r in range(c, 6) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, 6):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    prod = {}
    for (a, b, c), x in _POLY.items():
        for (d, e, f), y in _POLY.items():
            key = (a + d, b + e, c + f)
            v = prod.get(key, 0) + x * y
            if v:
                prod[key] = v
            else:
                prod.pop(key, None)
    s = 1
    for i in range(60):
        s = s * pow(i + 12345, _P - 2, _P) % _P
    acc = _Cell(0, 1)
    for i in range(200):
        acc = acc + _Cell(i, i + 2)
    return len(prod) + s + acc.a


class Speedometer:
    """Runs a slice every INTERVAL_S of the process's CPU time, from a
    SIGVTALRM handler, so the host's speed is sampled evenly through long
    and short calls alike, and scales measured times by it.

    `clock()` is perf_counter() less the time spent in slices, so a call
    timed with it excludes them.  `scale()` turns a call's measured time
    into seconds at reference speed, from the slices run within WINDOW_S of
    the call; `factor()` does the same for a whole stretch of work, from
    the slices run since a `mark()`.
    """

    INTERVAL_S = 0.015
    WINDOW_S = 0.15

    def __init__(self):
        self.spent_s = 0.0
        self.ends = array("d")  # perf_counter() at the end of each slice
        self.durations = array("d")
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:
            self.sample(1)

    def sample(self, slices):
        self._busy = True
        try:
            for _ in range(slices):
                t0 = time.perf_counter()
                one_slice()
                t1 = time.perf_counter()
                self.ends.append(t1)
                self.durations.append(t1 - t0)
                self.spent_s += t1 - t0
        finally:
            self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous or signal.SIG_DFL)

    def clock(self):
        while True:  # retry if a slice ran between the two reads
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:
                return now - spent

    def mark(self):
        return len(self.durations)

    def factor(self, mark=0):
        if len(self.durations) == mark:
            self.sample(5)
        taken = self.durations[mark:]
        return REF_SLICE_S * len(taken) / sum(taken)

    def scale(self, starts, stops, seconds):
        """Each seconds[i], measured between perf_counter() readings
        starts[i] and stops[i], at reference speed."""
        if not self.durations:
            self.sample(5)
        n = len(self.durations)  # a slice may land while this runs
        ends = self.ends[:n]
        total = [0.0, *accumulate(self.durations[:n])]
        out = array("d")
        for t0, t1, x in zip(starts, stops, seconds):
            i = bisect_left(ends, t0 - self.WINDOW_S)
            j = bisect_right(ends, t1 + self.WINDOW_S)
            if j == i:  # no slice near: widen to every slice
                i, j = 0, n
            out.append(x * REF_SLICE_S * (j - i) / (total[j] - total[i]))
        return out
