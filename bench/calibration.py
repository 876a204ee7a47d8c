"""Fixed interpreter work that measures the host's speed.

The benchmark runs on shared machines whose speed drifts by a third
for seconds or minutes at a time: the same CPU loop takes 2.1 ms in one
second and 3.4 ms a few seconds later, in process CPU time as much as
in wall time.  The benchmark times calibration units right before and
right after each op, and every ``SAMPLE_S`` during it, and scales the
op's time to the reference speed (``REF_UNIT_NS`` per unit) by the
speed those units saw.  That removes the drift from the benchmark's
timings while a change to the program still moves them in full, since
the units run only this file's code.

A unit mixes the kinds of work the library does: small-int loops,
allocation of small containers, big-int bit operations (packed GF(2)
rows), method calls and set algebra on edge tuples.  The collector is off while units run, so the
program's heap cannot change them.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter_ns

REF_UNIT_NS = 500_000
"""Unit time at the reference speed: about a typical unit on a 2-vCPU
x86-64 host with CPython 3.11."""

ROUND_UNITS = 30
"""Units in a round, the calibration timed before and after an op."""

SAMPLE_S = 0.05
"""Interval of the units run during an op, one unit each."""

_BIG = (1 << 1024) - 12345


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def plus(self, x: int) -> int:
        return self.a + x


def _unit() -> None:
    x = 0
    for i in range(600):
        x += i * i % 7
    d = {}
    for i in range(300):
        d[i] = (i, [i], frozenset((i, i + 1)))
    sorted(d, key=lambda k: -k)
    acc = 0
    for i in range(300):
        acc ^= _BIG >> (i & 511)
        acc &= _BIG | i
    for i in range(300):
        acc += _Pair(i, i).plus(i)
    edges = frozenset((i, j) for i in range(16) for j in range(i, 16))
    toggle = {(i, j) for i in range(4, 20) for j in range(i, 20)}
    for _ in range(4):
        edges = edges ^ toggle


def units_ns(count: int) -> int:
    """Nanoseconds of count calibration units."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        for _ in range(count):
            _unit()
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def round_ns() -> int:
    """Nanoseconds of one round of ROUND_UNITS units."""
    return units_ns(ROUND_UNITS)


def scale(units: int, ns: int) -> float:
    """Factor from wall time to reference time, given units and their ns."""
    return units * REF_UNIT_NS / ns


class Sampler:
    """Runs one unit every SAMPLE_S on SIGALRM while entered.

    ``units`` and ``ns`` add up the units run; ``paused_ns`` is the time
    the handler took, to take out of the interrupted op's wall time.
    """

    def __init__(self) -> None:
        self.units = self.ns = self.paused_ns = 0

    def _tick(self, signum, frame) -> None:
        start = perf_counter_ns()
        self.ns += units_ns(1)
        self.units += 1
        self.paused_ns += perf_counter_ns() - start

    def __enter__(self) -> Sampler:
        self.units = self.ns = self.paused_ns = 0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
