"""Timings scaled to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter over tens of seconds: a fixed task timed back to back ranged
from 0.27 s to 0.38 s within one minute.  A plain wall time therefore
measures the neighbours as much as latsep.  This module measures the
machine's speed alongside the work and scales the work's time to a fixed
reference speed.

While a timed call runs, an interval timer interrupts it every
``PROBE_EVERY_S`` seconds and the signal handler, in the same thread,
times ``probe_work``: a fixed piece of pure-Python exact arithmetic that
uses no latsep code, so that no change to latsep changes it.  The call's
time is split into the segments between probes; each segment is scaled
by ``REF_PROBE_S`` over the median probe time near it, and the probes'
own time is left out.  Machine slowdowns hit the probes and the work
alike and cancel; a change to latsep moves the work and not the probes.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.2
# probe_work's time at the reference speed, close to its median on the
# 2-core CPython 3.11.7 machine the benchmark was written on (4.8 ms), so
# that scaled times there read near wall times.
REF_PROBE_S = 0.005
PROBE_WINDOW = 3  # probes on each side of a segment that set its speed


def probe_work():
    """Fixed pure-Python work: Fraction arithmetic, tuples and a dict."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        table[(i, i % 7)] = acc.numerator % 97
    return acc, len(table)


def probe() -> float:
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


for _ in range(20):  # warm the probe up before any timing
    probe()


class Timing:
    """One timed call: its raw work time, the probes taken while it ran,
    and the work time scaled to the reference speed."""

    def __init__(self, segments: list[float], probes: list[float]):
        self.segments = segments  # work time between consecutive probes
        self.probes = probes  # len(segments) + 1 probe times
        self.raw_s = sum(segments)
        self.scaled_s = sum(
            seg * REF_PROBE_S / self.speed_near(j) for j, seg in enumerate(segments)
        )

    def speed_near(self, j: int) -> float:
        """Median probe time around segment j (between probes j and j+1)."""
        lo = max(0, j + 1 - PROBE_WINDOW)
        return statistics.median(self.probes[lo : j + 1 + PROBE_WINDOW])


_marks = None  # (start, end) of each probe taken inside the current call


def _on_alarm(signum, frame):
    if _marks is not None:
        start = time.perf_counter()
        probe_work()
        _marks.append((start, time.perf_counter()))


# Installed once and never restored, so that a late alarm always finds it.
signal.signal(signal.SIGALRM, _on_alarm)


def timed(fn, *args):
    """Run fn(*args) under the probes; returns (Timing, result)."""
    global _marks
    probes = [probe()]
    marks = _marks = []
    begin = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _marks = None
        finish = time.perf_counter()
    probes += [end - start for start, end in marks]
    probes.append(probe())
    segments = []
    for start, end in marks:
        segments.append(start - begin)
        begin = end
    segments.append(finish - begin)
    return Timing(segments, probes), result
