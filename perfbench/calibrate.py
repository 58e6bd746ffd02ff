"""Machine-speed probes for a shared host.

On a host whose cores are shared with other tenants, the speed of the same
code shifts by 20-60% for seconds to minutes at a time, and CPU time shifts
with wall time, so neither repeating nor switching clocks makes a timing
steady.  A worker therefore runs a short fixed probe from a 10 Hz interval
timer while it works, on the same core, interleaved with the operation.
Interpreted code and array code slow down by different amounts, so there
are two probes: a pure-Python loop shaped like the simulator's hot paths
(float arithmetic, ``bisect``, dict updates, heap pushes, ``repr`` of
floats) and an array pass shaped like the trace oracles (element-wise
numpy over arrays larger than the caches).  The timer runs the array probe
while the worker is inside an array-bound span and the Python probe
otherwise.  A time measured over an interval is reported in reference
seconds: host seconds, minus the probes' own time, times the mean over the
interval's probes of reference time / probe time.  The probes use nothing
from gcsim, so a change to the program cannot move them.
"""
from __future__ import annotations

import heapq
import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Typical probe times on an unloaded 2.1 GHz host core (Python 3.11, numpy 2).
PYTHON = "python"
ARRAY = "array"
REFERENCE_S = {PYTHON: 0.0025, ARRAY: 0.0045}
PROBE_INTERVAL_S = 0.1
PYTHON_ITERATIONS = 2000
ARRAY_ELEMENTS = 1 << 19  # three 4 MiB arrays, allocated once per worker

_STARTS = [i * 0.37 for i in range(64)]


def loop(n: int) -> float:
    acc = 0.0
    table: dict[int, float] = {}
    heap: list = []
    parts = []
    for i in range(n):
        t = (i * 0.618033) % 23.0
        j = bisect_right(_STARTS, t) - 1
        table[j] = table.get(j, 0.0) + t * 1.0001
        acc += table[j] - t
        heapq.heappush(heap, (t, i))
        if len(heap) > 256:
            heapq.heappop(heap)
        if i % 8 == 0:
            parts.append(repr(math.sqrt(t + 1.0)))
        if len(parts) >= 64:
            acc += len(",".join(parts))
            parts.clear()
    return acc


class SpeedProbe:
    """Probe start times and durations per kind, plus ``paused[0]``: the
    total time spent probing.  Timers that must not count probe time
    subtract the growth of ``paused[0]`` over their interval.

    ``in_array_span`` tells the timer which probe fits the code it
    interrupts.
    """

    def __init__(self, in_array_span):
        self.in_array_span = in_array_span
        self.starts = {PYTHON: [], ARRAY: []}
        self.durations = {PYTHON: [], ARRAY: []}
        self.paused = [0.0]
        self._arrays = [np.ones(ARRAY_ELEMENTS), np.ones(ARRAY_ELEMENTS), np.empty(ARRAY_ELEMENTS)]

    def probe(self, kind: str = PYTHON) -> None:
        t0 = time.perf_counter()
        if kind == PYTHON:
            loop(PYTHON_ITERATIONS)
        else:
            a, b, c = self._arrays
            for _ in range(4):
                np.subtract(a, b, out=c)
                np.maximum(c, a, out=c)
        dt = time.perf_counter() - t0
        self.starts[kind].append(t0)
        self.durations[kind].append(dt)
        self.paused[0] += dt

    def _on_timer(self, *_signal_args) -> None:
        self.probe(ARRAY if self.in_array_span() else PYTHON)

    def start(self) -> None:
        self.probe(PYTHON)
        self.probe(ARRAY)
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, kind: str, a: float, b: float) -> tuple[int, int]:
        starts = self.starts[kind]
        return bisect_left(starts, a), bisect_left(starts, b)

    def factor(self, kind: str, a: float, b: float) -> float:
        """Mean reference/measured speed of the ``kind`` probes that started
        in [a, b); without any, of the last one before and the first after."""
        lo, hi = self._window(kind, a, b)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.durations[kind]))
        ref = REFERENCE_S[kind]
        return statistics.fmean(ref / d for d in self.durations[kind][lo:hi])

    def probe_time(self, kind: str, a: float, b: float) -> float:
        lo, hi = self._window(kind, a, b)
        return sum(self.durations[kind][lo:hi])

    def reference_time(self, a: float, b: float, array_spans=()) -> float:
        """Host time of [a, b) without probe time, in reference seconds.

        ``array_spans`` are (start, end) intervals of array-bound code; the
        spans inside [a, b) are scaled by the array probes within them, the
        rest of the interval by the Python probes.
        """
        inner = [(x, y) for x, y in array_spans if a <= x and y <= b]
        total = 0.0
        for x, y in inner:
            total += (y - x - self.probe_time(ARRAY, x, y)) * self.factor(ARRAY, x, y)
        rest = b - a - sum(y - x for x, y in inner) - self.probe_time(PYTHON, a, b)
        return total + rest * self.factor(PYTHON, a, b)
