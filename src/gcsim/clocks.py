"""Hardware and logical clocks.

Hardware clocks integrate a piecewise-constant rate held inside
``[1, theta]``; a logical clock is the same integral with the correction
factor ``1 + mu`` applied over the intervals the node spends in fast
mode.  Piecewise-constant rates keep every value and inverse query exact,
which the trace oracles rely on.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import chain

import numpy as np

from .errors import InternalError, ParameterError

__all__ = [
    "OWN_RATE",
    "FAST",
    "HardwareClock",
    "ClockTable",
    "LogicalClock",
    "sample_clocks",
    "read_clocks",
]

OWN_RATE = 0
FAST = 1

_EQ_TOL = 1e-12


class HardwareClock:
    """Free-running local time source; strictly increasing in real time.

    Its rate is piecewise constant: ``rates[i]`` holds on
    ``[starts[i], starts[i+1])``.
    """

    def __init__(self, initial_value: float, starts, rates):
        if initial_value < 0:
            raise ParameterError("initial clock value must be non-negative")
        if not starts or starts[0] != 0.0:
            raise ParameterError("rate schedule must start at t=0")
        if len(starts) != len(rates):
            raise ParameterError("starts and rates must have equal length")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ParameterError("segment start times must be strictly increasing")
        self.initial_value = initial_value
        self.starts = tuple(starts)
        self.rates = tuple(rates)
        cum = [initial_value]
        for i in range(1, len(starts)):
            cum.append(cum[-1] + rates[i - 1] * (starts[i] - starts[i - 1]))
        self._cum = tuple(cum)

    def value(self, t: float) -> float:
        if t >= self.starts[-1]:  # on the last segment: no search
            i = -1
        elif t < 0:
            raise ParameterError(f"time must be non-negative, got {t!r}")
        else:
            i = bisect_right(self.starts, t) - 1
        return self._cum[i] + self.rates[i] * (t - self.starts[i])

    def inverse(self, target: float) -> float:
        """Real time at which the clock reads ``target`` (exact, rates > 0)."""
        if target >= self._cum[-1]:  # on the last segment: no search
            i = -1
        elif target < self.initial_value - _EQ_TOL:
            raise ParameterError(
                f"target {target!r} below initial clock value {self.initial_value!r}"
            )
        else:
            i = max(bisect_right(self._cum, target) - 1, 0)
        return self.starts[i] + (target - self._cum[i]) / self.rates[i]


class ClockTable:
    """The anchors of a set of logical clocks, and the rate breakpoints of
    their hardware clocks, in flat arrays.

    Anchor ``a`` is one mode change of clock ``owner[a]``: from ``time[a]``
    on, the clock reads ``value[a] + factor[a] * (H - hw_at[a])`` for its
    hardware reading H, in mode ``mode[a]``.  ``prev[a]`` is the same clock's
    anchor before it (-1 for its first, at t = 0) and ``last[c]`` clock c's
    latest, so each clock's anchors are a chain in time order, and
    :meth:`LogicalClock.set_mode` is the only writer.  ``jump[a]`` is an
    earlier anchor of the chain, ``prev[a]`` or one further back, chosen by
    the skew-binary rule over ``depth`` (each anchor's place in its chain),
    so a walk back to any earlier time that jumps where the jump lands
    after that time, and else steps, takes a number of steps logarithmic in
    the anchors it passes.  ``time``, ``value``, ``hw_at`` and ``factor``
    are the rows of one array, ``law``, so a read gathers them in one step,
    and every anchor array has a memoryview twin (``time_mv`` and so on)
    through which the scalar methods of :class:`LogicalClock` read and
    write single entries as Python numbers.

    The columns of ``segments`` are the rate segments of every clock, clock
    by clock in time order, each (value at its start, rate, start), the
    hardware clock's ``_cum``, ``rates`` and ``starts``; ``hw_start`` is its
    last row.  ``hw_key`` keys them by (clock, start) as the complex number
    ``clock + start * 1j``, which numpy orders real part first, and column
    c of ``last_segment`` is clock c's last segment.
    """

    _ANCHOR_ARRAYS = ("law", "mode", "prev", "jump", "depth", "owner")

    def __init__(self, hardware):
        n = len(hardware)
        counts = np.array([len(h.starts) for h in hardware], dtype=np.intp)
        flat = lambda attr: np.fromiter(chain.from_iterable(getattr(h, attr) for h in hardware), float, counts.sum())
        self.segments = np.stack([flat("_cum"), flat("rates"), flat("starts")])
        self.hw_start = self.segments[2]
        self.hw_key = np.empty(len(self.hw_start), complex)
        self.hw_key.real = np.repeat(np.arange(n), counts)
        self.hw_key.imag = self.hw_start
        self.last_segment = self.segments[:, np.cumsum(counts) - 1]
        capacity = max(2 * n, 16)
        self.law = np.zeros((4, capacity))
        self.law[1:3, :n] = [h.initial_value for h in hardware]
        self.law[3, :n] = 1.0
        self.mode = np.full(capacity, OWN_RATE, dtype=np.int8)
        self.prev = np.full(capacity, -1, dtype=np.intp)
        self.jump = np.arange(capacity, dtype=np.intp)  # a first anchor's is itself
        self.depth = np.zeros(capacity, dtype=np.intp)
        self.owner = np.zeros(capacity, dtype=np.intp)
        self.owner[:n] = np.arange(n)
        self.last = np.arange(n, dtype=np.intp)
        self.size = n
        self.last_mv = memoryview(self.last)
        self._views()

    def _views(self) -> None:
        self.time, self.value, self.hw_at, self.factor = self.law
        for name in ("time", "value", "hw_at", "factor", "mode", "prev", "jump", "depth", "owner"):
            setattr(self, name + "_mv", memoryview(getattr(self, name)))

    def append(self, c: int, t: float, value: float, hw_at: float, factor: float, mode: int) -> None:
        """Make (t, value, hw_at, factor, mode) clock c's latest anchor."""
        a = self.size
        if a == len(self.mode):  # full: double every anchor array
            for name in self._ANCHOR_ARRAYS:
                old = getattr(self, name)
                grown = np.empty(old.shape[:-1] + (2 * a,), dtype=old.dtype)
                grown[..., :a] = old
                setattr(self, name, grown)
            self._views()
        self.time_mv[a], self.value_mv[a], self.hw_at_mv[a] = t, value, hw_at
        self.factor_mv[a], self.mode_mv[a] = factor, mode
        p = self.last_mv[c]
        self.prev_mv[a], self.owner_mv[a], self.last_mv[c] = p, c, a
        depth, jump = self.depth_mv, self.jump_mv
        j = jump[p]
        depth[a] = depth[p] + 1
        jump[a] = jump[j] if depth[p] - depth[j] == depth[j] - depth[jump[j]] else p
        self.size = a + 1

    def mode_timelines(self) -> list[list[tuple[float, int]]]:
        """(time, mode) of each clock's anchors, in time order, per clock."""
        k = self.size
        order = np.argsort(self.owner[:k], kind="stable")  # table order is time order within a clock
        pairs = list(zip(self.time[order].tolist(), self.mode[order].tolist()))
        ends = np.cumsum(np.bincount(self.owner[:k], minlength=len(self.last))).tolist()
        return [pairs[a:b] for a, b in zip([0] + ends, ends)]


class LogicalClock:
    """Hardware clock plus integrated rate correction: clock ``index`` of
    an anchor table (a table of its own by default).

    Each anchor holds the clock's mode from its time on and the factor of
    that mode: the clock advances at 1.0 times the hardware rate in
    ``OWN_RATE`` and at ``(1 + mu)`` times it in ``FAST``.  Mode changes
    append anchors; values before the last anchor are never rewritten, so
    past queries stay exact.  A read before the last anchor walks back
    along the clock's chain of anchors.
    """

    def __init__(self, hardware: HardwareClock, mu: float, table: ClockTable | None = None, index: int = 0):
        if mu <= 0:
            raise ParameterError(f"mu must be positive, got {mu!r}")
        self.hardware = hardware
        self.mu = mu
        self.table = ClockTable([hardware]) if table is None else table
        self.index = index

    @property
    def mode_timeline(self) -> list[tuple[float, int]]:
        """(time, mode) of each anchor: (0.0, OWN_RATE), then every mode change."""
        return self.table.mode_timelines()[self.index]

    def value(self, t: float) -> float:
        tb = self.table
        time = tb.time_mv
        a = tb.last_mv[self.index]
        if t < time[a]:  # walk back to the last anchor at or before t
            if t < 0:
                raise ParameterError(f"time must be non-negative, got {t!r}")
            prev = tb.prev_mv
            while t < time[a]:
                a = prev[a]
        return tb.value_mv[a] + tb.factor_mv[a] * (self.hardware.value(t) - tb.hw_at_mv[a])

    def value_pair(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(logical, hardware) at each of the instants ``times``, a vector in
        any order:
        the :func:`read_clocks` read of this clock, which equals :meth:`value`
        bit for bit."""
        L, H, _ = read_clocks(self.table, times, np.full(len(times), self.index))
        return L, H

    def set_mode(self, t: float, mode: int) -> None:
        """Switch correction mode at time t; past values stay unchanged.  A
        time up to ``_EQ_TOL`` before the last change counts as the time of
        that change, so each clock's anchors stay in time order."""
        if mode not in (OWN_RATE, FAST):
            raise ParameterError(f"unknown mode {mode!r}")
        tb = self.table
        a = tb.last_mv[self.index]
        last = tb.time_mv[a]
        if t < last:
            if t < last - _EQ_TOL:
                raise InternalError(f"mode change at t={t!r} precedes last change at {last!r}")
            t = last
        if mode == tb.mode_mv[a]:
            return
        factor = 1.0 + self.mu if mode == FAST else 1.0
        tb.append(self.index, t, self.value(t), self.hardware.value(t), factor, mode)

    def invert(self, target: float) -> float:
        """Real time at which the logical clock reads ``target``.

        Unique because the logical rate is strictly positive.
        """
        tb = self.table
        values = tb.value_mv
        a = tb.last_mv[self.index]
        if target < values[a]:  # walk back to the last anchor at or below target
            prev = tb.prev_mv
            while target < values[a] and prev[a] >= 0:
                a = prev[a]
            if target < values[a] - _EQ_TOL:
                raise ParameterError(f"target {target!r} below initial logical value {values[a]!r}")
        return self.hardware.inverse(tb.hw_at_mv[a] + (target - values[a]) / tb.factor_mv[a])


def sample_clocks(table: ClockTable, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logical values, hardware values and anchors in force, each (R, n),
    of every clock of ``table`` at each of the R instants ``times``: the
    grid read of :func:`read_clocks`."""
    n = len(table.last)
    L, H, a = read_clocks(table, np.repeat(times, n), np.tile(np.arange(n), len(times)))
    return L.reshape(-1, n), H.reshape(-1, n), a.reshape(-1, n)


def read_clocks(table: ClockTable, times: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logical value, hardware value and anchor in force of clock ``cols[j]``
    of ``table`` at the instant ``times[j]``, for vectors ``times`` and
    ``cols`` of one length, in any order.

    Each read starts at its clock's last anchor and last rate segment.
    The reads before that anchor walk back along its clock's chain, all in
    one step each, jumping where ``jump`` lands after the read's instant;
    the reads before that segment find theirs with one ``searchsorted``
    over the (clock, start) keys.  The values repeat the scalar formula of
    :meth:`LogicalClock.value`, so every entry equals it bit for bit.
    """
    a = table.last[cols]
    law = table.law.take(a, axis=1)
    back = (law[0] > times).nonzero()[0]
    if back.size:  # a negative instant precedes every clock's first anchor, at 0
        t = times[back]
        if t.min() < 0:
            raise ParameterError(f"time must be non-negative, got {float(t.min())!r}")
        time, steps = table.time, a[back]
        while back.size:
            jumps = table.jump[steps]
            a[back] = steps = np.where(time[jumps] > t, jumps, table.prev[steps])
            on = time[steps] > t
            back, t, steps = back[on], t[on], steps[on]
        law = table.law.take(a, axis=1)
    cum, rate, start = segment = table.last_segment.take(cols, axis=1)
    before = (start > times).nonzero()[0]
    if before.size:
        key = cols[before] + times[before] * 1j
        segment[:, before] = table.segments.take(np.searchsorted(table.hw_key, key, side="right") - 1, axis=1)
    _, value, hw_at, factor = law
    H = cum + rate * (times - start)
    L = value + factor * (H - hw_at)
    return L, H, a
