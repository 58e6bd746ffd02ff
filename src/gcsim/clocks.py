"""Hardware and logical clocks, as breakpoint arrays.

A hardware clock integrates a piecewise-constant rate held inside
``[1, theta]``: its validated rate schedule, one row of segments of a
:class:`ClockTable`.  A logical clock is the same integral with the
correction factor ``1 + mu`` applied over the intervals the node spends in
fast mode: its chain of anchors in the same table.  Piecewise-constant
rates keep every value and inverse query exact, which the trace oracles
rely on.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import InternalError, ParameterError

__all__ = [
    "OWN_RATE",
    "FAST",
    "ClockTable",
    "LogicalClock",
    "sample_clocks",
    "read_clocks",
]

OWN_RATE = 0
FAST = 1

_EQ_TOL = 1e-12


class ClockTable:
    """The anchors of a set of logical clocks, and the rate breakpoints of
    their hardware clocks, in flat arrays.

    Anchor ``a`` is one mode change of clock ``owner[a]``: from ``time[a]``
    on, the clock reads ``value[a] + factor[a] * (H - hw_at[a])`` for its
    hardware reading H, in mode ``mode[a]``.  ``prev[a]`` is the same clock's
    anchor before it (-1 for its first, at t = 0) and ``last[c]`` clock c's
    latest, so each clock's anchors are a chain in time order, and
    :meth:`step` is the only writer.  ``jump[a]`` is an earlier anchor of
    the chain, ``prev[a]`` or one further back, chosen by the skew-binary
    rule over ``depth`` (each anchor's place in its chain), so a walk back
    to any earlier time that jumps where the jump lands after that time,
    and else steps, takes a number of steps logarithmic in the anchors it
    passes.  ``time``, ``value``, ``hw_at`` and ``factor``
    are the rows of one array, ``law``, so a read gathers them in one step,
    and every anchor array has a memoryview twin (``time_mv`` and so on)
    through which :meth:`step`, the scalar clock law, reads and writes
    single entries as Python numbers.  ``tail[c]`` is clock c's last anchor
    as Python numbers, (time, value, hw_at, factor, mode), which
    :meth:`append` writes with the arrays, so a step on it reads one tuple.

    The columns of ``segments`` are the rate segments of every clock, clock
    by clock in time order, each (value at its start, rate, start), built
    from the validated schedules ``hardware``, (initial value, starts,
    rates) per clock, with each start value integrated from the one before
    it.  They are the only form of a hardware clock: clock c's are columns
    ``hw_first[c]`` to ``hw_first[c + 1]``, and ``initial[c]`` is its
    initial value.  ``hw_start`` is the last row.  ``hw_key`` keys the
    segments by (clock, start) as the complex number ``clock + start * 1j``,
    which numpy orders real part first; column c of ``last_segment`` is
    clock c's last segment.  The scalar reads, :meth:`hw_value` and
    :meth:`hw_inverse`, take their segments as Python floats: the last from
    ``hw_tail[c]``, the others from the lists ``segments`` was built of,
    where ``_cursor[c]`` is the segment of clock c's last read before its
    last segment.  A read tries that segment, then the next one, since reads
    mostly move forward, and bisects the clock's slice only if neither holds
    its argument.  These reads come below the last segment's start, so a
    test ``a[i] <= x < a[i + 1]`` reads ``a[i + 1]`` only inside the clock's
    slice, and ``end`` stops the step at the slice's end (a one-segment
    clock's cursor is its last segment).
    """

    _ANCHOR_ARRAYS = ("law", "mode", "prev", "jump", "depth", "owner")

    def __init__(self, hardware):
        n = len(hardware)
        self.initial = [iv for iv, _, _ in hardware]
        cum, rate, start, first = [], [], [], [0]
        for iv, s, r in hardware:
            cum.append(iv)
            for i in range(1, len(s)):
                cum.append(cum[-1] + r[i - 1] * (s[i] - s[i - 1]))
            rate += r
            start += s
            first.append(len(cum))
        self._cum, self._rate, self._start, self.hw_first = cum, rate, start, first
        self._cursor = first[:-1]
        self.segments = np.array([cum, rate, start], dtype=float)
        self.hw_start = self.segments[2]
        self.hw_key = np.repeat(np.arange(n), np.diff(first)) + self.hw_start * 1j
        self.last_segment = self.segments[:, np.array(first[1:]) - 1]
        self.hw_tail = self.last_segment.T.tolist()
        capacity = max(2 * n, 16)
        self.law = np.zeros((4, capacity))
        self.law[1:3, :n] = self.initial
        self.law[3, :n] = 1.0
        self.mode = np.full(capacity, OWN_RATE, dtype=np.int8)
        self.prev = np.full(capacity, -1, dtype=np.intp)
        self.jump = np.arange(capacity, dtype=np.intp)  # a first anchor's is itself
        self.depth = np.zeros(capacity, dtype=np.intp)
        self.owner = np.zeros(capacity, dtype=np.intp)
        self.owner[:n] = np.arange(n)
        self.last = np.arange(n, dtype=np.intp)
        self.tail = list(zip(*self.law[:, :n].tolist(), [OWN_RATE] * n))
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
        self.tail[c] = (t, value, hw_at, factor, mode)
        depth, jump = self.depth_mv, self.jump_mv
        j = jump[p]
        depth[a] = depth[p] + 1
        jump[a] = jump[j] if depth[p] - depth[j] == depth[j] - depth[jump[j]] else p
        self.size = a + 1

    def hw_value(self, c: int, t: float) -> float:
        """Clock c's hardware reading at t, as :func:`read_clocks` computes
        it: on its last segment, or else on the one bisecting its slice finds,
        which is the cursor's segment, or the next, whenever that holds t,
        since the starts do not decrease."""
        cum, rate, start = self.hw_tail[c]
        if t < start:
            if t < 0:
                raise ParameterError(f"time must be non-negative, got {t!r}")
            starts, i, end = self._start, self._cursor[c], self.hw_first[c + 1]
            if not starts[i] <= t < starts[i + 1]:
                i += 1
                if i == end or not starts[i] <= t < starts[i + 1]:
                    i = bisect_right(starts, t, self.hw_first[c], end) - 1
                self._cursor[c] = i
            cum, rate, start = self._cum[i], self._rate[i], starts[i]
        return cum + rate * (t - start)

    def hw_inverse(self, c: int, x: float) -> float:
        """Real time at which clock c's hardware reads x (exact, rates > 0),
        on the segment found as :meth:`hw_value` finds it, by the segments'
        start values, which do not decrease either."""
        cum, rate, start = self.hw_tail[c]
        if x < cum:
            cums, i, end = self._cum, self._cursor[c], self.hw_first[c + 1]
            if not cums[i] <= x < cums[i + 1]:
                i += 1
                if i == end or not cums[i] <= x < cums[i + 1]:
                    lo = self.hw_first[c]
                    i = max(bisect_right(cums, x, lo, end) - 1, lo)
                self._cursor[c] = i
            cum, rate, start = cums[i], self._rate[i], self._start[i]
        return start + (x - cum) / rate

    def step(self, c: int, t: float, mode: int | None = None, factor: float = 1.0,
             target: float | None = None) -> tuple[float, float | None]:
        """Clock c at t: switch it to ``mode``, whose rate factor is
        ``factor`` (None keeps its mode), then return its value at t and
        the real time at which it reads ``target`` (None without one).  The
        one scalar form of the clock law, which every scalar method of
        :class:`LogicalClock` and the engine's per-node steps call.

        A change appends an anchor at t, and a mode equal to the clock's
        keeps its last anchor.  With a mode, a time up to ``_EQ_TOL`` before
        the last anchor counts as its time, so each clock's anchors stay in
        time order; without one, a read before the last anchor walks back
        along the chain to the anchor in force.  The inverse starts at the
        last anchor and walks back while ``target`` lies below its value.
        On a clock's last anchor and last rate segment, the usual case,
        the step reads the anchor once, from ``tail``, and the hardware
        once, from ``hw_tail``, with the float expressions of
        :meth:`hw_value` and :meth:`hw_inverse`.  A new anchor at t reads
        ``x + factor * 0.0`` there, for its value x: x itself, since x is
        never -0.0 (it adds a product of at least +0.0 to a value)."""
        at, value, hw_at, f, m = tail = self.tail[c]
        if t < at:
            if mode is None:  # walk back to the last anchor at or before t
                if t < 0:
                    raise ParameterError(f"time must be non-negative, got {t!r}")
                time, prev, a = self.time_mv, self.prev_mv, self.last_mv[c]
                while t < time[a]:
                    a = prev[a]
                value, hw_at, f = self.value_mv[a], self.hw_at_mv[a], self.factor_mv[a]
            elif t < at - _EQ_TOL:
                raise InternalError(f"mode change at t={t!r} precedes last change at {at!r}")
            else:
                t = at
        cum, rate, start = self.hw_tail[c]
        h = cum + rate * (t - start) if t >= start else self.hw_value(c, t)
        x = value + f * (h - hw_at)
        if mode is not None and mode != m:
            self.append(c, t, x, h, factor, mode)
            value, hw_at, f = x, h, factor
        elif t < at:  # the read walked back: the inverse starts at the last anchor
            _, value, hw_at, f, _ = tail
        if target is None:
            return x, None
        if target < value:  # walk back to the last anchor at or below target
            values, prev, a = self.value_mv, self.prev_mv, self.last_mv[c]
            while target < values[a] and prev[a] >= 0:
                a = prev[a]
            if target < values[a] - _EQ_TOL:
                raise ParameterError(f"target {target!r} below initial logical value {values[a]!r}")
            value, hw_at, f = values[a], self.hw_at_mv[a], self.factor_mv[a]
        y = hw_at + (target - value) / f
        return x, start + (y - cum) / rate if y >= cum else self.hw_inverse(c, y)

    def mode_timelines(self) -> list[list[tuple[float, int]]]:
        """(time, mode) of each clock's anchors, in time order, per clock."""
        k = self.size
        order = np.argsort(self.owner[:k], kind="stable")  # table order is time order within a clock
        pairs = list(zip(self.time[order].tolist(), self.mode[order].tolist()))
        ends = np.cumsum(np.bincount(self.owner[:k], minlength=len(self.last))).tolist()
        return [pairs[a:b] for a, b in zip([0] + ends, ends)]


class LogicalClock:
    """Hardware clock plus integrated rate correction: clock ``index`` of
    the anchor table ``table``, with correction rate ``mu``.

    Each anchor holds the clock's mode from its time on and the factor of
    that mode: the clock advances at 1.0 times the hardware rate in
    ``OWN_RATE`` and at ``(1 + mu)`` times it in ``FAST``.  Mode changes
    append anchors; values before the last anchor are never rewritten, so
    past queries stay exact.  A read before the last anchor walks back
    along the clock's chain of anchors.  The scalar methods are views of
    :meth:`ClockTable.step`, which the engine calls itself, one step per
    node event; the clock holds no arithmetic of its own.
    """

    def __init__(self, table: ClockTable, index: int, mu: float):
        if mu <= 0:
            raise ParameterError(f"mu must be positive, got {mu!r}")
        self.table = table
        self.index = index
        self.mu = mu

    def value(self, t: float) -> float:
        return self.table.step(self.index, t)[0]

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
        self.table.step(self.index, t, mode, 1.0 + self.mu if mode == FAST else 1.0)

    def invert(self, target: float) -> float:
        """Real time at which the logical clock reads ``target``.

        Unique because the logical rate is strictly positive.  The step
        that computes it reads the clock at its last anchor's time, where
        the read takes no walk; the inverse does not depend on that time.
        """
        return self.table.step(self.index, self.table.tail[self.index][0], target=target)[1]


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
