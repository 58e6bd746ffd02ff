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


class LogicalClock:
    """Hardware clock plus integrated rate correction.

    Each anchor holds the clock's mode from its time on and the factor of
    that mode: the clock advances at 1.0 times the hardware rate in
    ``OWN_RATE`` and at ``(1 + mu)`` times it in ``FAST``.  Mode changes
    append anchors; values before the last anchor are never rewritten, so
    past queries stay exact.
    """

    def __init__(self, hardware: HardwareClock, mu: float):
        if mu <= 0:
            raise ParameterError(f"mu must be positive, got {mu!r}")
        self.hardware = hardware
        self.mu = mu
        self._times = [0.0]
        self._values = [hardware.initial_value]
        self._hw_at = [hardware.initial_value]
        self._modes = [OWN_RATE]
        self._factors = [1.0]

    @property
    def mode_timeline(self) -> list[tuple[float, int]]:
        """(time, mode) of each anchor: (0.0, OWN_RATE), then every mode change."""
        return list(zip(self._times, self._modes))

    def _segment(self, t: float) -> int:
        return bisect_right(self._times, t) - 1

    def value(self, t: float) -> float:
        if t >= self._times[-1]:  # on the last anchor: no search
            i = -1
        elif t < 0:
            raise ParameterError(f"time must be non-negative, got {t!r}")
        else:
            i = self._segment(t)
        return self._values[i] + self._factors[i] * (self.hardware.value(t) - self._hw_at[i])

    def value_pair(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(logical, hardware) at each of the instants ``times``, in any order.

        The array form of :meth:`value`, with the same operations in the
        same order, so every entry equals the scalar result bit for bit.
        """
        t0, t1 = float(times.min()), float(times.max())
        if t0 < 0:
            raise ParameterError(f"time must be non-negative, got {t0!r}")
        # only the segments and anchors that [t0, t1] can select
        hw = self.hardware
        a, b = bisect_right(hw.starts, t0) - 1, bisect_right(hw.starts, t1)
        starts = np.asarray(hw.starts[a:b])
        j = np.searchsorted(starts, times, side="right") - 1
        h = np.asarray(hw._cum[a:b])[j] + np.asarray(hw.rates[a:b])[j] * (times - starts[j])
        a, b = self._segment(t0), bisect_right(self._times, t1)
        anchors = np.asarray(self._times[a:b])
        i = np.searchsorted(anchors, times, side="right") - 1
        values, hw_at, factors = (np.asarray(x[a:b])[i] for x in (self._values, self._hw_at, self._factors))
        return values + factors * (h - hw_at), h

    def set_mode(self, t: float, mode: int) -> None:
        """Switch correction mode at time t; past values stay unchanged."""
        if mode not in (OWN_RATE, FAST):
            raise ParameterError(f"unknown mode {mode!r}")
        if t < self._times[-1] - _EQ_TOL:
            raise InternalError(
                f"mode change at t={t!r} precedes last change at {self._times[-1]!r}"
            )
        if mode == self._modes[-1]:
            return
        value_now = self.value(t)
        hw_now = self.hardware.value(t)
        self._times.append(t)
        self._values.append(value_now)
        self._hw_at.append(hw_now)
        self._modes.append(mode)
        self._factors.append(1.0 + self.mu if mode == FAST else 1.0)

    def invert(self, target: float) -> float:
        """Real time at which the logical clock reads ``target``.

        Unique because the logical rate is strictly positive.
        """
        if target >= self._values[-1]:  # on the last anchor: no search
            i = -1
        elif target < self._values[0] - _EQ_TOL:
            raise ParameterError(
                f"target {target!r} below initial logical value {self._values[0]!r}"
            )
        else:
            i = max(bisect_right(self._values, target) - 1, 0)
        return self.hardware.inverse(self._hw_at[i] + (target - self._values[i]) / self._factors[i])


def _piece(c: LogicalClock, t: float) -> tuple:
    """(cum, rate, start, value, hw_at, factor, since): the hardware segment and
    logical anchor of ``c`` in force at t, found as :meth:`LogicalClock.value`
    finds them, and the later of their starts.  From ``since`` through t, ``c``
    reads ``value + factor * (cum + rate * (t - start) - hw_at)``, the scalar formula."""
    hw = c.hardware
    starts, anchors = hw.starts, c._times
    j = -1 if t >= starts[-1] else bisect_right(starts, t) - 1
    i = -1 if t >= anchors[-1] else bisect_right(anchors, t) - 1
    since = starts[j] if starts[j] > anchors[i] else anchors[i]
    return hw._cum[j], hw.rates[j], starts[j], c._values[i], c._hw_at[i], c._factors[i], since


def sample_clocks(clocks, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logical and hardware values, each (R, n), of every clock at each of
    the R instants ``times``: the grid read of :func:`read_clocks`."""
    return read_clocks(clocks, times[:, None], np.arange(len(clocks)))


def read_clocks(clocks, times: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logical and hardware values of clock ``cols[j]`` at the instants
    ``times[..., j]``, for a 1-D ``cols`` in ascending order and ``times``
    that broadcasts against it, in any order: :func:`sample_clocks` reads
    ``times[:, None]`` against ``arange(n)``, and the engine's reply checks
    read equal-length vectors.

    Every clock named in ``cols`` is read in one broadcast on its piece at
    the latest instant t1 (see ``_piece``), which holds from the earliest,
    t0, on if it began by t0.  Each clock whose piece began after t0 then
    reads its instants, one slice of the last axis, in one
    :meth:`LogicalClock.value_pair` call.  Both paths repeat the scalar
    formula of :meth:`LogicalClock.value`, so every entry equals it bit for bit.
    """
    L = np.empty(np.broadcast_shapes(times.shape, cols.shape))
    if not L.size:
        return L, L.copy()
    t0, t1 = float(times.min()), float(times.max())
    if t0 < 0:
        raise ParameterError(f"time must be non-negative, got {t0!r}")
    if (cols[1:] < cols[:-1]).any():
        raise ParameterError("clock indices must be in ascending order")
    counts = np.bincount(cols, minlength=len(clocks))
    named = np.flatnonzero(counts)
    pieces = chain.from_iterable([_piece(clocks[k], t1) for k in named.tolist()])
    table = np.empty((len(clocks), 7))  # only the named clocks' rows are read
    table[named] = np.fromiter(pieces, float, 7 * len(named)).reshape(-1, 7)
    cum, rate, start, value, hw_at, factor, _ = table[cols].T
    H = cum + rate * (times - start)
    L = value + factor * (H - hw_at)
    times, ends = np.broadcast_to(times, L.shape), np.cumsum(counts)
    for k in named[table[named, 6] > t0].tolist():
        at = slice(ends[k] - counts[k], ends[k])
        L[..., at], H[..., at] = clocks[k].value_pair(times[..., at])
    return L, H
