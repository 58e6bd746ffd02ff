"""Hardware and logical clocks.

Hardware clocks integrate a piecewise-constant rate held inside
``[1, theta]``; a logical clock is the same integral with a correction
multiplier (or additive boost) applied over the intervals the node spends
in fast mode.  Piecewise-constant rates keep every value and inverse query
exact, which the trace oracles rely on.
"""
from __future__ import annotations

from bisect import bisect_right

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
        if t < 0:
            raise ParameterError(f"time must be non-negative, got {t!r}")
        i = bisect_right(self.starts, t) - 1
        return self._cum[i] + self.rates[i] * (t - self.starts[i])

    def inverse(self, target: float) -> float:
        """Real time at which the clock reads ``target`` (exact, rates > 0)."""
        if target < self.initial_value - _EQ_TOL:
            raise ParameterError(
                f"target {target!r} below initial clock value {self.initial_value!r}"
            )
        i = bisect_right(self._cum, target) - 1
        i = max(i, 0)
        return self.starts[i] + (target - self._cum[i]) / self.rates[i]


class LogicalClock:
    """Hardware clock plus integrated rate correction.

    In fast mode the clock advances at ``(1 + mu)`` times the hardware rate
    (multiplicative semantics) or at the hardware rate plus ``mu``
    (additive).  Mode changes append anchors; values before the last anchor
    are never rewritten, so past queries stay exact.
    """

    def __init__(self, hardware: HardwareClock, mu: float, semantics: str = "multiplicative"):
        if mu <= 0:
            raise ParameterError(f"mu must be positive, got {mu!r}")
        if semantics not in ("multiplicative", "additive"):
            raise ParameterError(f"unknown correction semantics {semantics!r}")
        self.hardware = hardware
        self.mu = mu
        self.semantics = semantics
        self._times = [0.0]
        self._values = [hardware.initial_value]
        self._hw_at = [hardware.initial_value]
        self._modes = [OWN_RATE]

    @property
    def mode_timeline(self) -> list[tuple[float, int]]:
        """(time, mode) of each anchor: (0.0, OWN_RATE), then every mode change."""
        return list(zip(self._times, self._modes))

    def _segment(self, t: float) -> int:
        return bisect_right(self._times, t) - 1

    def value(self, t: float) -> float:
        if t < 0:
            raise ParameterError(f"time must be non-negative, got {t!r}")
        i = self._segment(t)
        dh = self.hardware.value(t) - self._hw_at[i]
        if self._modes[i] == OWN_RATE:
            return self._values[i] + dh
        if self.semantics == "multiplicative":
            return self._values[i] + (1.0 + self.mu) * dh
        return self._values[i] + dh + self.mu * (t - self._times[i])

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
        values = np.asarray(self._values[a:b])[i]
        dh = h - np.asarray(self._hw_at[a:b])[i]
        fast = np.asarray(self._modes[a:b])[i] == FAST
        if self.semantics == "multiplicative":
            boosted = values + (1.0 + self.mu) * dh
        else:
            boosted = values + dh + self.mu * (times - anchors[i])
        return np.where(fast, boosted, values + dh), h

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

    def invert(self, target: float) -> float:
        """Real time at which the logical clock reads ``target``.

        Unique because the logical rate is strictly positive.
        """
        if target < self._values[0] - _EQ_TOL:
            raise ParameterError(
                f"target {target!r} below initial logical value {self._values[0]!r}"
            )
        i = bisect_right(self._values, target) - 1
        i = max(i, 0)
        mode = self._modes[i]
        if mode == OWN_RATE:
            return self.hardware.inverse(self._hw_at[i] + (target - self._values[i]))
        if self.semantics == "multiplicative":
            dh = (target - self._values[i]) / (1.0 + self.mu)
            return self.hardware.inverse(self._hw_at[i] + dh)
        return self._invert_additive(i, target)

    def _invert_additive(self, i: int, target: float) -> float:
        # Walk hardware segments from the anchor; each has combined slope
        # rate + mu, so the crossing is an exact division.
        t0 = self._times[i]
        v0 = self._values[i]
        hw = self.hardware
        j = bisect_right(hw.starts, t0) - 1
        t_end = self._times[i + 1] if i + 1 < len(self._times) else float("inf")
        t_lo, v_lo = t0, v0
        while True:
            seg_end = hw.starts[j + 1] if j + 1 < len(hw.starts) else float("inf")
            seg_end = min(seg_end, t_end)
            slope = hw.rates[j] + self.mu
            v_hi = v_lo + slope * (seg_end - t_lo) if seg_end < float("inf") else float("inf")
            if target <= v_hi + _EQ_TOL or seg_end == float("inf"):
                return t_lo + (target - v_lo) / slope
            t_lo, v_lo = seg_end, v_hi
            j += 1


def _linear_piece(c: LogicalClock, t0: float, t1: float):
    """(cum, rate, start, value, hw_at, factor) of the one hardware segment
    and logical anchor that ``c`` keeps from t0 to t1, or None where a
    breakpoint or an anchor lies in (t0, t1], or ``c`` is an additive clock
    in fast mode.  On such a piece ``c`` reads
    ``value + factor * (cum + rate * (t - start) - hw_at)``, the scalar
    formula of :meth:`LogicalClock.value`, since x * 1.0 == x exactly.
    """
    hw = c.hardware
    starts, anchors = hw.starts, c._times
    j = bisect_right(starts, t0) - 1
    i = bisect_right(anchors, t0) - 1
    fast = c._modes[i] == FAST
    if (
        bisect_right(starts, t1) - 1 != j
        or bisect_right(anchors, t1) - 1 != i
        or (fast and c.semantics == "additive")
    ):
        return None
    return hw._cum[j], hw.rates[j], starts[j], c._values[i], c._hw_at[i], 1.0 + c.mu if fast else 1.0


def sample_clocks(clocks, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logical and hardware values, each (R, n), of every clock at each of
    the R sorted instants ``times``.

    A clock that keeps one linear piece (see ``_linear_piece``) from the
    first instant to the last is evaluated with all such clocks in one
    broadcast.  The rest go through :meth:`LogicalClock.value_pair`.  Both
    paths repeat the scalar formula of :meth:`LogicalClock.value` operation
    for operation, so every entry equals it bit for bit.
    """
    t0, t1 = float(times[0]), float(times[-1])
    if t0 < 0:
        raise ParameterError(f"time must be non-negative, got {t0!r}")
    L = np.empty((len(times), len(clocks)))
    H = np.empty_like(L)
    cols, pieces = [], []
    for k, c in enumerate(clocks):
        piece = _linear_piece(c, t0, t1)
        if piece is None:
            L[:, k], H[:, k] = c.value_pair(times)
        else:
            cols.append(k)
            pieces.append(piece)
    if cols:
        cum, rate, start, value, hw_at, factor = map(np.array, zip(*pieces))
        h = cum + rate * (times[:, None] - start)
        L[:, cols] = value + factor * (h - hw_at)
        H[:, cols] = h
    return L, H


def read_clocks(clocks, times: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Logical value of clock ``cols[r]`` at instant ``times[r]``, for every r.

    The instants need not be sorted.  As in :func:`sample_clocks`, the
    clocks that keep one linear piece from the earliest instant to the
    latest are read in one broadcast and the rest through
    :meth:`LogicalClock.value_pair`, so every entry equals
    :meth:`LogicalClock.value` bit for bit.
    """
    if not len(times):
        return np.empty(0)
    t0, t1 = float(times.min()), float(times.max())
    if t0 < 0:
        raise ParameterError(f"time must be non-negative, got {t0!r}")
    pieces, bent = [], []
    for k, c in enumerate(clocks):
        piece = _linear_piece(c, t0, t1)
        if piece is None:
            bent.append(k)
            piece = (np.nan,) * 6
        pieces.append(piece)
    cum, rate, start, value, hw_at, factor = np.array(pieces)[cols].T
    out = value + factor * (cum + rate * (times - start) - hw_at)
    for k in bent:
        rows = np.flatnonzero(cols == k)
        if len(rows):
            out[rows] = clocks[k].value_pair(times[rows])[0]
    return out

