"""The synchronisation algorithm's parameters and triggers.

A node's state is its logical clock, its cycle and its exchanges in flight,
all owned by the engine.  Each cycle a node measures all neighbours, then
evaluates two families of estimate-based predicates over discrete skew
levels.  The slow trigger
says the node is ahead of its neighbourhood and should coast; the fast
trigger says it is behind and should speed up by the correction factor.
The threshold scale is the per-edge error weight kappa; the fast trigger
additionally relaxes by the per-edge estimate error bound delta, because
estimates deliberately understate the neighbour's clock.  The predicates
of different nodes do not depend on each other, so every evaluation at one
instant is one array operation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GcsParams", "trigger_thresholds", "trigger_levels"]


@dataclass(frozen=True)
class GcsParams:
    """Algorithm parameters shared by every node."""

    theta: float
    mu: float
    T: float
    T_stab: float
    s_max: int
    hysteresis: float = 0.0

    @property
    def cycle_length(self) -> float:
        return self.T + self.T_stab

    @property
    def sigma(self) -> float:
        """Correction-to-drift coefficient mu / (theta - 1)."""
        if self.theta == 1.0:
            return float("inf")
        return self.mu / (self.theta - 1.0)

    def validate(self) -> list[str]:
        problems = []
        if self.theta < 1.0:
            problems.append(f"theta must be >= 1, got {self.theta!r}")
        if self.mu <= self.theta - 1.0:
            problems.append(
                f"mu must exceed theta - 1 so sigma > 1, got mu={self.mu!r}, theta={self.theta!r}"
            )
        if self.T <= 0:
            problems.append("T must be positive")
        if self.T_stab <= 0:
            problems.append("T_stab must be positive")
        if self.s_max < 1:
            problems.append("s_max must be at least 1")
        if self.hysteresis < 0:
            problems.append("hysteresis must be non-negative")
        return problems


def trigger_thresholds(
    kappa: np.ndarray, delta: np.ndarray, s_max: int, hysteresis: float = 0.0
) -> np.ndarray:
    """The thresholds of :func:`trigger_levels` for edge weights ``kappa``
    and estimate error bounds ``delta``, each (..., D): an array (..., 4,
    s_max, D) holding, per level s, -((2s-1)*kappa + hysteresis),
    (2s-1)*kappa, 2s*kappa - delta + hysteresis and -(2s*kappa + delta).

    Each is computed in the order a scalar evaluation, one neighbour at a
    time, computes it (an int level factor times kappa is the same
    product), and negation is exact, so every comparison of
    :func:`trigger_levels` matches the scalar one.  A pad of
    :func:`metrics.neighbour_table`, with kappa +inf and delta 0, has the
    thresholds -inf, +inf, +inf, -inf.
    """
    s = np.arange(1, s_max + 1)[:, None]
    kappa, delta = kappa[..., None, :], delta[..., None, :]
    odd = (2 * s - 1) * kappa
    even = 2 * s * kappa
    thresholds = (-(odd + hysteresis), odd, even - delta + hysteresis, -(even + delta))
    return np.stack(np.broadcast_arrays(*thresholds), axis=-3)


def trigger_levels(lead: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slow and fast trigger of many evaluations at once, each (m, s_max):
    entry [r, s - 1] says whether the trigger of row r fires at level s.

    Row r is one node's evaluation: ``lead[r, j]`` is its estimate of its
    j-th neighbour less its own value (positive: the neighbour is estimated
    ahead), in the padded layout of :func:`metrics.neighbour_table`, and
    ``thresholds[r]`` are its edges' thresholds from
    :func:`trigger_thresholds`.

    Slow at level s: some neighbour trails by >= (2s-1)*kappa (plus the
    hysteresis) and none leads by more than (2s-1)*kappa.  Fast at level
    s: some neighbour leads by more than 2s*kappa - delta (plus the
    hysteresis) and none trails by 2s*kappa + delta or more.  Each clause
    counts the neighbours whose lead exceeds one threshold: trailing by
    >= x is not leading by more than -x, and trailing by less than x is
    leading by more than -x.  A pad leads by 0, which exceeds -inf and not
    +inf, so it changes no count that a clause tests.
    """
    D = lead.shape[1]
    over = np.add.reduce(lead[:, None, None, :] > thresholds, axis=3)
    slow = (over[:, 0] < D) & (over[:, 1] == 0)
    fast = (over[:, 2] > 0) & (over[:, 3] == D)
    return slow, fast
