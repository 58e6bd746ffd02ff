"""Scalar reference forms of the ground-truth metrics.

Plain-Python, one-instant versions of what the engine computes vectorized
(skews, potentials, the trailing-node test) or over whole traces (the
hardware drift envelope).  Tests check the engine against them; the
package itself does not use them.
"""
from __future__ import annotations

import numpy as np

from gcsim.clocks import HardwareClock
from gcsim.errors import ParameterError

_TIE_TOL = 1e-12


def local_skew(values, edges) -> float:
    """Largest absolute logical gap across any single edge."""
    return max((abs(values[u] - values[v]) for u, v in edges), default=0.0)


def global_skew(values) -> float:
    """Largest logical gap across the whole network."""
    return max(values) - min(values)


def potential(values, dist: np.ndarray, v: int, s: int) -> float:
    """Maximum lead any node holds over v, discounted by (2s-1) x distance.

    The v term itself contributes zero, so the result is never negative.
    """
    if s < 1:
        raise ParameterError(f"skew level must be positive, got {s!r}")
    c = 2 * s - 1
    return max(values[w] - values[v] - c * dist[v, w] for w in range(len(values)))


def level_potential(values, dist: np.ndarray, s: int) -> tuple[float, int]:
    """Network-wide potential at level s and its argmax node (lowest id on ties)."""
    best_val, best_node = None, None
    for v in range(len(values)):
        p = potential(values, dist, v, s)
        if best_val is None or p > best_val + _TIE_TOL:
            best_val, best_node = p, v
    return best_val, best_node


def trailing_node(values, dist: np.ndarray, w: int, s_max: int) -> bool:
    """w realizes some node's maximal discounted deficit at some level."""
    n = len(values)
    for s in range(1, s_max + 1):
        c = 2 * s
        for v in range(n):
            row = [values[v] - values[x] - c * dist[v, x] for x in range(n)]
            mx = max(row)
            if mx > 0 and row[w] >= mx - _TIE_TOL:
                return True
    return False


def check_lipschitz(c: HardwareClock, t1: float, t2: float, theta: float, tol: float = 1e-9) -> bool:
    """True iff the clock advanced within [dt, theta*dt] over (t1, t2]."""
    if t2 <= t1 or t1 < 0:
        raise ParameterError("need t2 > t1 >= 0")
    dt = t2 - t1
    dh = c.value(t2) - c.value(t1)
    return dt - tol <= dh <= theta * dt + tol
