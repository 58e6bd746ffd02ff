"""Ground-truth oracle: skew metrics, conditions, potentials, bound checks.

Everything here reads true logical clock values, which running nodes never
see.  The per-instant operations are plain Python over small dicts; the
trace-wide checks are vectorized and chunked because a run can easily
produce 10^5 samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .topology import NetworkGraph
from .trace import Trace, Violation

__all__ = [
    "BoundReport",
    "slow_condition",
    "fast_condition",
    "theorem2_bound",
    "theorem2_levels",
    "theorem3_bound",
    "corollary1_check",
    "corollary1_check_all",
    "trace_oracles",
    "build_bound_report",
]

_TIE_TOL = 1e-12
_CHECK_TOL = 1e-9


# ---------------------------------------------------------------------------
# Instant-level operations


def slow_condition(values, g: NetworkGraph, kappa, v: int, s: int) -> bool:
    """True-clock form of the slow trigger: v leads some neighbour by the
    level threshold and no neighbour leads v by more."""
    if s < 1:
        raise ParameterError(f"skew level must be positive, got {s!r}")
    c = 2 * s - 1
    nbrs = g.neighbors(v)
    k = lambda w: kappa[(min(v, w), max(v, w))]
    sc1 = any(values[v] - values[x] >= c * k(x) for x in nbrs)
    sc2 = all(values[y] - values[v] <= c * k(y) for y in nbrs)
    return sc1 and sc2


def fast_condition(values, g: NetworkGraph, kappa, v: int, s: int) -> bool:
    """True-clock form of the fast trigger with the even-level threshold."""
    if s < 1:
        raise ParameterError(f"skew level must be positive, got {s!r}")
    c = 2 * s
    nbrs = g.neighbors(v)
    k = lambda w: kappa[(min(v, w), max(v, w))]
    fc1 = any(values[x] - values[v] >= c * k(x) for x in nbrs)
    fc2 = all(values[v] - values[y] <= c * k(y) for y in nbrs)
    return fc1 and fc2


# ---------------------------------------------------------------------------
# Theorem bound formulas


def theorem2_levels(kappa_e: float, g_bound: float, sigma: float) -> int:
    """Ceiling of log_sigma(G / kappa), nudged against float dust."""
    if sigma <= 1.0:
        raise ParameterError(f"sigma must exceed 1, got {sigma!r}")
    if kappa_e <= 0:
        raise ParameterError(f"kappa must be positive, got {kappa_e!r}")
    ratio = g_bound / kappa_e
    if ratio <= 0:
        raise ParameterError("global bound must be positive")
    if math.isinf(sigma):
        return 0
    x = math.log(ratio) / math.log(sigma)
    return math.ceil(x - 1e-12)


def theorem2_bound(kappa_e: float, g_bound: float, sigma: float) -> float:
    """Local skew bound 2*kappa*ceil(log_sigma(G/kappa)).

    A ratio at or below one makes the ceiling vanish; the degenerate zero
    is replaced by one full level (2*kappa), which is the smallest value
    the trigger hierarchy can maintain with nonzero drift.
    """
    levels = theorem2_levels(kappa_e, g_bound, sigma)
    return 2.0 * kappa_e * max(1, levels)


def theorem2_is_degenerate(kappa_e: float, g_bound: float, sigma: float) -> bool:
    return theorem2_levels(kappa_e, g_bound, sigma) < 1


def theorem3_bound(dist: np.ndarray, sigma: float) -> float:
    """Global skew bound (1 + 1/(sigma-1)) x kappa-weighted diameter.

    ``dist`` is the all-pairs kappa-distance matrix.
    """
    if sigma <= 1.0:
        raise ParameterError(f"sigma must exceed 1, got {sigma!r}")
    factor = 1.0 if math.isinf(sigma) else 1.0 + 1.0 / (sigma - 1.0)
    return factor * float(dist.max())


# ---------------------------------------------------------------------------
# Trace-wide checks


def corollary1_check(
    trace: Trace, s: int, theta: float, tol: float = _CHECK_TOL
) -> list[Violation]:
    """Growth check on each node's potential at level s.

    For every sampled pair t0 < t1 the potential may rise by at most
    (theta - 1)(t1 - t0).  Subtracting the drift line reduces the all-pairs
    comparison to a running-minimum scan, so the check is exact over all
    pairs yet linear in the number of samples.
    """
    if not (1 <= s <= trace.s_max):
        raise ParameterError(f"level {s} outside recorded range 1..{trace.s_max}")
    out: list[Violation] = []
    drift_line = (theta - 1.0) * trace.times
    for v in range(trace.n):
        r = trace.psi_nodes[:, v, s - 1] - drift_line
        if len(r) < 2:
            continue
        prefix_min = np.minimum.accumulate(r)
        bad = np.nonzero(r[1:] > prefix_min[:-1] + tol)[0]
        for i in bad:
            out.append(
                Violation(
                    time=float(trace.times[i + 1]),
                    kind="corollary1",
                    detail=(
                        f"node {v} level {s}: potential rose faster than the drift "
                        f"envelope (excess {float(r[i + 1] - prefix_min[i]):.3e})"
                    ),
                )
            )
    return out


def corollary1_check_all(trace: Trace, theta: float, tol: float = _CHECK_TOL) -> list[Violation]:
    out: list[Violation] = []
    for s in range(1, trace.s_max + 1):
        out.extend(corollary1_check(trace, s, theta, tol))
    return out


def trace_oracles(
    times: np.ndarray,
    logical: np.ndarray,
    dist: np.ndarray,
    kappa_adj: np.ndarray,
    s_max: int,
    tol: float = _CHECK_TOL,
    chunk: int = 4096,
):
    """Vectorized per-sample potentials plus the leading/trailing oracles.

    ``kappa_adj`` is the per-edge weight matrix with +inf on non-edges.
    Returns (psi_nodes, psi_levels, leading_nodes, violations): the
    leading-node oracle demands the ahead node of every positive maximizing
    pair satisfy the slow condition at that level; the trailing oracle
    demands every node realizing a positive discounted deficit satisfy the
    fast condition.  Both are theorems over the sampled values, so any hit
    is an implementation bug.
    """
    S, n = logical.shape
    psi_nodes = np.zeros((S, n, s_max))
    psi_levels = np.zeros((S, s_max))
    leading = np.zeros(S, dtype=np.int64)
    violations: list[Violation] = []

    for lo in range(0, S, chunk):
        hi = min(lo + chunk, S)
        L = logical[lo:hi]
        B = hi - lo
        # diff[t, a, b] = L[t, b] - L[t, a]
        diff = L[:, None, :] - L[:, :, None]
        for s in range(1, s_max + 1):
            c_odd = 2 * s - 1
            M = diff - c_odd * dist[None, :, :]
            pn = M.max(axis=2)
            psi_nodes[lo:hi, :, s - 1] = pn
            lvl = pn.max(axis=1)
            psi_levels[lo:hi, s - 1] = lvl

            flat = M.reshape(B, -1).argmax(axis=1)
            base = flat // n
            lead = flat % n
            if s == 1:
                leading[lo:hi] = lead
            active = lvl > tol
            if active.any():
                idx = np.nonzero(active)[0]
                Lw = L[idx, lead[idx]]
                Ksub = kappa_adj[lead[idx]]
                out_gap = Lw[:, None] - L[idx] - c_odd * Ksub
                sc1 = (out_gap >= -tol).any(axis=1)
                sc2_viol = ((L[idx] - Lw[:, None] - c_odd * Ksub) > tol).any(axis=1)
                for j in np.nonzero(~sc1 | sc2_viol)[0]:
                    t_idx = lo + idx[j]
                    violations.append(
                        Violation(
                            time=float(times[t_idx]),
                            kind="leading_node_not_slow",
                            detail=(
                                f"leading node {int(lead[idx[j]])} at level {s} "
                                f"fails the slow condition"
                            ),
                        )
                    )

            c_even = 2 * s
            M2 = -diff - c_even * dist[None, :, :]  # M2[t, v, x] = L_v - L_x - 2s*dist
            mx = M2.max(axis=2)
            pos = mx > tol
            if pos.any():
                attain = M2 >= (mx[:, :, None] - _TIE_TOL)
                trailing = (attain & pos[:, :, None]).any(axis=1)
                fc1 = ((diff - c_even * kappa_adj[None, :, :]) >= -tol).any(axis=2)
                fc2_viol = ((-diff - c_even * kappa_adj[None, :, :]) > tol).any(axis=2)
                bad = trailing & (~fc1 | fc2_viol)
                for t_i, w in zip(*np.nonzero(bad)):
                    violations.append(
                        Violation(
                            time=float(times[lo + t_i]),
                            kind="trailing_node_not_fast",
                            detail=(
                                f"trailing node {int(w)} at level {s} "
                                f"fails the fast condition"
                            ),
                        )
                    )
    return psi_nodes, psi_levels, leading, violations


@dataclass
class BoundReport:
    """Static skew bounds against the maxima a run actually produced."""

    sigma: float
    local_bound: float
    global_bound: float
    max_observed_local: float
    max_observed_global: float
    local_satisfied: bool
    global_satisfied: bool
    local_bound_degenerate: bool = False
    per_edge: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "local_bound": self.local_bound,
            "global_bound": self.global_bound,
            "max_observed_local": self.max_observed_local,
            "max_observed_global": self.max_observed_global,
            "local_satisfied": self.local_satisfied,
            "global_satisfied": self.global_satisfied,
            "local_bound_degenerate": self.local_bound_degenerate,
            "per_edge": self.per_edge,
        }


def build_bound_report(
    kappa,
    sigma: float,
    dist: np.ndarray,
    max_local: float,
    max_global: float,
    per_edge_max: dict | None = None,
    tol: float = _CHECK_TOL,
) -> BoundReport:
    g_bound = theorem3_bound(dist, sigma)
    kappa_max = max(kappa.values())
    l_bound = theorem2_bound(kappa_max, g_bound, sigma)
    per_edge = []
    if per_edge_max is not None:
        for (u, v), observed in sorted(per_edge_max.items()):
            k_e = kappa[(u, v)]
            b_e = theorem2_bound(k_e, g_bound, sigma)
            per_edge.append(
                {
                    "u": u,
                    "v": v,
                    "kappa": k_e,
                    "bound": b_e,
                    "max_observed": observed,
                    "satisfied": observed <= b_e + tol,
                }
            )
    return BoundReport(
        sigma=sigma,
        local_bound=l_bound,
        global_bound=g_bound,
        max_observed_local=max_local,
        max_observed_global=max_global,
        local_satisfied=max_local <= l_bound + tol,
        global_satisfied=max_global <= g_bound + tol,
        local_bound_degenerate=theorem2_is_degenerate(kappa_max, g_bound, sigma),
        per_edge=per_edge,
    )
