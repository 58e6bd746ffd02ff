"""Ground-truth oracle: skew metrics, conditions, potentials, bound checks.

Everything here reads true logical clock values, which running nodes never
see.  The checks are vectorized.  One threshold predicate,
:func:`level_conditions`, gives the slow and fast conditions over a padded
neighbour table, for many evaluations at once.  The trace oracles
(:func:`trace_oracles`: the level potentials and Corollary 1) run on one
engine chunk of samples at a time, carrying the previous chunk's last row
and the Corollary 1 floors, so their temporaries are O(rows per chunk *
n^2) however long the run.
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
    "neighbour_table",
    "level_conditions",
    "slow_condition",
    "fast_condition",
    "theorem2_bound",
    "theorem2_levels",
    "theorem3_bound",
    "global_bound_crossing",
    "corollary1_check",
    "corollary1_check_all",
    "trace_oracles",
    "build_bound_report",
]

_TIE_TOL = 1e-12
_CHECK_TOL = 1e-9


# ---------------------------------------------------------------------------
# Instant-level operations


def neighbour_table(g: NetworkGraph, kappa) -> tuple[np.ndarray, np.ndarray]:
    """(nb, K), each (n, D) for the largest degree D: row v lists v's
    neighbours in ascending order and their kappa, padded with v itself and
    kappa = +inf.  A pad reads a gap of exactly 0 against a threshold of
    +inf, which satisfies no "some neighbour" clause of
    :func:`level_conditions` and every "no neighbour" clause: it changes no
    condition."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    D = max(map(len, nbrs), default=0)
    nb = np.repeat(np.arange(n)[:, None], D, axis=1)
    K = np.full((n, D), np.inf)
    for v, ws in enumerate(nbrs):
        nb[v, : len(ws)] = ws
        K[v, : len(ws)] = [kappa[(min(v, w), max(v, w))] for w in ws]
    return nb, K


def level_conditions(
    own: np.ndarray, nbr: np.ndarray, K: np.ndarray, levels
) -> tuple[np.ndarray, np.ndarray]:
    """True-clock forms of the slow and fast triggers, each (m, len(levels)).

    Row r is one node v at one instant: ``own[r]`` is L_v, ``nbr[r, j]``
    is L_w for its j-th neighbour w and ``K[r, j]`` is kappa(v, w), in the
    padded layout of :func:`neighbour_table`.  Slow at level s: v leads
    some neighbour by at least (2s-1) kappa and no neighbour leads v by
    more.  Fast at level s: some neighbour leads v by at least 2s kappa and
    v leads no neighbour by more.  Every gap and threshold is the float a
    scalar evaluation, one neighbour at a time, computes (an int level
    factor times kappa is the same product), and every comparison matches
    it.
    """
    lead = nbr - own[:, None]
    trail = own[:, None] - nbr
    slow = np.empty((len(own), len(levels)), dtype=bool)
    fast = np.empty_like(slow)
    for j, s in enumerate(levels):
        odd, even = (2 * s - 1) * K, 2 * s * K
        slow[:, j] = (trail >= odd).any(axis=1) & (lead <= odd).all(axis=1)
        fast[:, j] = (lead >= even).any(axis=1) & (trail <= even).all(axis=1)
    return slow, fast


def _conditions_at(values, g: NetworkGraph, kappa, v: int, s: int) -> tuple[bool, bool]:
    if s < 1:
        raise ParameterError(f"skew level must be positive, got {s!r}")
    nbrs = g.neighbors(v)
    nbr = np.array([[values[w] for w in nbrs]], dtype=float)
    K = np.array([[kappa[(min(v, w), max(v, w))] for w in nbrs]], dtype=float)
    slow, fast = level_conditions(np.array([values[v]], dtype=float), nbr, K, [s])
    return bool(slow[0, 0]), bool(fast[0, 0])


def slow_condition(values, g: NetworkGraph, kappa, v: int, s: int) -> bool:
    """The slow condition of :func:`level_conditions` for node v at level s."""
    return _conditions_at(values, g, kappa, v, s)[0]


def fast_condition(values, g: NetworkGraph, kappa, v: int, s: int) -> bool:
    """The fast condition of :func:`level_conditions` for node v at level s."""
    return _conditions_at(values, g, kappa, v, s)[1]


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


def global_bound_crossing(t0: float, L0: np.ndarray, t1: float, L1: np.ndarray, level: float) -> float:
    """Earliest instant of [t0, t1] at which the global skew reaches ``level``.

    ``L0`` and ``L1`` are every logical clock at t0 and at t1, which end
    the first piece whose right end exceeds the level.  Every clock is
    linear on the piece, so every gap L_b - L_a is too, and the global
    skew, their maximum, first reaches the level where the earliest of the
    gaps that end above it does.  O(n^2).
    """
    f0 = L0[None, :] - L0[:, None]
    if f0.max() >= level:
        return float(t0)
    f1 = L1[None, :] - L1[:, None]
    up = f1 > level
    frac = (level - f0[up]) / (f1[up] - f0[up])
    return float(t0 + (t1 - t0) * frac.min())


# Values per in-place block of the Corollary 1 rise.  numpy copies the
# overlapping operand of ``F[lo:hi] -= F[lo - 1:hi - 1]``, an extra pass that
# costs more than the per-row call it saves once a row holds a few thousand
# values: 16 rows a block at n = 16, 4 at n = 32, one row at a time from
# n = 64 on.
_RISE_BLOCK = 1 << 12


def _growth_violations(
    times: np.ndarray, F: np.ndarray, psi: np.ndarray, s: int, theta: float, tol: float,
    floor: np.ndarray | None,
) -> tuple[list[Violation], np.ndarray]:
    """Corollary 1 at level s over the rows of one block.

    ``F[r, a, b] = L_b - L_a - (2s-1) d(a, b)`` at ``times[r]`` and
    ``psi[r, a] = F[r, a].max()`` is psi_s(a).  With g_a(t) = psi_s(a)(t)
    - (theta - 1) t, the statement is g_a(t1) - g_a(t0) <= tol for every
    pair of real instants t0 < t1.

    Each f_ab is linear on a piece, so g_a is convex there.  ``excess`` is
    its left slope at the right end times the piece length: the largest
    rise over the piece among the b that attain psi_s(a) at the right end,
    less (theta - 1) dt.  On the piece, g_a is at most its value at one of
    the ends, and at least its value at the right end less max(excess, 0).
    ``floor`` is the running minimum of these lower bounds, so it lies at
    or below g_a at every real instant up to the row; a row is flagged when
    g_a there exceeds it by more than tol.  One tol then covers every pair
    t0 < t1, however many pieces lie between them.  Where g_a does not
    rise on any piece, the floor is just g_a's running minimum.  A hit
    names as leader the first such b with the largest rise.

    ``floor`` carries the floor at ``times[0]`` from the previous block,
    or is None at the start of the trace.  Returns the violations of the
    pieces that end at rows 1.. and the floor at the last row.  ``F`` is
    overwritten: its rows 1.. hold the rise over each piece.
    """
    g = psi - (theta - 1.0) * times[:, None]
    start = g[0] if floor is None else floor
    if len(times) < 2:
        return [], start
    below = F[1:] < psi[1:, :, None] - _TIE_TOL  # b does not attain
    # the rise, in place, a block of rows at a time from the last: rows
    # lo - 1.. still hold F when the block [lo, hi) takes its rise
    k = max(1, _RISE_BLOCK // F[0].size)
    for hi in range(len(times), 1, -k):
        lo = max(1, hi - k)
        F[lo:hi] -= F[lo - 1 : hi - 1]
    rise = F[1:]
    rise[below] = -np.inf
    excess = rise.max(axis=2) - (theta - 1.0) * np.diff(times)[:, None]
    low = g[1:] - np.maximum(excess, 0.0)
    floors = np.minimum.accumulate(np.vstack([start[None, :], low]), axis=0)[1:]
    above = g[1:] - floors
    return [
        Violation(
            time=float(times[r + 1]),
            kind="corollary1",
            detail=(
                f"node {a} level {s}, leader {rise[r, a].argmax()}: potential rose faster than "
                f"the drift envelope, by {float(above[r, a]):.3e} at the end of the piece "
                f"[{float(times[r])!r}, {float(times[r + 1])!r}]"
            ),
        )
        for r, a in zip(*np.nonzero(above > tol))
    ], floors[-1]


def corollary1_check(trace: Trace, s: int, theta: float, tol: float = _CHECK_TOL) -> list[Violation]:
    """Corollary 1 at level s: no node's potential psi_s(v) rises faster
    than theta - 1.

    The statement checked is psi_s(v)(t1) - psi_s(v)(t0) <= (theta - 1)
    (t1 - t0) + tol for every node v and every pair of real instants
    t0 < t1, sampled or not.  It is exact between samples: every clock is
    linear between two samples, so psi_s(v) = max_w (L_w - L_v - (2s-1)
    d(v, w)) is convex on each piece, with its steepest rise at the piece's
    right end (see ``_growth_violations``).  ``trace_oracles`` makes the
    same check on each chunk of a run while it builds the potentials; this
    form re-reads a stored trace in one pass, with (S, n, n) temporaries.
    """
    if not (1 <= s <= trace.s_max):
        raise ParameterError(f"level {s} outside recorded range 1..{trace.s_max}")
    L = trace.logical
    F = L[:, None, :] - L[:, :, None] - (2 * s - 1) * trace.dist
    return _growth_violations(trace.times, F, F.max(axis=2), s, theta, tol, None)[0]


def corollary1_check_all(trace: Trace, theta: float, tol: float = _CHECK_TOL) -> list[Violation]:
    out: list[Violation] = []
    for s in range(1, trace.s_max + 1):
        out.extend(corollary1_check(trace, s, theta, tol))
    return out


def trace_oracles(
    times: np.ndarray,
    L: np.ndarray,
    dist: np.ndarray,
    s_max: int,
    theta: float,
    last_row: tuple | None = None,
    floors: np.ndarray | None = None,
    tol: float = _CHECK_TOL,
) -> tuple[np.ndarray, list[Violation], np.ndarray]:
    """Per-sample level potentials and the Corollary 1 growth check over
    one chunk of samples.

    ``times`` (m,) and ``L`` (m, n) are the chunk's sample instants and
    logical values.  The carry from the previous chunk is ``last_row``, its
    last (t, L) row, which starts the first piece of this chunk, and
    ``floors``, the (s_max, n) Corollary 1 floors at that row; both are None
    for the first chunk, so one call over a whole trace checks it as one
    chunk.  Returns (psi_levels (m, s_max), violations, the floors at the
    chunk's last row).  The Corollary 1 check is the one
    :func:`corollary1_check` describes, made on the per-level matrices
    built here and carried across chunks by ``last_row`` and ``floors``.

    The leading-node and trailing-node lemmas need no check per sample:
    they are identities of the kappa-metric at any single instant, whatever
    the clock values.  The ahead node b of a pair (a, b) attaining a
    positive Psi_s satisfies the slow condition at level s: the node x
    before b on a shortest path from a has d(a, x) = d(a, b) - kappa(x, b),
    and f_ax <= f_ab makes b lead x by at least (2s-1) kappa(x, b); a
    neighbour y leading b by more than (2s-1) kappa(b, y) would give
    f_ay > f_ab by the triangle inequality d(a, y) <= d(a, b) + kappa(b, y).
    A node realizing a positive discounted deficit satisfies the fast
    condition, the mirror image.  Both rest only on the zero diagonal, the
    triangle inequality and the in-neighbour on a shortest path, which
    :func:`topology.check_kappa_metric` checks of ``dist`` once per
    full-mode run.
    """
    if last_row is not None:  # the carried row only starts the first piece
        times, L = np.append(last_row[0], times), np.vstack([last_row[1], L])
    first = 0 if last_row is None else 1
    m, n = len(times) - first, L.shape[1]
    diff = L[:, None, :] - L[:, :, None]  # diff[r, a, b] = L_b - L_a
    buf = np.empty_like(diff)  # F of one level at a time
    psi_levels = np.empty((m, s_max))
    new_floors = np.empty((s_max, n))
    violations: list[Violation] = []
    for s in range(1, s_max + 1):
        F = np.subtract(diff, (2 * s - 1) * dist, out=buf)
        psi = F.max(axis=2)
        psi_levels[:, s - 1] = psi[first:].max(axis=1)
        viol, new_floors[s - 1] = _growth_violations(
            times, F, psi, s, theta, tol, None if floors is None else floors[s - 1]
        )
        violations += viol
    return psi_levels, violations, new_floors


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
