"""Ground-truth oracle: skew metrics, conditions, potentials, bound checks.

Everything here reads true logical clock values, which running nodes never
see.  The checks are vectorized, and each has one implementation.  One
threshold predicate, :func:`level_conditions`, gives the slow and fast
conditions over the nodes' link directions, for many evaluations at once.
One checker, :func:`trace_oracles`, computes the level potentials and
Corollary 1; it runs on one engine chunk of samples at a time, carrying
the previous chunk's last row and the Corollary 1 floors, and reads only
the pairs inside the chunk's skew ball, the first K columns of each row
of the distance matrix in ascending order (:func:`distance_order`).  Its
temporaries are O(rows per chunk * n * K), n^2 per row at worst, however
long the run, and :func:`corollary1_check_all` applies it to a stored
trace as one chunk, with the scenario's distance matrix (a trace does not
carry it).
:func:`build_bound_report` sets the run's skew maxima against the
scenario's static bounds.

``perfbench/worker.py`` wraps :func:`trace_oracles`,
:func:`corollary1_check_all`, :func:`build_bound_report`,
:func:`slow_condition` and :func:`fast_condition` by name to time them, so
these names stay while the benchmark reads them.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .topology import NetworkGraph
from .trace import Trace, Violation

__all__ = [
    "level_conditions",
    "slow_condition",
    "fast_condition",
    "theorem2_bound",
    "theorem2_levels",
    "theorem3_bound",
    "global_bound_crossing",
    "distance_order",
    "corollary1_check_all",
    "trace_oracles",
    "build_bound_report",
]

_TIE_TOL = 1e-12
_CHECK_TOL = 1e-9


# ---------------------------------------------------------------------------
# Instant-level operations


def level_conditions(lead: np.ndarray, K: np.ndarray, starts: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """True-clock forms of the slow and fast triggers, each (m, len(levels)).

    Row r is one node v at one instant, over its link directions
    ``starts[r]`` to ``starts[r + 1]`` (the last to the end), a non-empty
    segment: ``lead[d]`` is L_w - L_v for the neighbour w across direction
    d, and ``K[d]`` is kappa(v, w).  Slow at level s: v leads some
    neighbour by at least (2s-1) kappa and no neighbour leads v by more.
    Fast at level s: some neighbour leads v by at least 2s kappa and v
    leads no neighbour by more.  Every gap and threshold is the float a
    scalar evaluation, one neighbour at a time, computes (an int level
    factor times kappa is the same product, and L_v - L_w is -(L_w - L_v)
    exactly), and every comparison matches it.
    """
    trail = -lead
    any_of, all_of = np.logical_or.reduceat, np.logical_and.reduceat
    slow = np.empty((len(starts), len(levels)), dtype=bool)
    fast = np.empty_like(slow)
    for j, s in enumerate(levels):
        odd, even = (2 * s - 1) * K, 2 * s * K
        slow[:, j] = any_of(trail >= odd, starts) & all_of(lead <= odd, starts)
        fast[:, j] = any_of(lead >= even, starts) & all_of(trail <= even, starts)
    return slow, fast


def _conditions_at(values, g: NetworkGraph, kappa, v: int, s: int) -> tuple[bool, bool]:
    if s < 1:
        raise ParameterError(f"skew level must be positive, got {s!r}")
    nbrs = g.neighbors(v)
    if not nbrs:  # no neighbour to lead or trail
        return False, False
    lead = np.array([values[w] for w in nbrs], dtype=float) - float(values[v])
    K = np.array([kappa[(min(v, w), max(v, w))] for w in nbrs], dtype=float)
    slow, fast = level_conditions(lead, K, [0], [s])
    return bool(slow[0, 0]), bool(fast[0, 0])


def slow_condition(values, g: NetworkGraph, kappa, v: int, s: int) -> bool:
    """The slow condition of :func:`level_conditions` for node v at level s.
    ``perfbench/worker.py`` counts its calls by this name."""
    return _conditions_at(values, g, kappa, v, s)[0]


def fast_condition(values, g: NetworkGraph, kappa, v: int, s: int) -> bool:
    """The fast condition of :func:`level_conditions` for node v at level s.
    ``perfbench/worker.py`` counts its calls by this name."""
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


def theorem3_bound(diameter: float, sigma: float) -> float:
    """Global skew bound (1 + 1/(sigma-1)) x kappa-weighted diameter.

    ``diameter`` is the largest kappa-distance, ``Scenario.diameter``.
    """
    if sigma <= 1.0:
        raise ParameterError(f"sigma must exceed 1, got {sigma!r}")
    factor = 1.0 if math.isinf(sigma) else 1.0 + 1.0 / (sigma - 1.0)
    return factor * diameter


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
# values.  A row holds n * K values, K the columns inside the chunk's skew
# ball: 16 rows a block at n = K = 16, and one row at a time once n * K
# reaches 4096, which at K = n is from n = 64 on.
_RISE_BLOCK = 1 << 12


def _growth_violations(
    times: np.ndarray, F: np.ndarray, psi: np.ndarray, s: int, theta: float, floor: np.ndarray | None,
    cols: np.ndarray,
) -> tuple[list[Violation], np.ndarray]:
    """Corollary 1 at level s over the rows of one block.

    ``F[r, a, k] = L_b - L_a - (2s-1) d(a, b)`` at ``times[r]`` for the
    node b = ``cols[a, k]``, and ``psi[r, a] = F[r, a].max()`` is psi_s(a).
    With g_a(t) = psi_s(a)(t) - (theta - 1) t, the statement is g_a(t1) -
    g_a(t0) <= _CHECK_TOL for every pair of real instants t0 < t1.

    Each f_ab is linear on a piece, so g_a is convex there.  ``excess`` is
    its left slope at the right end times the piece length: the largest
    rise over the piece among the b that attain psi_s(a) at the right end,
    less (theta - 1) dt.  On the piece, g_a is at most its value at one of
    the ends, and at least its value at the right end less max(excess, 0).
    ``floor`` is the running minimum of these lower bounds, so it lies at
    or below g_a at every real instant up to the row; a row is flagged when
    g_a there exceeds it by more than _CHECK_TOL.  One tolerance then
    covers every pair t0 < t1, however many pieces lie between them.  Where
    g_a does not rise on any piece, the floor is just g_a's running
    minimum.  A hit names as leader the smallest such b with the largest
    rise.

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
                f"node {a} level {s}, leader {_leader(rise[r, a], cols[a])}: potential rose faster than "
                f"the drift envelope, by {float(above[r, a]):.3e} at the end of the piece "
                f"[{float(times[r])!r}, {float(times[r + 1])!r}]"
            ),
        )
        for r, a in zip(*np.nonzero(above > _CHECK_TOL))
    ], floors[-1]


def _leader(rise: np.ndarray, names: np.ndarray) -> int:
    """The smallest of the nodes ``names`` whose ``rise`` is the largest."""
    return int(names[rise == rise.max()].min())


def distance_order(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, col_min) of a distance matrix, for :func:`trace_oracles`.

    ``order[a]`` lists the nodes by their distance from a, ascending, in
    the narrowest unsigned type that holds n - 1 (uint16 at n = 1024), and
    ``col_min[j]`` is the least j-th smallest distance of any row, so
    ``col_min`` is non-decreasing.
    """
    order = np.argsort(dist, axis=1, kind="stable")
    return order.astype(np.min_scalar_type(len(dist) - 1)), np.take_along_axis(dist, order, axis=1).min(axis=0)


def corollary1_check_all(trace: Trace, dist: np.ndarray, theta: float) -> list[Violation]:
    """Corollary 1 at every level of a stored full-mode trace, whose
    scenario's kappa-distance matrix is ``dist``: :func:`trace_oracles`
    applied to the whole trace as one chunk, with (S, n, K) temporaries.
    ``perfbench/worker.py`` wraps it by this name."""
    return trace_oracles(trace.times, trace.logical, dist, trace.s_max, theta)[1]


def trace_oracles(
    times: np.ndarray,
    L: np.ndarray,
    dist: np.ndarray,
    s_max: int,
    theta: float,
    last_row: tuple | None = None,
    floors: np.ndarray | None = None,
    by_distance: tuple | None = None,
) -> tuple[np.ndarray, list[Violation], np.ndarray]:
    """Per-sample level potentials and the Corollary 1 growth check over
    one chunk of samples.

    ``times`` (m,) and ``L`` (m, n) are the chunk's sample instants and
    logical values.  The carry from the previous chunk is ``last_row``, its
    last (t, L) row, which starts the first piece of this chunk, and
    ``floors``, the (s_max, n) Corollary 1 floors at that row; both are None
    for the first chunk, so one call over a whole trace checks it as one
    chunk.  ``by_distance`` is :func:`distance_order` of ``dist``, computed
    here when None; a run computes it once.  Returns (psi_levels (m,
    s_max), violations, the floors at the chunk's last row).  The engine
    calls it on each chunk of a full-mode run, and ``perfbench/worker.py``
    times it by this name.

    Corollary 1: no node's potential psi_s(v) rises faster than theta - 1.
    The statement checked is psi_s(v)(t1) - psi_s(v)(t0) <= (theta - 1)
    (t1 - t0) + _CHECK_TOL for every level s, node v and pair of real
    instants t0 < t1, sampled or not.  It is exact between samples: every
    clock is linear between two samples, so psi_s(v) = max_w (L_w - L_v -
    (2s-1) d(v, w)) is convex on each piece, with its steepest rise at the
    piece's right end (see ``_growth_violations``).

    Only the pairs inside the chunk's skew ball are read, and the result is
    the one over all pairs, bit for bit.  Let G_c be the chunk's largest
    global skew, the carried row included, and K the number of columns j
    with (2s-1) col_min[j] <= G_c + _CHECK_TOL; ``col_min`` is
    non-decreasing, so these are the first K.  F is built over the nodes
    ``order[:, :K]`` with the float operations of the dense form, so each
    of its values is the dense one.  psi_s(a) >= 0, since the diagonal
    reads exactly 0.  A node b outside a's first K columns has (2s-1)
    d(a, b) > G_c + _CHECK_TOL, while the rounded L_b - L_a is at most the
    rounded G_c, so F_ab <= -_CHECK_TOL up to the rounding of G_c +
    _CHECK_TOL, far below psi_s(a) - _TIE_TOL.  Such a b never sets psi_s(a),
    never enters the tie mask, so it sets no rise, floor or leader: the
    maxima over the first K columns equal those over all n, and the leader
    is named as the smallest node of the largest rise in either order.
    At K = n the columns stay in natural order.

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
    order, col_min = distance_order(dist) if by_distance is None else by_distance
    first = 0 if last_row is None else 1
    m, n = len(times) - first, L.shape[1]
    reach = float((L.max(axis=1) - L.min(axis=1)).max()) + _CHECK_TOL
    width = [int(np.count_nonzero((2 * s - 1) * col_min <= reach)) for s in range(1, s_max + 1)]
    buf = np.empty(len(times) * n * width[0])  # F of one level at a time
    psi_levels = np.empty((m, s_max))
    new_floors = np.empty((s_max, n))
    violations: list[Violation] = []
    for s, K in zip(range(1, s_max + 1), width):
        F = buf[: len(times) * n * K].reshape(len(times), n, K)
        if K == n:  # every pair: natural column order
            cols = np.broadcast_to(np.arange(n), (n, n))
            np.subtract(L[:, None, :], L[:, :, None], out=F)  # F[r, a, b] = L_b - L_a
            F -= (2 * s - 1) * dist
        else:
            cols = order[:, :K]
            np.take(L, cols, axis=1, out=F, mode="clip")  # in range: "clip" skips a buffered copy
            F -= L[:, :, None]
            F -= (2 * s - 1) * np.take_along_axis(dist, cols, axis=1)
        psi = F.max(axis=2)
        psi_levels[:, s - 1] = psi[first:].max(axis=1)
        viol, new_floors[s - 1] = _growth_violations(
            times, F, psi, s, theta, None if floors is None else floors[s - 1], cols
        )
        violations += viol
    return psi_levels, violations, new_floors


def build_bound_report(
    kappa, sigma: float, local_bound: float, global_bound: float, max_local: float, max_global: float,
    per_edge_max: dict,
) -> dict:
    """The ``bound_report`` of ``summary.json``: the scenario's static skew
    bounds against the maxima a run produced, overall and per edge.
    ``perfbench/worker.py`` times it by this name."""
    per_edge = []
    for (u, v), observed in sorted(per_edge_max.items()):
        k_e = kappa[(u, v)]
        b_e = theorem2_bound(k_e, global_bound, sigma)
        per_edge.append(
            {"u": u, "v": v, "kappa": k_e, "bound": b_e, "max_observed": observed,
             "satisfied": observed <= b_e + _CHECK_TOL}
        )
    return {
        "sigma": sigma,
        "local_bound": local_bound,
        "global_bound": global_bound,
        "max_observed_local": max_local,
        "max_observed_global": max_global,
        "local_satisfied": max_local <= local_bound + _CHECK_TOL,
        "global_satisfied": max_global <= global_bound + _CHECK_TOL,
        "local_bound_degenerate": theorem2_levels(max(kappa.values()), global_bound, sigma) < 1,
        "per_edge": per_edge,
    }
