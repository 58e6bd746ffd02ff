"""Ground-truth oracle: skew metrics, conditions, potentials, bound checks.

Everything here reads true logical clock values, which running nodes never
see.  A run's checks have one owner, :class:`Oracle`: the engine hands it
each sample instant, each completed exchange and each instant's
evaluations, and the oracle reads the clocks, reduces and checks chunk by
chunk, and builds the run's trace, violations and summary.  The checks
are vectorized, and each has one implementation.  One threshold
evaluator, :func:`gcs.trigger_levels`, gives the slow and fast conditions
(:func:`level_conditions`) as it gives the triggers.  One checker,
:func:`trace_oracles`, computes the level potentials and Corollary 1 on
one chunk at a time, carrying the previous chunk's last row and floors,
and reads only the pairs inside the chunk's skew ball
(:func:`distance_order`), so its temporaries are O(rows per chunk * n *
K), n^2 per row at worst, however long the run;
:func:`corollary1_check_all` applies it to a stored trace as one chunk.
:func:`build_bound_report` sets the run's skew maxima against the
scenario's static bounds.

``perfbench/worker.py`` wraps :func:`trace_oracles`,
:func:`corollary1_check_all`, :func:`build_bound_report`,
:func:`slow_condition` and :func:`fast_condition` by name to time them, so
these names stay, and the oracle calls them as globals of this module,
where the wrappers replace them.
"""
from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

from .clocks import ClockTable, sample_clocks
from .errors import ParameterError, RunAborted
from .gcs import trigger_levels, trigger_thresholds
from .topology import NetworkGraph, check_kappa_metric
from .trace import RunResult, RunSummary, Trace, Violation
from .twoway import estimate_value

__all__ = [
    "condition_thresholds",
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
    "Oracle",
]

_TIE_TOL = 1e-12
_CHECK_TOL = 1e-9


# ---------------------------------------------------------------------------
# Instant-level operations


def condition_thresholds(K: np.ndarray, s_max: int) -> np.ndarray:
    """The thresholds of :func:`level_conditions` for the link directions'
    edge weights ``K``: those of :func:`gcs.trigger_thresholds` at
    delta = 0, with the fast pair, 2s*kappa and -2s*kappa, lowered to the
    next float.  The slow condition is the slow trigger on true leads.  The
    fast trigger wants some lead above its first threshold and none at or
    below its second, the fast condition some at or above 2s*kappa and none
    below -2s*kappa, and for finite y, x >= y exactly when
    x > nextafter(y, -inf).  Before lowering, each threshold is the float a
    scalar evaluation computes (y - 0.0 is y), so each comparison matches."""
    thresholds = trigger_thresholds(K, 0.0, s_max)
    thresholds[:, 2:] = np.nextafter(thresholds[:, 2:], -np.inf)
    return thresholds


def level_conditions(lead: np.ndarray, thresholds: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """True-clock forms of the slow and fast triggers, each (m, s_max):
    :func:`gcs.trigger_levels` over :func:`condition_thresholds`.

    Row r is one node v at one instant, over its link directions
    ``starts[r]`` to ``starts[r + 1]`` (the last to the end), a non-empty
    segment: ``lead[d]`` is L_w - L_v for the neighbour w across direction
    d (L_v - L_w is -(L_w - L_v) exactly), and ``thresholds[d]`` are those
    of kappa(v, w).  Slow at level s: v leads some neighbour by at least
    (2s-1) kappa and no neighbour leads v by more.  Fast at level s: some
    neighbour leads v by at least 2s kappa and v leads no neighbour by
    more.
    """
    return trigger_levels(lead, thresholds, starts)


def _conditions_at(values, g: NetworkGraph, kappa, v: int, s: int) -> tuple[bool, bool]:
    if s < 1:
        raise ParameterError(f"skew level must be positive, got {s!r}")
    nbrs = g.neighbors(v)
    if not nbrs:  # no neighbour to lead or trail
        return False, False
    lead = np.array([values[w] for w in nbrs], dtype=float) - float(values[v])
    K = np.array([kappa[(min(v, w), max(v, w))] for w in nbrs], dtype=float)
    slow, fast = level_conditions(lead, condition_thresholds(K, s), [0])
    return bool(slow[0, s - 1]), bool(fast[0, s - 1])


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


# Values per in-place block of the Corollary 1 rise.  The rise runs along
# F's last axis, the rows, and numpy copies the overlapping operand of
# ``F[lo:hi, :, 1:] -= F[lo:hi, :, :-1]``, so a block takes as many of the K
# column slabs, each n * rows values, as keep that copy within this many
# values (one slab at least): one at a time once a chunk holds 4096 values
# per column, which a chunk of 8192 values has at every n.
_RISE_BLOCK = 1 << 12


def _growth_violations(
    times: np.ndarray, F: np.ndarray, psi: np.ndarray, s: int, theta: float, floor: np.ndarray | None,
    cols: np.ndarray,
) -> tuple[list[Violation], np.ndarray]:
    """Corollary 1 at level s over the rows of one block.

    ``F[k, a, r] = L_b - L_a - (2s-1) d(a, b)`` at ``times[r]`` for the
    node b = ``cols[a, k]``, and ``psi[a, r] = F[:, a, r].max()`` is
    psi_s(a).  Every reduction runs along a leading axis, which numpy does
    with whole-row passes, where a short trailing axis costs a call per
    element of the others.
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
    g = (psi - (theta - 1.0) * times).T  # (rows, n), as the floors run down the rows
    start = g[0] if floor is None else floor
    if len(times) < 2:
        return [], start
    below = F[:, :, 1:] < psi[:, 1:] - _TIE_TOL  # b does not attain
    # the rise, in place, a block of column slabs at a time
    k = max(1, _RISE_BLOCK // F[0].size)
    for lo in range(0, len(F), k):
        F[lo : lo + k, :, 1:] -= F[lo : lo + k, :, :-1]
    rise = F[:, :, 1:]
    rise[below] = -np.inf
    excess = (rise.max(axis=0) - (theta - 1.0) * np.diff(times)).T
    low = g[1:] - np.maximum(excess, 0.0)
    floors = np.minimum.accumulate(np.vstack([start[None, :], low]), axis=0)[1:]
    above = g[1:] - floors
    return [
        Violation(
            time=float(times[r + 1]),
            kind="corollary1",
            detail=(
                f"node {a} level {s}, leader {_leader(rise[:, a, r], cols[a])}: potential rose faster than "
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
    applied to the whole trace as one chunk, with (S, n, K) temporaries."""
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
    s_max), violations, the floors at the chunk's last row).  The
    :class:`Oracle` calls it on each chunk of a full-mode run.

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

    F is laid out (K, n, rows), so that its maxima run along its leading
    axis (see ``_growth_violations``).  Each of its values is made by the
    same float operations as in a (rows, n, K) layout, and a maximum of the
    same values is the same value whatever the order it reads them in,
    unless it meets +0.0 and -0.0 together, which no F, rise or psi holds:
    every clock reads ``value + factor * (H - hw_at)`` with a non-negative
    product, so no L is -0.0, and x - y is -0.0 only for x = -0.0 and y =
    +0.0.  So L_b - L_a is never -0.0, nor is F, which subtracts (2s-1)
    d(a, b) from it (+0.0 on the diagonal); a rise is a difference of two
    F, and psi a maximum of F.

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
    rows, n = L.shape
    LT = np.ascontiguousarray(L.T)  # (n, rows)
    reach = float((LT.max(axis=0) - LT.min(axis=0)).max()) + _CHECK_TOL
    width = [int(np.count_nonzero((2 * s - 1) * col_min <= reach)) for s in range(1, s_max + 1)]
    buf = np.empty(rows * n * width[0])  # F of one level at a time
    psi_levels = np.empty((rows - first, s_max))
    new_floors = np.empty((s_max, n))
    violations: list[Violation] = []
    for s, K in zip(range(1, s_max + 1), width):
        F = buf[: K * n * rows].reshape(K, n, rows)
        if K == n:  # every pair: natural column order
            cols = np.broadcast_to(np.arange(n), (n, n))
            np.subtract(LT[:, None, :], LT, out=F)  # F[b, a, r] = L_b - L_a
            F -= ((2 * s - 1) * dist).T[:, :, None]
        else:
            cols = order[:, :K]
            np.take(LT, cols.T, axis=0, out=F, mode="clip")  # in range: "clip" skips a buffered copy
            F -= LT
            F -= (2 * s - 1) * np.take_along_axis(dist, cols, axis=1).T[:, :, None]
        psi = F.max(axis=0)
        psi_levels[:, s - 1] = psi[:, first:].max(axis=0)
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
    bounds against the maxima a run produced, overall and per edge."""
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


# ---------------------------------------------------------------------------
# The run's oracle


# Values per chunk: the records are buffered, and the clocks read, reduced
# and checked with numpy once a chunk holds this many sampled clock values
# plus checked estimates (32 rows at n = 256 when no check is pending).
# Full mode also reduces a chunk once its rows times n^2, the size of the
# trace oracles' temporaries when the skew ball holds every pair (they are
# rows times n * K for the K columns inside it), reach 256 * _CHUNK_VALUES,
# which binds only above n = 256.
_CHUNK_VALUES = 8192


class Oracle:
    """Every check of one run against true clock values.

    The engine hands it three kinds of record, in the run's order: sample
    instants (:meth:`sample`), completed exchanges (:meth:`replies`) and
    the evaluations of one instant, a sample too (:meth:`evaluations`).
    Per chunk, the oracle reads every clock at the sample instants from the
    run's anchor ``table`` (a read of a past instant is exact), folds them
    into the skew maxima and the first global-bound crossing, and checks
    the estimate sandwich at each reply arrival and evaluation, the slow
    and fast conditions at each evaluation, the hardware drift envelope
    between samples and, in full mode, :func:`trace_oracles`, whose rows
    become the :class:`Trace`.  In full mode it first checks that
    ``sc.dist`` is the kappa-metric, which the leading/trailing-node lemmas
    rest on (see :func:`trace_oracles`).  ``kappa`` is the weight of each
    link direction.  ``stop(message)`` is the engine's abort, which
    completes every exchange whose reply has arrived before it calls
    :meth:`abort`; a drift breach calls it.
    """

    def __init__(self, sc, table: ClockTable, kappa: np.ndarray, stop):
        g, n, s_max = sc.graph, sc.graph.n, sc.params.s_max
        self.sc, self.table, self._kappa, self._stop, self._n = sc, table, kappa, stop, n
        src, dst, _, first = g.directions  # the link directions the records name
        self._src, self._dst, self._deg = src, dst, np.diff(first)
        self._conditions = condition_thresholds(kappa, s_max)
        self.full = sc.metrics_mode == "full"
        if self.full:
            check_kappa_metric(g, sc.kappa, sc.dist)
            self._by_distance = distance_order(sc.dist)  # for the trace oracles' skew balls
        self.edges = tuple((u, v) for u, v, _ in g.edges)
        self._eu, self._ev = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        self.violations: list[Violation] = []
        self.counters = dict.fromkeys(("eval_instants", "trigger_evaluations", "estimate_uses", "measurements",
                                       "sc_instances", "fc_instances", "st_instances", "ft_instances"), 0)
        # The records of the next chunk: its sample instants, the replies'
        # (directions, record) and one (sample row, instant, nodes,
        # directions, estimates, slow and fast levels fired) per evaluations
        # call; ``_checked`` counts the values of the latter two.
        self._times, self._replies, self._evals, self._checked = [], [], [], 0
        # full mode: (times, L, H, modes, local, global, psi_levels) per
        # chunk, after a zero-row one, which is all a skew_only run keeps
        empty, no_rows = np.zeros(0), np.zeros((0, n))
        self.chunks = [(empty, no_rows, no_rows, np.zeros((0, n), np.int8), empty, empty, np.zeros((0, s_max)))]
        # the skew maxima, per edge and global, and the first global-bound crossing
        self.edge_max, self.max_global, self.first_exceed = np.zeros(len(self.edges)), 0.0, None
        # carried from chunk to chunk: (t, L, H) of the last reduced sample
        # and, in full mode, the Corollary 1 floors there
        self.last, self.floors = None, None

    def sample(self, t: float) -> None:
        """The sample instant t, after every earlier one."""
        self._times.append(t)
        rows, n = len(self._times), self._n
        if rows * n + self._checked >= _CHUNK_VALUES or (self.full and rows * n * n >= 256 * _CHUNK_VALUES):
            self._reduce()

    def replies(self, dirs: np.ndarray, record: np.ndarray) -> None:
        """The exchanges on the directions ``dirs``, completed: the rows of
        ``record`` are their reply arrivals, offsets, deductions, t4 stamps
        and the responders' true values at the arrivals."""
        self.counters["measurements"] += len(dirs)
        self._replies.append((dirs, record))
        self._checked += record.size

    def evaluations(self, t: float, nodes, dirs, est, slow, fast) -> None:
        """The evaluations at t, which the next :meth:`sample` records: node
        ``nodes[i]`` held the estimates ``est`` across its directions, the
        next ones of ``dirs``, and its triggers fired at the levels of
        ``slow[i]`` and ``fast[i]``."""
        self._evals.append((len(self._times), t, nodes, dirs, est, slow, fast))
        self._checked += 4 * len(nodes) + len(est)

    def abort(self, message: str) -> None:
        """Make every buffered check, then raise RunAborted with the
        violations sorted as :meth:`finish` sorts them, so the report does
        not depend on where the chunks ended."""
        if self._evals and self._evals[-1][0] == len(self._times):
            self._times.append(self._evals[-1][1])  # the evaluations' instant is not sampled yet
        self._reduce()
        self._stop = None  # the run is over (see finish)
        self.violations.sort(key=attrgetter("time", "kind", "detail"))
        raise RunAborted(message, self.violations)

    def finish(self, cycles_completed: int) -> RunResult:
        """Make the checks still buffered, then return the run's trace,
        summary and violations, the ``bound_*`` ones included, sorted."""
        if self._times or self._replies:
            self._reduce()
        # the run is over: drop the engine's abort, which refers back to the
        # engine, so that neither keeps the other alive
        self._stop = None
        sc, edges = self.sc, self.edges
        trace = Trace(self.chunks, edges, sc.local_bound, sc.global_bound)  # not joined: no second copy
        self.chunks = []
        report = build_bound_report(
            sc.kappa, sc.sigma, sc.local_bound, sc.global_bound, float(self.edge_max.max()), self.max_global,
            {e: float(m) for e, m in zip(edges, self.edge_max)},
        )
        for side in ("local", "global"):
            if not report[f"{side}_satisfied"]:
                observed, bound = report[f"max_observed_{side}"], report[f"{side}_bound"]
                detail = f"max {side} skew {observed!r} exceeds {bound!r}"
                self.violations.append(Violation(0.0, f"bound_{side}", detail))
        self.violations.sort(key=attrgetter("time", "kind", "detail"))
        # each clock's anchors are its node's mode timeline
        timelines = {str(v): [list(a) for a in tl] for v, tl in enumerate(self.table.mode_timelines())}
        summary = RunSummary(
            scenario_hash=sc.scenario_hash, seed=sc.master_seed, cycles_completed=cycles_completed,
            bound_report=report, violation_count=len(self.violations), counters=dict(self.counters),
            mode_timelines=timelines, first_global_bound_exceed_time=self.first_exceed,
        )
        return RunResult(trace, summary, self.violations)

    def _reduce(self) -> None:
        """Fold the buffered samples into the skew maxima, full mode keeping
        them and running the trace oracles on them, make the buffered checks,
        then check the drift envelope, which may stop the run."""
        times = np.asarray(self._times)
        self._times = []
        if not len(times):
            self._check_buffered(times, None)
            return
        L, H, anchors = sample_clocks(self.table, times)
        prev, self.last = self.last, (times[-1], L[-1], H[-1])
        # the skews reduce along the leading axis of L's transpose, which
        # gives the same maxima (see trace_oracles: no L is -0.0)
        LT = np.ascontiguousarray(L.T)
        edge_gaps = np.abs(LT[self._eu] - LT[self._ev])
        local = edge_gaps.max(axis=0)
        glob = LT.max(axis=0) - LT.min(axis=0)
        np.maximum(self.edge_max, edge_gaps.max(axis=1), out=self.edge_max)
        self.max_global = max(self.max_global, float(glob.max()))
        if self.first_exceed is None:
            # exceeding means by more than the tolerance of `global_satisfied`
            level = self.sc.global_bound + _CHECK_TOL
            exceed = np.nonzero(glob > level)[0]
            if len(exceed):
                k = exceed[0]
                # at k = 0 the piece starts at the previous chunk's last row
                left = (times[k - 1], L[k - 1]) if k else prev[:2] if prev else (times[0], L[0])
                self.first_exceed = global_bound_crossing(*left, times[k], L[k], level)
        if self.full:
            sc = self.sc
            psi, viol, self.floors = trace_oracles(
                times, L, sc.dist, sc.params.s_max, sc.params.theta, None if prev is None else prev[:2], self.floors,
                self._by_distance,
            )
            self.violations.extend(viol)
            self.chunks.append((times, L, H, self.table.mode[anchors], local, glob, psi))
        self._check_buffered(times, L)
        self._check_drift(prev, times, H)

    def _check_buffered(self, times: np.ndarray, L: np.ndarray | None) -> None:
        """The sandwich at each buffered reply, and the checks of each
        buffered evaluation; ``times`` and ``L`` are the chunk's sample
        instants and logical values (None for an empty chunk, which has no
        evaluation)."""
        replies, evals = self._replies, self._evals
        self._replies, self._evals, self._checked = [], [], 0
        dirs = np.concatenate([np.empty(0, dtype=np.intp)] + [d for d, _ in replies])
        t, offset, deduction, t4, true = np.concatenate([np.empty((5, 0))] + [r for _, r in replies], axis=1)
        est = estimate_value(offset, deduction, t4)  # each requester's estimate at the reply's arrival
        self._check_sandwich(t, self._src[dirs], self._dst[dirs], true, est, self._kappa[dirs])
        if evals:
            rows = np.repeat([r for r, *_ in evals], [len(vs) for _, _, vs, *_ in evals])
            v, dirs, est, slow, fast = (np.concatenate(a) for a in list(zip(*evals))[2:])
            self._check_evaluations(times, L, rows, v, dirs, est, slow, fast)

    def _check_drift(self, prev: tuple | None, times: np.ndarray, H: np.ndarray) -> None:
        """Every hardware clock advances by [dt, theta * dt] (with tolerance)
        between consecutive samples, the first of the chunk following the
        previous chunk's last one, ``prev``."""
        if prev is not None:
            times = np.concatenate(([prev[0]], times))
            H = np.vstack((prev[2], H))
        dt = np.diff(times)
        keep = dt > 0
        dH = np.diff(H, axis=0)[keep]
        dt = dt[keep, None]
        if (dH < dt - _CHECK_TOL).any() or (dH > self.sc.params.theta * dt + _CHECK_TOL).any():
            self._stop("hardware clock violated its drift envelope")

    def _check_evaluations(self, times, L, rows, v, dirs, est, slow_fired, fast_fired) -> None:
        """The sandwich at each evaluation, and its slow and fast conditions
        held only at levels where the matching trigger fired: node ``v[i]``
        at sample row ``rows[i]`` held the estimates of ``est`` across its
        directions, the next ``deg[v[i]]`` of ``dirs``, and its triggers
        fired at the levels of ``slow_fired[i]`` and ``fast_fired[i]``.  An
        evaluation is a sample, so its true values are a row of L.  Also
        counts the evaluations and levels fired, and reports slow and fast
        triggers firing together."""
        deg, w, kappa = self._deg[v], self._dst[dirs], self._kappa[dirs]
        at = np.repeat(rows, deg)
        L_w = L[at, w]
        t = times[rows]
        self.counters["eval_instants"] += len(v)
        self.counters["trigger_evaluations"] += 2 * self.sc.params.s_max * len(v)
        self.counters["st_instances"] += int(np.count_nonzero(slow_fired))
        self.counters["ft_instances"] += int(np.count_nonzero(fast_fired))
        for r in np.flatnonzero(slow_fired.any(axis=1) & fast_fired.any(axis=1)).tolist():
            st, ft = (tuple((np.flatnonzero(f[r]) + 1).tolist()) for f in (slow_fired, fast_fired))
            detail = f"node {int(v[r])} satisfies slow {st} and fast {ft} triggers together"
            self.violations.append(Violation(float(t[r]), "trigger_coexistence", detail))
        self._check_sandwich(times[at], np.repeat(v, deg), w, L_w, est, kappa)
        conditions = self._conditions.take(dirs, axis=0)
        slow, fast = level_conditions(L_w - L[at, self._src[dirs]], conditions, np.cumsum(deg) - deg)
        self.counters["sc_instances"] += int(np.count_nonzero(slow))
        self.counters["fc_instances"] += int(np.count_nonzero(fast))
        for name, held, fired in (("slow", slow, slow_fired), ("fast", fast, fast_fired)):
            for r, j in zip(*(a.tolist() for a in np.nonzero(held & ~fired))):
                self.violations.append(Violation(
                    float(t[r]), "condition_without_trigger",
                    f"node {int(v[r])}: {name} condition at level {j + 1} without {name} trigger",
                ))

    def _check_sandwich(self, t, v, w, true, est, delta) -> None:
        """Estimates ``est`` of w held at v lie in [L_w - delta, L_w] (with
        tolerance) for w's true values L_w, ``true``."""
        err = true - est
        self.counters["estimate_uses"] += len(err)
        for i in np.flatnonzero((err < -_CHECK_TOL) | (err > delta + _CHECK_TOL)).tolist():
            detail = f"estimate of {int(w[i])} at {int(v[i])} off by {float(err[i]):.3e} (allowed [0, {delta[i]:.3e}])"
            self.violations.append(Violation(float(t[i]), "estimate_sandwich", detail))
