"""Scalar reference forms of the ground-truth metrics.

Plain-Python, one-instant versions of what the engine computes vectorized
(clock samples, skews, potentials, the trailing-node test, the slow and
fast conditions) or per pair of samples (the hardware drift envelope), the
engine's ground-truth checks made one event at a time, a hardware clock
and clock reads and inverses that search for every piece (the clock table
skips the search on a clock's last one), the row-by-row
trace writer, the per-source Dijkstra behind the kappa distance matrix,
the pair-by-pair boot-up gate, the one-stream-at-a-time RNG seeding, the
link draw of one stream in one cycle, and the dense trace oracles, over
every pair, with their Corollary 1 rise taken one row at a time.
Tests check the engine against them; the package itself does not use
them.

``ThreeEventExchange`` is the reference twin of the engine's exchanges and
evaluations: each message leg is an event that reads its own stamp, run by
the twin's own event loop, and each evaluation runs on its own.  ``Recording`` and ``PerEventChecks`` are
built on it: the first keeps the per-measurement ground truth that the
engine does not keep, the second makes the ground-truth checks one event
at a time.  ``PerEventLoop`` is the reference twin of the engine's grouped
heap entries: one entry per node event.
"""
from __future__ import annotations

import functools
import hashlib
import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from gcsim import engine, gcs
from gcsim.clocks import FAST, OWN_RATE, LogicalClock
from gcsim.errors import GcsSimError, InternalError, ParameterError
from gcsim.trace import Trace, Violation

_TIE_TOL = 1e-12


def seeded_stream(master_seed: int, purpose_label: str) -> np.random.Generator:
    """The labelled substream seeded on its own: a ``SeedSequence`` over the
    seed masked to 64 bits and the four little-endian 32-bit words of
    ``sha256(label)[:16]``, as Python ints.  ``engine.PcgStream`` must draw
    what this draws."""
    digest = hashlib.sha256(purpose_label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    seq = np.random.SeedSequence([master_seed & 0xFFFFFFFFFFFFFFFF] + words)
    return np.random.Generator(np.random.PCG64(seq))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


@functools.cache
def link_key(master_seed: int, label: str) -> int:
    """The key of the link stream ``label``: the first 8 bytes,
    little-endian, of the SHA-256 of the seed's 8 little-endian bytes
    (masked to 64 bits) and the label's UTF-8 bytes."""
    digest = hashlib.sha256((master_seed & _MASK64).to_bytes(8, "little") + label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def mix64(z: int) -> int:
    """SplitMix64's finalizer of a 64-bit int."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def link_uniform(key: int, k: int) -> float:
    """The draw of the link stream ``key`` in cycle k, in Python ints: the
    top 53 bits of mix64(key + (k + 1) gamma mod 2^64), times 2^-53.
    ``engine._link_uniforms`` must draw what this draws."""
    return (mix64((key + (k + 1) * _GAMMA) & _MASK64) >> 11) * 2.0**-53


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


def growth_violations(
    times: np.ndarray, F: np.ndarray, psi: np.ndarray, s: int, theta: float, tol: float,
    floor: np.ndarray | None,
) -> tuple[list[Violation], np.ndarray]:
    """``metrics._growth_violations`` with the rise taken one row at a time,
    from the last, and the leader of every row and node by one full argmax
    over the (rows, n, n) rise."""
    g = psi - (theta - 1.0) * times[:, None]
    start = g[0] if floor is None else floor
    if len(times) < 2:
        return [], start
    below = F[1:] < psi[1:, :, None] - _TIE_TOL
    for r in range(len(times) - 1, 0, -1):
        F[r] -= F[r - 1]
    rise = F[1:]
    rise[below] = -np.inf
    leader = rise.argmax(axis=2)
    excess = rise.max(axis=2) - (theta - 1.0) * np.diff(times)[:, None]
    low = g[1:] - np.maximum(excess, 0.0)
    floors = np.minimum.accumulate(np.vstack([start[None, :], low]), axis=0)[1:]
    above = g[1:] - floors
    return [
        Violation(
            time=float(times[r + 1]),
            kind="corollary1",
            detail=(
                f"node {a} level {s}, leader {leader[r, a]}: potential rose faster than "
                f"the drift envelope, by {float(above[r, a]):.3e} at the end of the piece "
                f"[{float(times[r])!r}, {float(times[r + 1])!r}]"
            ),
        )
        for r, a in zip(*np.nonzero(above > tol))
    ], floors[-1]


def dense_trace_oracles(times, L, dist, s_max, theta, last_row=None, floors=None, tol=1e-9):
    """``metrics.trace_oracles`` over every pair, with (rows, n, n)
    temporaries per level, on :func:`growth_violations`: the same
    (psi_levels, violations, floors) of one chunk, with the same carry,
    whatever the skew ball holds."""
    if last_row is not None:
        times, L = np.append(last_row[0], times), np.vstack([last_row[1], L])
    first = 0 if last_row is None else 1
    diff = L[:, None, :] - L[:, :, None]
    psi_levels = np.empty((len(times) - first, s_max))
    new_floors = np.empty((s_max, L.shape[1]))
    violations: list[Violation] = []
    for s in range(1, s_max + 1):
        F = diff - (2 * s - 1) * dist
        psi = F.max(axis=2)
        psi_levels[:, s - 1] = psi[first:].max(axis=1)
        viol, new_floors[s - 1] = growth_violations(
            times, F, psi, s, theta, tol, None if floors is None else floors[s - 1]
        )
        violations += viol
    return psi_levels, violations, new_floors


def slow_condition(values, g, kappa, v: int, s: int) -> bool:
    """v leads some neighbour by (2s-1) kappa or more and no neighbour leads v by more."""
    c = 2 * s - 1
    k = lambda w: kappa[(min(v, w), max(v, w))]
    nbrs = g.neighbors(v)
    return any(values[v] - values[x] >= c * k(x) for x in nbrs) and all(
        values[y] - values[v] <= c * k(y) for y in nbrs
    )


def fast_condition(values, g, kappa, v: int, s: int) -> bool:
    """Some neighbour leads v by 2s kappa or more and v leads no neighbour by more."""
    c = 2 * s
    k = lambda w: kappa[(min(v, w), max(v, w))]
    nbrs = g.neighbors(v)
    return any(values[x] - values[v] >= c * k(x) for x in nbrs) and all(
        values[v] - values[y] <= c * k(y) for y in nbrs
    )


class StaleEstimateError(GcsSimError, RuntimeError):
    """A neighbour estimate was used outside the cycle it was computed in."""


@dataclass(frozen=True)
class RequestMsg:
    sender: int
    l_v_t1: float


@dataclass(frozen=True)
class ReplyMsg:
    responder: int
    l_w_t2: float
    l_w_t3: float
    l_v_t1_echo: float


@dataclass(frozen=True)
class MeasurementRecord:
    """The completed five-tuple of one exchange, requester side."""

    neighbor: int
    l_v_t1: float
    l_w_t2: float
    l_w_t3: float
    l_v_t4: float
    completed_at_real: float


@dataclass(frozen=True)
class NeighborEstimate:
    """Delay/offset estimate for one neighbour, valid for one cycle."""

    neighbor: int
    d_avg: float
    offset: float
    estimate_deduction: float
    valid_cycle: int


def handle_request(
    req: RequestMsg, responder: int, responder_clock_now: float, processing_delay: float
) -> ReplyMsg:
    """The responder's reply: ``responder_clock_now`` is its logical value
    at the request's arrival and ``processing_delay`` the local time spent
    before the reply leaves, so the departure stamp is their sum."""
    if processing_delay < 0:
        raise ParameterError("processing delay must be non-negative")
    return ReplyMsg(responder, responder_clock_now, responder_clock_now + processing_delay, req.l_v_t1)


def compute_estimates(
    rec: MeasurementRecord, eps_d: float, eps_m: float, theta: float, valid_cycle: int = -1
) -> NeighborEstimate:
    """The estimate of one completed record for ``valid_cycle`` (-1: not
    tied to a cycle), from the engine's array form with one entry."""
    one = lambda x: np.array([x], dtype=float)
    d_avg, offset, deduction = engine.compute_estimates(
        one(rec.l_v_t1), one(rec.l_w_t2), one(rec.l_w_t3), one(rec.l_v_t4), one(eps_d), one(eps_m), theta
    )
    return NeighborEstimate(rec.neighbor, float(d_avg[0]), float(offset[0]), float(deduction[0]), valid_cycle)


def estimate_value(est: NeighborEstimate, l_v_now: float, cycle: int | None = None) -> float:
    """Extrapolated neighbour clock estimate at the caller's current value."""
    if cycle is not None and est.valid_cycle >= 0 and cycle != est.valid_cycle:
        raise StaleEstimateError(
            f"estimate for neighbor {est.neighbor} is from cycle {est.valid_cycle}, "
            f"queried in cycle {cycle}"
        )
    return engine.estimate_value(est.offset, est.estimate_deduction, l_v_now)


# The twins keep every event on their own heaps, the grid ticks and the
# hardware rate breakpoints too, which the engine reads off its heap
K_TICK = 2  # a grid tick: it forces a sample and pushes the next tick
K_RATE = 3  # a hardware rate breakpoint: it only forces a sample


class HeapTwin(engine._Simulation):
    """The engine with every event on its heap, as its loop was before it
    read the grid ticks and rate breakpoints off the heap: ``push`` gives
    each event the next seq, and ``push_forced`` pushes the first tick and
    every breakpoint, each tick pushing the next when the twin's loop pops
    it (``t + sample_dt``, the engine's addition chain).  ``forced`` lists
    the seqs the ticks and breakpoints take, which the engine's seqs lack.

    The twins draw the legs of each exchange one scalar at a time, with
    :func:`link_uniform` (:meth:`leg`).  Each link direction a->b is one
    record ``links[(a, b)]``: (base delay, jitter, eps_d, eps_m)."""

    def __init__(self, sc):
        super().__init__(sc)
        self.forced: list[int] = []
        self.links = {}
        for u, w, p in sc.graph.edges:
            for a, b, base in ((u, w, p.fwd_delay), (w, u, p.bwd_delay)):
                self.links[(a, b)] = (base, p.jitter, p.eps_d, p.eps_m)

    def leg(self, kind: str, a: int, b: int, k: int) -> float:
        """Leg ``kind`` of a's exchange with b in a's cycle k: the request's
        delay ("delay"), the reply's delay on b->a ("reply"), each its base
        plus jitter times the draw, or b's processing time ("proc"), p_max
        times the draw.  A delay that reaches d_max is an internal error."""
        u = link_uniform(link_key(self.sc.master_seed, f"{kind}:{a}->{b}"), k)
        if kind == "proc":
            return self.sc.p_max * u
        if kind == "reply":
            a, b = b, a
        base, jitter = self.links[(a, b)][:2]
        d = base + jitter * u
        if d >= self.sc.graph.d_max:
            raise InternalError(f"sampled delay {d!r} reached d_max on {a}->{b}")
        return d

    def push(self, t: float, kind: int, payload) -> None:
        if kind in (K_TICK, K_RATE):
            self.forced.append(self.seq)
        heapq.heappush(self.heap, (t, self.seq, kind, payload))
        self.seq += 1

    def push_forced(self) -> None:
        sc = self.sc
        if sc.sample_dt > 0:
            self.push(sc.sample_dt, K_TICK, None)
        for b in sorted({b for _, starts, _ in sc.hardware for b in starts[1:]}):
            self.push(b, K_RATE, None)


class PerEventLoop(HeapTwin):
    """The engine with one heap entry per node event, the reference twin
    of its grouped entries and of its ticks and rate breakpoints read off
    the heap: the event loop, the wakeup handler and the decisions'
    scheduling as they were before node events travelled in groups.  A
    wakeup entry's payload is (v, k), an evaluation's (v, k) too; the loop
    pops one event at a time and gathers the evaluations due at one
    instant into one batch of (v, k, seq) for the engine's
    ``_on_evaluate``.  The decisions compute their nodes, trigger segments
    and thresholds from the batch and the plan's directions, as they did
    before the engine kept plans.  Each wakeup draws its sends' legs one
    scalar at a time (:meth:`HeapTwin.leg`).  ``keys`` lists the (time,
    seq) of every node event the loop pops, in order; :meth:`node_keys`
    gives them with the forced seqs dropped, as the engine numbers them."""

    def __init__(self, sc):
        super().__init__(sc)
        self.keys: list[tuple[float, int]] = []

    def node_keys(self) -> list[tuple[float, int]]:
        """``keys``, each seq less the forced seqs before it."""
        return [(t, s - bisect_left(self.forced, s)) for t, s in self.keys]

    def _on_wakeup(self, t: float, v: int, k: int) -> None:
        sc = self.sc
        expected = self.table.initial[v] + k * sc.params.cycle_length
        l1, t_eval = self.table.step(v, t, OWN_RATE, 1.0, expected + sc.params.T)
        self.cycle[v] = k
        if sc.horizon_cycles is not None and k >= sc.horizon_cycles:
            self.done.add(v)
            if len(self.done) == sc.graph.n:
                self.end = t
            return
        if abs(l1 - expected) > engine._BOUNDARY_TOL:
            self._abort(f"cycle boundary misaligned at node {v}: local {l1!r} vs {expected!r}")
        ex = self._ex
        for d in range(self._first[v], self._first[v + 1]):
            w = int(self._dst[d])
            ex[engine._ARRIVAL, d] = a = t + self.leg("delay", v, w, k)
            if sc.p_max > 0:
                a += self.leg("proc", v, w, k)
            ex[[engine._EMIT, engine._REPLY, engine._T1], d] = a, a + self.leg("reply", v, w, k), l1
            self._open[d] = True
        self.push(t_eval, engine.K_EVALUATE, (v, k))

    def _decide(self, t: float, batch: list, plan, l_rep: np.ndarray, est: np.ndarray) -> None:
        sc = self.sc
        dirs = plan.dirs
        counts = [self._first[v + 1] - self._first[v] for v, _, _ in batch]
        starts = np.cumsum([0] + counts[:-1]).tolist()
        slow, fast = gcs.trigger_levels(est - l_rep, self._thresholds.take(dirs, axis=0), starts)
        self.oracle.evaluations(t, np.array([v for v, _, _ in batch], dtype=np.intp), dirs, est, slow, fast)
        for (v, k, _), s, f in zip(batch, slow.tolist(), fast.tolist()):
            mode = FAST if sc.gcs_enabled and any(f) and not any(s) else OWN_RATE
            _, wake = self.table.step(v, t, mode, self._factors[mode], self.table.initial[v] + (k + 1) * sc.params.cycle_length)
            self.push(wake, engine.K_WAKEUP, (v, k + 1))

    def run(self) -> engine.RunResult:
        sc = self.sc
        for v, clock in enumerate(self.clocks):
            self.push(clock.invert(self.table.initial[v]), engine.K_WAKEUP, (v, 0))
        self.push_forced()

        heap = self.heap
        while heap and heap[0][0] <= self.end:
            t, seq, kind, payload = heapq.heappop(heap)
            if self.current is not None:
                if t < self.current - engine._TOL:
                    self._abort(f"event time regressed: {t!r} after {self.current!r}")
                if t > self.current:
                    self.oracle.sample(self.current)
            self.current = t
            if kind == engine.K_WAKEUP:
                self.keys.append((t, seq))
                self._on_wakeup(t, *payload)
            elif kind == engine.K_EVALUATE:
                batch = [(*payload, seq)]
                while heap and heap[0][0] == t and heap[0][2] == engine.K_EVALUATE:
                    _, s, _, member = heapq.heappop(heap)
                    batch.append((*member, s))
                self.keys.extend((t, s) for *_, s in batch)
                self._on_evaluate(t, batch)
            elif kind == K_TICK:
                self.push(t + sc.sample_dt, K_TICK, None)

        end = self.end
        self._settle(end, check_timeout=True)
        if self.current is not None:
            self.oracle.sample(self.current)
        if self.current is None or end > self.current:
            self.oracle.sample(end)
        return self.oracle.finish(min(self.cycle))


K_MESSAGE = 4  # (handler name, *args): a message leg as an event of its own


class ThreeEventExchange(HeapTwin):
    """The engine with every leg of an exchange an event of its own, the
    reference twin of its array exchanges and batched evaluations.

    A wakeup of v in cycle k sends one request per neighbour w, drawing
    its delay (:meth:`leg`).  The request's arrival reads the responder's
    stamp t2 and draws its processing time; the reply's emission reads t3
    and draws the reply's delay, each leg of cycle k too; the reply's
    arrival reads t4, checks the round trip against the timeout window
    and keeps the estimate as the requester's view.  Each evaluation runs
    on its own, from the views.  All three legs are ``K_MESSAGE`` events
    that name their handler, and the twin runs its own loop, which
    dispatches them and does not sample an instant that only message legs
    fall on.  The twin hands its records to the engine's oracle, so a run
    of the twin must equal the engine's bit for bit.

    ``pending[v]`` holds only the l_v_t1 of the replies still to arrive,
    so it is empty at an evaluation, and ``evaluated[v]``, the last cycle
    node v evaluated, guards against an evaluation out of order.
    """

    def __init__(self, sc):
        super().__init__(sc)
        n = sc.graph.n
        self.views: list[dict[int, NeighborEstimate]] = [{} for _ in range(n)]
        self.evaluated = [-1] * n
        self.pending: list[dict[int, float]] = [{} for _ in range(n)]
        # the engine's index of each direction, which its reply checks name
        self.direction = {ab: d for d, ab in enumerate(zip(self._src.tolist(), self._dst.tolist()))}

    def _on_wakeup(self, t: float, v: int, k: int) -> None:
        self.views[v] = {}
        clock = self.clocks[v]
        clock.set_mode(t, OWN_RATE)
        self.cycle[v] = k
        sc = self.sc
        if sc.horizon_cycles is not None and k >= sc.horizon_cycles:
            self.done.add(v)
            if len(self.done) == sc.graph.n:
                self.end = t
            return
        l1 = clock.value(t)
        expected = self.table.initial[v] + k * sc.params.cycle_length
        if abs(l1 - expected) > engine._BOUNDARY_TOL:
            self._abort(f"cycle boundary misaligned at node {v}: local {l1!r} vs {expected!r}")
        self.pending[v] = {}
        for w in sc.graph.neighbors(v):
            self.pending[v][w] = l1
            self.push(t + self.leg("delay", v, w, k), K_MESSAGE, ("_on_request_arrival", v, w, l1, k))
        self.push(clock.invert(expected + sc.params.T), engine.K_EVALUATE, [(v, k, self.seq)])

    def _on_wakeups(self, t: float, group: list) -> None:
        """The members of a wakeup entry, each (v, k, seq), one at a time."""
        for v, k, _ in group:
            self._on_wakeup(t, v, k)

    def _settle(self, limit: float, check_timeout: bool) -> None:
        """Every reply up to ``limit`` was an event: nothing to complete
        when the run aborts."""

    def run(self) -> engine.RunResult:
        """The engine's loop with message legs as events of their own.  A
        leg only carries readings, so an instant that only legs fall on is
        no sample; every other event changes a slope or is a grid tick.
        Legs up to the end all ran, so there is nothing to settle."""
        sc = self.sc
        for v, clock in enumerate(self.clocks):
            self.push(clock.invert(self.table.initial[v]), engine.K_WAKEUP, [(v, 0, self.seq)])
        self.push_forced()

        need = False  # an event at `current` can change a slope
        heap = self.heap
        while heap and heap[0][0] <= self.end:
            t, _, kind, payload = heapq.heappop(heap)
            if self.current is not None:
                if t < self.current - engine._TOL:
                    self._abort(f"event time regressed: {t!r} after {self.current!r}")
                if t > self.current and need:
                    self.oracle.sample(self.current)
                    need = False
            self.current = t
            need = need or kind != K_MESSAGE
            if kind == K_MESSAGE:
                getattr(self, payload[0])(t, *payload[1:])
            elif kind == engine.K_WAKEUP:
                self._on_wakeups(t, payload)
            elif kind == engine.K_EVALUATE:
                self._on_evaluate(t, payload)
            elif kind == K_TICK:
                self.push(t + sc.sample_dt, K_TICK, None)

        end = self.end
        if self.current is not None and (need or self.current == end):
            self.oracle.sample(self.current)
        if self.current is None or end > self.current:
            self.oracle.sample(end)
        return self.oracle.finish(min(self.cycle))

    def _on_request_arrival(self, t: float, v: int, w: int, t1: float, k: int) -> None:
        t2 = self.clocks[w].value(t)
        emit = t + self.leg("proc", v, w, k) if self.sc.p_max > 0 else t
        self.push(emit, K_MESSAGE, ("_on_reply_emit", v, w, t1, t2, k))

    def _on_reply_emit(self, t: float, v: int, w: int, t1: float, t2: float, k: int) -> None:
        t3 = self.clocks[w].value(t)
        reply = handle_request(RequestMsg(v, t1), w, t2, t3 - t2)
        self.push(t + self.leg("reply", v, w, k), K_MESSAGE, ("_on_reply_arrival", v, reply))

    def _on_reply_arrival(self, t: float, v: int, reply: ReplyMsg) -> None:
        sc = self.sc
        w = reply.responder
        t4 = self.clocks[v].value(t)
        t1 = self.pending[v].pop(w, None)
        if t1 is None or t1 != reply.l_v_t1_echo:
            self._abort(f"unmatched reply from {w} at node {v}")
        if t4 - t1 >= sc.timeout + engine._TOL:
            self._abort(f"measurement {v}->{w} exceeded the timeout window ({t4 - t1!r} >= {sc.timeout!r})")
        rec = MeasurementRecord(w, t1, reply.l_w_t2, reply.l_w_t3, t4, t)
        eps_d, eps_m = self.links[(v, w)][2:]
        est = compute_estimates(rec, eps_d, eps_m, sc.params.theta, self.cycle[v])
        self.views[v][w] = est
        record = np.array([[t], [est.offset], [est.estimate_deduction], [t4], [self.clocks[w].value(t)]])
        self.oracle.replies(np.array([self.direction[(v, w)]]), record)

    def _on_evaluate(self, t: float, batch: list) -> None:
        for v, k, seq in batch:
            nbrs = self.sc.graph.neighbors(v)
            views = self.views[v]
            if self.cycle[v] != k or self.evaluated[v] == k:
                self._abort(f"evaluation fired out of order at node {v}")
            self.evaluated[v] = k
            if len(views) != len(nbrs):
                missing = sorted(set(nbrs) - set(views))
                self._abort(f"node {v} evaluating cycle {k} with incomplete views (missing {missing})")
            l_v = self.clocks[v].value(t)
            est = [estimate_value(views[w], l_v, cycle=k) for w in nbrs]
            self._decide(t, [(v, k, seq)], self._plan([(v, k, seq)]), np.full(len(nbrs), l_v), np.array(est))


@dataclass(frozen=True)
class Measurement:
    """One completed exchange: the requester's record and estimate, the real
    times of its legs, and the responder's true clock less the requester's
    at the middle of the exchange."""

    requester: int
    responder: int
    cycle: int
    record: MeasurementRecord
    estimate: NeighborEstimate
    sent_real: float
    fwd_delay_actual: float
    processing_real: float
    bwd_delay_actual: float
    true_offset_mid: float


class Recording(ThreeEventExchange):
    """The twin, recording every completed measurement in
    ``measurements``.  The real send, request arrival and emit times of an
    exchange are the times of the handlers that see it: the requester's
    wakeup, the request's arrival and the reply's emission.  The true
    offset is read at the reply, a past instant, which is exact."""

    def __init__(self, sc):
        super().__init__(sc)
        self.measurements: list[Measurement] = []
        self._legs: dict[tuple[int, int], list[float]] = {}  # real times of an exchange in flight

    def _on_wakeup(self, t: float, v: int, k: int) -> None:
        super()._on_wakeup(t, v, k)
        for w in self.pending[v]:  # the requests sent now; none after the last cycle
            self._legs[(v, w)] = [t]

    def _on_request_arrival(self, t: float, v: int, w: int, t1: float, k: int) -> None:
        self._legs[(v, w)].append(t)
        super()._on_request_arrival(t, v, w, t1, k)

    def _on_reply_emit(self, t: float, v: int, w: int, t1: float, t2: float, k: int) -> None:
        self._legs[(v, w)].append(t)
        super()._on_reply_emit(t, v, w, t1, t2, k)

    def _on_reply_arrival(self, t: float, v: int, reply: ReplyMsg) -> None:
        w = reply.responder
        t1 = self.pending[v].get(w)
        super()._on_reply_arrival(t, v, reply)
        sent, arrived, emitted = self._legs.pop((v, w))
        node, peer = self.clocks[v], self.clocks[w]
        rec = MeasurementRecord(w, t1, reply.l_w_t2, reply.l_w_t3, node.value(t), t)
        mid = 0.5 * (sent + t)
        self.measurements.append(Measurement(
            v, w, self.cycle[v], rec, self.views[v][w],
            sent, arrived - sent, emitted - arrived, t - emitted, peer.value(mid) - node.value(mid),
        ))


def recorded_run(sc) -> tuple[engine.RunResult, list[Measurement]]:
    """Run ``sc`` on the twin and return its result and its measurements."""
    sim = Recording(sc)
    return sim.run(), sim.measurements


class PerEventChecks(ThreeEventExchange):
    """The twin, with its ground-truth checks also made one event at a
    time: each clock is read at the event's own time.  The estimate sandwich
    runs at every reply arrival and evaluation, the slow and fast conditions
    at every evaluation, against the levels its trigger fired.  Findings go
    to ``ref_violations`` and ``ref_counters``; the per-chunk ones are
    untouched, so one run gives both."""

    def __init__(self, sc):
        super().__init__(sc)
        self.ref_violations: list[Violation] = []
        self.ref_counters = {"estimate_uses": 0, "sc_instances": 0, "fc_instances": 0}

    def _ref_sandwich(self, t: float, v: int, w: int, est_val: float) -> None:
        self.ref_counters["estimate_uses"] += 1
        err = self.clocks[w].value(t) - est_val
        delta_max = self.sc.kappa[(min(v, w), max(v, w))]
        if err < -engine._TOL or err > delta_max + engine._TOL:
            self.ref_violations.append(Violation(
                t, "estimate_sandwich",
                f"estimate of {w} at {v} off by {err:.3e} (allowed [0, {delta_max:.3e}])",
            ))

    def _on_reply_arrival(self, t: float, v: int, reply: ReplyMsg) -> None:
        super()._on_reply_arrival(t, v, reply)
        w = reply.responder
        t4 = self.clocks[v].value(t)
        self._ref_sandwich(t, v, w, estimate_value(self.views[v][w], t4, cycle=self.cycle[v]))

    def _decide(self, t: float, batch: list, plan, l_rep: np.ndarray, est: np.ndarray) -> None:
        sc = self.sc
        (v, _, _), = batch
        nbrs = sc.graph.neighbors(v)
        vals = {w: self.clocks[w].value(t) for w in nbrs}
        vals[v] = self.clocks[v].value(t)
        for w, e in zip(nbrs, est.tolist()):
            self._ref_sandwich(t, v, w, e)
        super()._decide(t, batch, plan, l_rep, est)
        *_, slow_fired, fast_fired = self.oracle._evals[-1]
        for s in range(1, sc.params.s_max + 1):
            for name, held, fired in (
                ("slow", slow_condition(vals, sc.graph, sc.kappa, v, s), slow_fired),
                ("fast", fast_condition(vals, sc.graph, sc.kappa, v, s), fast_fired),
            ):
                if not held:
                    continue
                self.ref_counters[f"{name[0]}c_instances"] += 1
                if not fired[0, s - 1]:
                    self.ref_violations.append(Violation(
                        t, "condition_without_trigger",
                        f"node {v}: {name} condition at level {s} without {name} trigger",
                    ))


class HardwareClock:
    """Scalar twin of a hardware clock of ``clocks.ClockTable``: its rate
    schedule, ``rates[i]`` from ``starts[i]`` on, with each segment's value
    at its start integrated one segment after the other, and reads and
    inverses that search for their segment every time."""

    def __init__(self, initial_value: float, starts, rates):
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

    def inverse(self, x: float) -> float:
        i = max(bisect_right(self._cum, x) - 1, 0)
        return self.starts[i] + (x - self._cum[i]) / self.rates[i]


def hardware(c: LogicalClock) -> HardwareClock:
    """The twin of the hardware clock of ``c``, over the starts and rates of
    its segments in its table."""
    tb, lo, hi = c.table, c.table.hw_first[c.index], c.table.hw_first[c.index + 1]
    return HardwareClock(tb.initial[c.index], tb.hw_start[lo:hi].tolist(), tb.segments[1, lo:hi].tolist())


def check_lipschitz(value, t1: float, t2: float, theta: float, tol: float = 1e-9) -> bool:
    """True iff the hardware reading ``value(t)`` advanced within
    [dt, theta*dt] over (t1, t2]."""
    if t2 <= t1 or t1 < 0:
        raise ParameterError("need t2 > t1 >= 0")
    dt = t2 - t1
    dh = value(t2) - value(t1)
    return dt - tol <= dh <= theta * dt + tol


def anchors(c: LogicalClock) -> tuple[list, ...]:
    """(times, values, hw_at, factors, modes) of the anchors of ``c``, in
    time order, picked out of its table by owner."""
    tb = c.table
    mine = np.flatnonzero(tb.owner[: tb.size] == c.index)  # table order is time order within a clock
    return tuple(getattr(tb, name)[mine].tolist() for name in ("time", "value", "hw_at", "factor", "mode"))


def value_pair(c: LogicalClock, t: float) -> tuple[float, float]:
    """(logical, hardware) of ``c`` at one instant, evaluating the hardware
    clock once, each piece found by a search, whether or not it is the last."""
    h = hardware(c).value(t)
    times, values, hw_at, _, modes = anchors(c)
    i = bisect_right(times, t) - 1
    dh = h - hw_at[i]
    if modes[i] == OWN_RATE:
        return values[i] + dh, h
    return values[i] + (1.0 + c.mu) * dh, h


def invert(c: LogicalClock, target: float) -> float:
    """Real time at which ``c`` reads ``target``, each piece found by a
    search, whether or not it is the last."""
    _, values, hw_at, factors, _ = anchors(c)
    i = max(bisect_right(values, target) - 1, 0)
    x = hw_at[i] + (target - values[i]) / factors[i]
    return hardware(c).inverse(x)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: Trace, path) -> None:
    """trace.csv written one row, and one formatted value, at a time."""
    n = trace.n
    s_max = trace.s_max
    cols = ["t_real"]
    for i in range(n):
        cols += [f"node_{i}_L", f"node_{i}_H", f"node_{i}_mode"]
    cols += ["local_skew", "global_skew"]
    cols += [f"psi_s{s}" for s in range(1, s_max + 1)]
    cols += ["bound_local", "bound_global"]
    bl = _fmt(trace.bound_local)
    bg = _fmt(trace.bound_global)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(trace)):
            row = [_fmt(trace.times[i])]
            for j in range(n):
                row += [
                    _fmt(trace.logical[i, j]),
                    _fmt(trace.hardware[i, j]),
                    str(int(trace.modes[i, j])),
                ]
            row += [_fmt(trace.local_skew[i]), _fmt(trace.global_skew[i])]
            row += [_fmt(trace.psi_levels[i, s]) for s in range(s_max)]
            row += [bl, bg]
            fh.write(",".join(row) + "\n")


def dijkstra(g, kappa: dict[tuple[int, int], float], src: int) -> list[float]:
    """kappa distances from ``src``, each accumulated as d(src, u) + kappa(u, v)."""
    dist = [float("inf")] * g.n
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = [False] * g.n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for w in g.neighbors(v):
            nd = d + kappa[(min(v, w), max(v, w))]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def dijkstra_matrix(g, kappa: dict[tuple[int, int], float]) -> np.ndarray:
    """All-pairs kappa distances, one Dijkstra per source row."""
    return np.array([dijkstra(g, kappa, src) for src in range(g.n)], dtype=float)


def boot_up_gate(init, dist: np.ndarray) -> list[str]:
    """Initial-synchronisation messages, one per violating pair (v < w), row-major."""
    n = len(init)
    problems = []
    for v in range(n):
        for w in range(v + 1, n):
            if abs(init[v] - init[w]) > dist[v, w] + 1e-12:
                problems.append(
                    f"initial synchronisation violated for pair ({v},{w}): "
                    f"|{init[v]!r} - {init[w]!r}| > {float(dist[v, w])!r}"
                )
    return problems
