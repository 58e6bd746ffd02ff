"""Deterministic discrete-event loop.

Events are totally ordered by (real time, schedule sequence number), and
every random draw comes from a labelled substream of the master seed, so a
run is a pure function of its scenario.  The loop owns all node state,
and each fact has one owner: a node is its logical clock ``clocks[v]``,
its cycle ``cycle[v]`` and its exchanges in flight ``pending[v]`` (it is
measuring exactly when that is non-empty), and a link direction is its
record ``links[(a, b)]``.  Metrics get read-only snapshots.

Event handlers do only what the nodes do: readings, estimates, triggers and
mode changes.  Neither a message nor an exchange is an event of its own:
the requester's wakeup draws the request's delay and the responder's
processing time, and keeps the reply's emission instant with the heap
sequence number an event for it would take; the reply's delay is drawn
off the heap, in the order of the stream it shares with the responder's
requests (see the comment above ``_flush_sample``); and the requester's
evaluation reads the three stamps taken at past instants (w's at the
request's arrival and at the reply's emission, v's at the reply's
arrival).  Every evaluation at one instant goes through one array
evaluation (:func:`gcs.trigger_levels`), since each reads only its node's
clock at that instant and its node's exchanges.

Every event instant is a sample, since every event may change a clock's
slope or is a grid tick, and so is the run's one end instant: the horizon
time, or the wakeup at which the last node reaches the horizon cycle.

Handlers record the instants that need ground truth, and every check
against true clock values runs per chunk, in numpy, when the chunk is
reduced: the skew maxima at the sample instants, the hardware drift
envelope between consecutive samples, the estimate sandwich at each reply
arrival and evaluation, the slow and fast conditions at each evaluation,
and in full mode the trace oracles (level potentials, Corollary 1).  The
leading-node and trailing-node lemmas are identities of the kappa-metric,
so a full-mode run checks instead, once before its first event, that
``sc.dist`` is that metric (``InternalError`` if not).
Reading a clock at a past instant then is exact, as the comment above
``_flush_sample`` argues, so the stamps are those the parties read, and
these checks report what checks made inside the handlers would.  A run that
ends, or aborts with ``RunAborted``, first completes every exchange whose
reply has arrived and then makes every check still buffered.
"""
from __future__ import annotations

import hashlib
import heapq
import logging
import time as _time
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import gcs, metrics
from .clocks import FAST, OWN_RATE, LogicalClock, read_clocks, sample_clocks
from .errors import ConfigError, InternalError, RunAborted
from .gcs import GcsParams
from .topology import NetworkGraph, check_kappa_metric
from .trace import RunSummary, Trace, Violation
from .twoway import compute_estimates, estimate_value

logger = logging.getLogger(__name__)

__all__ = ["seeded_streams", "seeded_stream", "Scenario", "RunResult", "run"]

# Event kinds.  Each payload holds only what its handler reads.
# Each kind either may change a clock's slope (a mode decision or a rate
# breakpoint) or is a grid tick, so every event instant is a sample.
# Messages are no events: every leg of an exchange is drawn off the heap
# (see _send).
K_WAKEUP = 0  # (v, k): node v starts cycle k and sends its requests
K_EVALUATE = 1  # (v, k): node v evaluates its triggers in cycle k
K_TICK = 2
K_RATE = 3  # a hardware rate breakpoint: no handler, it only forces a sample

# the event loop's own tolerance, for time regression and the timeout
# window; the ground-truth checks use the oracle's, metrics._CHECK_TOL
_TOL = 1e-9
# how far a wakeup's logical value may lie from its cycle boundary: the
# wakeup is scheduled at the clock's inverse of the boundary, and that
# inverse and the read back each round off by a few ulps of the clock's
# value, more than _TOL once values pass about 1e7 (an ulp there is 1.9e-9);
# this admits values up to about 1e9
_BOUNDARY_TOL = 1e-6
_INF = float("inf")
# Values per chunk: sample instants and ground-truth checks are buffered,
# and the clocks evaluated, reduced and checked with numpy once a chunk
# holds this many sampled clock values plus checked estimates (32 rows at
# n = 256 when no check is pending).  Full mode also reduces a chunk once its
# rows times n^2, the size of the trace oracles' temporaries when the skew
# ball holds every pair (they are rows times n * K for the K columns inside
# it), reach 256 * _CHUNK_VALUES, which binds only above n = 256.
_CHUNK_VALUES = 8192


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` consecutive hashes of
    ``SeedSequence``, as columns: hash j xors the j-th value of the chain
    h = init, h *= mult (mod 2^32) and multiplies by the next."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain[:-1], dtype=np.uint32)[:, None], np.array(chain[1:], dtype=np.uint32)[:, None]


# SeedSequence's constants, as uint32 arrays (0-d for the scalars) so that
# every product wraps mod 2^32 under both NEP 50 and legacy promotion.  The
# pool's 24 hashes (for six entropy words) run along the INIT_A chain: 0-3
# fill the pool from words 0-3, 4-15 make the four mixing steps, 16-19 and
# 20-23 mix words 4 and 5 into the pool.  The state's 8 (the words of a
# 4 x uint64 state, word i hashing pool word i % 4) run along INIT_B.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 24)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_R = np.array(0x4973F715, dtype=np.uint32)
_SHIFT = np.array(16, dtype=np.uint32)
# the entropy word each hash outside the mixing steps reads, and its constants
_WORD_HASHES = np.array([0, 1, 2, 3, 4, 4, 4, 4, 5, 5, 5, 5])
_WORD_XOR, _WORD_MUL = (np.concatenate([c[:4], c[16:]]) for c in (_POOL_XOR, _POOL_MUL))
# mixing step s: pool word s three times, the other three words, and the
# constants of their hashes of word s, hashes 4 + 3s to 6 + 3s (taking the
# source word once per hash keeps every operand the constants' shape, which
# numpy handles faster than a broadcast when there is one column)
_POOL_STEPS = [
    (
        np.full(3, s),
        np.array([d for d in range(4) if d != s]),
        _POOL_XOR[4 + 3 * s : 7 + 3 * s],
        _POOL_MUL[4 + 3 * s : 7 + 3 * s],
    )
    for s in range(4)
]
_STATE_WORDS = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix of ``values`` with the constants ``xor``
    and ``mul``, broadcast against each other."""
    values = values ^ xor
    values *= mul
    values ^= values >> _SHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of pool words ``x`` with hashed words ``y``,
    both new arrays, computed into ``x``."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> _SHIFT
    return x


def _pools(entropy: np.ndarray, long: list[bool]) -> np.ndarray:
    """The 4-word pools, one column each, that ``SeedSequence.mix_entropy``
    makes of the columns of ``entropy``: six uint32 words where ``long``,
    else its first five.  Its loops run across all columns at once: the
    first four words fill the pool, each pool word is mixed into the other
    three, then each further word into all four, every hash taking the next
    constants of the chain.  The hashes of entropy words come first, in one
    pass, since they do not read the pool."""
    hashed = _hashmix(entropy.take(_WORD_HASHES, 0), _WORD_XOR, _WORD_MUL)
    pool = hashed[:4]
    for src, dst, xor, mul in _POOL_STEPS:
        pool[dst] = _mix(pool.take(dst, 0), _hashmix(pool.take(src, 0), xor, mul))
    pool = _mix(pool, hashed[4:8])
    if any(long):
        long = np.array(long)
        pool[:, long] = _mix(pool[:, long], hashed[8:, long])
    return pool


class _GeneratedState(ISeedSequence):
    """A seed sequence whose state is already generated: ``PCG64`` asks for
    its four uint64 words once, when it is built."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"pre-generated state is 4 x uint64, not {n_words} x {np.dtype(dtype)}")
        return self.state


def seeded_streams(pairs: list[tuple[int, str]]) -> list[np.random.Generator]:
    """One labelled substream per (seed, label) pair, seeded in one batch.

    Each generator draws what ``PCG64(SeedSequence([seed, *w]))`` does, w
    the four little-endian 32-bit words of ``sha256(label)[:16]``: a pair's
    entropy is the same words as uint32 (the seed's little-endian words
    first, one below 2^32, two above), one array pass mixes every pair's
    entropy into the pool its ``SeedSequence`` would hold, and one more
    hashes every pool into its PCG64 state as ``generate_state(4,
    np.uint64)`` would, with the same uint32 wrap-around.  The generators
    cannot ``spawn`` children.
    """
    if not pairs:
        return []
    seeds = [int(seed) & 0xFFFFFFFFFFFFFFFF for seed, _ in pairs]
    entropy = b"".join(
        (seed.to_bytes(4 if seed < 1 << 32 else 8, "little") + hashlib.sha256(label.encode("utf-8")).digest()[:16])
        .ljust(24, b"\0")
        for seed, (_, label) in zip(seeds, pairs)
    )
    entropy = np.frombuffer(entropy, dtype="<u4").reshape(-1, 6).T  # one column per pair
    long = [seed >= 1 << 32 for seed in seeds]
    words = _hashmix(_pools(entropy, long).take(_STATE_WORDS, 0), _STATE_XOR, _STATE_MUL)
    states = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_GeneratedState(state))) for state in states]


def seeded_stream(master_seed: int, purpose_label: str) -> np.random.Generator:
    """One-off labelled substream (no reuse tracking).  Its bit generator's
    ``seed_seq`` holds only the generated state, so the generator cannot
    ``spawn`` children."""
    return seeded_streams([(master_seed, purpose_label)])[0]


@dataclass
class Scenario:
    """Validated runtime scenario; build one via :mod:`gcsim.scenario`.  Only
    ``full`` mode keeps ``dist``: ``skew_only`` needs just its ``diameter``."""

    graph: NetworkGraph
    params: GcsParams
    hardware: list  # each node's HardwareClock
    p_max: float
    sample_dt: float
    master_seed: int
    kappa: dict
    dist: np.ndarray | None  # all-pairs kappa-weighted distances, None in skew_only
    diameter: float  # kappa-weighted diameter: the largest distance, taken once at validation
    timeout: float  # round-trip budget in local time, see twoway.timeout_window
    horizon_cycles: int | None = None
    horizon_time: float | None = None
    gcs_enabled: bool = True
    metrics_mode: str = "full"
    scenario_hash: str = ""

    @property
    def sigma(self) -> float:
        return self.params.sigma

    @property
    def global_bound(self) -> float:
        return metrics.theorem3_bound(self.diameter, self.sigma)

    @property
    def local_bound(self) -> float:
        return metrics.theorem2_bound(max(self.kappa.values()), self.global_bound, self.sigma)


@dataclass
class RunResult:
    trace: Trace
    summary: RunSummary
    violations: list


class _Simulation:
    def __init__(self, sc: Scenario):
        self.sc = sc
        g = sc.graph
        n = g.n
        directions = [(a, b, base, p, sc.kappa[(u, v)])
                      for u, v, p in g.edges for a, b, base in ((u, v, p.fwd_delay), (v, u, p.bwd_delay))]
        kinds = ("delay", "proc") if sc.p_max > 0 else ("delay",)
        labels = [f"{kind}:{a}->{b}" for a, b, *_ in directions for kind in kinds]
        if len(set(labels)) < len(labels):
            reused = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise ConfigError(f"RNG stream label reused: {reused!r}")
        streams = iter(seeded_streams([(sc.master_seed, label) for label in labels]))
        # each direction a->b: (base delay, jitter, the ``random`` of stream
        # delay:a->b, that of proc:a->b or None when p_max is 0, eps_d,
        # eps_m, kappa)
        self.links = {}
        for a, b, base, p, kappa in directions:
            draw = next(streams).random
            proc = next(streams).random if sc.p_max > 0 else None
            self.links[(a, b)] = (base, p.jitter, draw, proc, p.eps_d, p.eps_m, kappa)

        # per node: its clock (whose anchors are its mode timeline), the
        # cycle of its last wakeup, and its exchanges of that cycle until
        # it evaluates, by neighbour in neighbour order: [l_v_t1, request
        # arrival, reply emission, reply arrival, emission seq] with the real
        # times of the three legs (reply arrival inf: its delay is not drawn
        # yet) and the heap sequence number the emission would take as an event
        self.clocks = [LogicalClock(hw, sc.params.mu) for hw in sc.hardware]
        self.cycle = [0] * n
        self.pending: list[dict] = [dict() for _ in range(n)]
        self.done: set[int] = set()

        self.heap: list = []
        self.seq = 0
        self.now: tuple = (-_INF, -1)  # (time, seq) of the event being handled
        self.current: float | None = None
        # the run's last instant: the horizon time, or the wakeup at which
        # the last node reaches the horizon cycle
        self.end = _INF if sc.horizon_time is None else sc.horizon_time

        self.violations: list[Violation] = []
        self.counters = {
            "eval_instants": 0,
            "trigger_evaluations": 0,
            "estimate_uses": 0,
            "measurements": 0,
            "sc_instances": 0,
            "fc_instances": 0,
            "st_instances": 0,
            "ft_instances": 0,
        }

        self.full = sc.metrics_mode == "full"
        if self.full:  # what the leading/trailing-node lemmas rest on, once per run
            check_kappa_metric(g, sc.kappa, sc.dist)
            # each row of dist in ascending order, for the trace oracles' skew balls
            self._by_distance = metrics.distance_order(sc.dist)
        self._nb, self._nb_kappa = metrics.neighbour_table(g, sc.kappa)
        self._own = np.isfinite(self._nb_kappa)  # not a pad: validation rejects an infinite kappa
        self._deg = self._own.sum(axis=1)
        # triggers use the static per-edge error bound as their delta; a pad's is 0
        self._thresholds = gcs.trigger_thresholds(
            self._nb_kappa, np.where(self._own, self._nb_kappa, 0.0), sc.params.s_max
        )
        self._levels = range(1, sc.params.s_max + 1)
        # Ground-truth checks waiting for the next chunk, one entry per
        # evaluation instant: rows (t1, t2, t3, t4, eps_d, eps_m, reply
        # arrival, v, w, kappa) of its completed exchanges and their
        # estimates at the arrivals; (sample row, nodes, their estimates in
        # neighbour order, slow and fast levels fired) of its evaluations.
        # ``_checked`` counts their values.
        self._reply_checks: list[tuple] = []
        self._evals: list[tuple] = []
        self._checked = 0
        self.edges = tuple((u, v) for u, v, _ in g.edges)
        self._eu = np.array([u for u, _ in self.edges])
        self._ev = np.array([v for _, v in self.edges])
        self.buf_t: list[float] = []
        # full mode: (times, L, H, local, global, psi_levels) per chunk, after
        # a zero-row one, which is all a skew_only run keeps
        empty, no_rows = np.zeros(0), np.zeros((0, n))
        self.chunks: list[tuple] = [(empty, no_rows, no_rows, empty, empty, np.zeros((0, sc.params.s_max)))]
        self.edge_max = np.zeros(len(self.edges))
        self.max_global = 0.0
        self.first_exceed: float | None = None
        # carried from chunk to chunk: (t, L, H) of the last reduced sample
        # and, in full mode, the Corollary 1 floors there
        self.last: tuple | None = None
        self.floors: np.ndarray | None = None

    # -- scheduling helpers

    def push(self, t: float, kind: int, payload) -> None:
        heapq.heappush(self.heap, (t, self.seq, kind, payload))
        self.seq += 1

    # -- event handlers

    def _on_wakeup(self, t: float, v: int, k: int) -> None:
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
        expected = clock.hardware.initial_value + k * sc.params.cycle_length
        if abs(l1 - expected) > _BOUNDARY_TOL:
            self._abort(f"cycle boundary misaligned at node {v}: local {l1!r} vs {expected!r}")
        self.pending[v] = {w: self._send(t, v, w, l1) for w in sc.graph.neighbors(v)}
        self.push(clock.invert(expected + sc.params.T), K_EVALUATE, (v, k))

    def _delay(self, a: int, b: int) -> float:
        """A message delay on a->b: its base plus a uniform draw in [0, jitter]."""
        base, jitter, draw = self.links[(a, b)][:3]
        d = base + jitter * draw() if jitter > 0 else base
        if d >= self.sc.graph.d_max:
            raise InternalError(f"sampled delay {d!r} reached d_max on {a}->{b}")
        return d

    def _send(self, t: float, v: int, w: int, l1: float) -> list:
        """v sends its request to w at t, its clock reading l1: draw the
        request's delay and w's processing time, and return the exchange
        with its reply's emission instant and the sequence number an event
        pushed for it would take.  No event is pushed: the reply's delay is
        drawn later, by :meth:`_draw_reply`, in stream order (see the
        comment above ``_flush_sample``).  The stream ``proc:v->w`` serves
        only v's requests to w, so drawing from it now gives the values a
        draw at the arrival would.  ``delay:v->w`` also serves v's reply to
        w's request, so that reply is drawn first if it was emitted before
        this wakeup."""
        back = self.pending[w].get(v)
        if back is not None:
            self._draw_reply(v, w, back, self.now)
        arrival = t + self._delay(v, w)
        proc = self.links[(v, w)][3]
        emit = arrival if proc is None else arrival + self.sc.p_max * proc()
        self.seq += 1
        return [l1, arrival, emit, _INF, self.seq - 1]

    def _draw_reply(self, w: int, v: int, exchange: list, before: tuple | None = None) -> None:
        """Draw the delay of w's reply to v's request ``exchange``, which
        leaves at its emission instant, and record the reply's arrival,
        unless it is drawn already or, with ``before``, a heap key (time,
        seq), its emission's key does not precede ``before``."""
        if exchange[3] == _INF and (before is None or (exchange[2], exchange[4]) < before):
            exchange[3] = exchange[2] + self._delay(w, v)

    def _on_evaluate(self, t: float, batch: list) -> None:
        """The evaluations ``batch``, each (v, k), due at t, in event order.

        Each draws the reply delays of its node's exchanges not drawn yet,
        then completes the exchanges, whose replies must have arrived
        before t (a reply at t itself would have been scheduled after the
        evaluation), and reads only its node's clock at t."""
        done, l_rep = [], []
        for v, k in batch:
            exchanges = self.pending[v]
            if self.cycle[v] != k or not exchanges:
                self._abort(f"evaluation fired out of order at node {v}")
            for w, ex in exchanges.items():
                self._draw_reply(w, v, ex)
            missing = [w for w, ex in exchanges.items() if not ex[3] < t]
            if missing:
                self._abort(f"node {v} evaluating cycle {k} with incomplete views (missing {missing})")
            done += [(v, w, ex) for w, ex in exchanges.items()]
            l_rep += [self.clocks[v].value(t)] * len(exchanges)
        for v, _ in batch:
            self.pending[v] = {}
        offset, deduction = self._complete(done, check_timeout=True)
        l_rep = np.array(l_rep)
        self._decide(t, batch, l_rep, estimate_value(offset, deduction, l_rep))

    def _complete(self, done: list, check_timeout: bool) -> tuple[np.ndarray, np.ndarray]:
        """Complete the exchanges ``done``, each (v, w, exchange), whose
        replies have arrived: read the four stamps at the past instants
        the parties took them, make the estimates, count the measurements
        and buffer the sandwich check at each reply arrival, then end the
        run if a round trip exceeded the timeout window (with
        ``check_timeout``).  Returns the estimates' (offset, deduction).

        The caller drops ``done`` from ``pending`` first, so that the
        abort's own ``_settle`` does not complete them again."""
        sc = self.sc
        clocks, links = self.clocks, self.links
        rows = []
        late = None  # the first reply that exceeded the timeout window
        for v, w, (t1, arrival, emit, reply, _) in done:
            peer = clocks[w]
            t2 = peer.value(arrival)
            t3 = t2 + (peer.value(emit) - t2)  # w's arrival stamp plus its local processing time
            t4 = clocks[v].value(reply)
            if check_timeout and t4 - t1 >= sc.timeout + _TOL and (late is None or reply < late[0]):
                late = (reply, v, w, t4 - t1)
            eps_d, eps_m, kappa = links[(v, w)][4:]
            rows.append((t1, t2, t3, t4, eps_d, eps_m, reply, v, w, kappa))
        data = np.array(rows, dtype=float).reshape(-1, 10)
        t1, t2, t3, t4, eps_d, eps_m = data.T[:6]
        _, offset, deduction = compute_estimates(t1, t2, t3, t4, eps_d, eps_m, sc.params.theta)
        self.counters["measurements"] += len(rows)
        self._reply_checks.append((data, estimate_value(offset, deduction, t4)))
        self._checked += 5 * len(rows)
        if late is not None:
            _, v, w, round_trip = late
            self._abort(f"measurement {v}->{w} exceeded the timeout window ({round_trip!r} >= {sc.timeout!r})")
        return offset, deduction

    def _settle(self, limit: float, check_timeout: bool) -> None:
        """At the end of the run: draw the replies emitted before ``now``
        (the aborting event, or every event up to the limit), then complete the exchanges not yet
        evaluated whose replies arrived at or before ``limit``, as reply
        events up to it would have, and drop them."""
        for v, exchanges in enumerate(self.pending):
            for w, ex in exchanges.items():
                self._draw_reply(w, v, ex, self.now)
        done = [
            (v, w, ex) for v, exchanges in enumerate(self.pending) for w, ex in exchanges.items() if ex[3] <= limit
        ]
        for v, w, _ in done:
            del self.pending[v][w]
        if done:
            self._complete(done, check_timeout)

    def _decide(self, t: float, batch: list, l_rep: np.ndarray, est: np.ndarray) -> None:
        """Triggers and mode decisions of the evaluations ``batch`` at t.
        ``l_rep`` is each node's own value at t, repeated once per
        neighbour, and ``est`` its estimates, in neighbour order."""
        sc = self.sc
        vs = np.array([v for v, _ in batch], dtype=np.intp)
        own = self._own[vs]
        lead = np.zeros(own.shape)  # a pad's lead is 0
        lead[own] = est - l_rep
        slow, fast = gcs.trigger_levels(lead, self._thresholds[vs])
        # t is a sample instant, flushed at row len(buf_t) of this chunk
        self._evals.append((len(self.buf_t), vs, est, slow, fast))
        self._checked += 4 * len(vs) + len(est)
        to_fast = [sc.gcs_enabled and any(f) and not any(s) for s, f in zip(slow.tolist(), fast.tolist())]
        for (v, k), speed_up in zip(batch, to_fast):
            clock = self.clocks[v]
            clock.set_mode(t, FAST if speed_up else OWN_RATE)
            base = clock.hardware.initial_value
            self.push(clock.invert(base + (k + 1) * sc.params.cycle_length), K_WAKEUP, (v, k + 1))

    # -- sampling and the ground-truth checks

    # Sampling, the checks and the exchanges record only instants, and the
    # clocks are read later: samples and checks when their chunk is reduced,
    # the three stamps of an exchange at its requester's evaluation.  Such a
    # deferred read of a past instant x returns what a read at x would have,
    # bit for bit.  set_mode only appends an anchor at the time of the event
    # that calls it, so every anchor before x is in place before any event
    # at x runs, and both reads see it.  An anchor after x is never selected
    # for x.  One at x may be selected by the deferred read alone, but it
    # stores the old segment's value and hardware reading at x, so it reads
    # x as value + factor * 0.0: the old segment's value.
    # Every instant is read at or after it: samples are flushed after every
    # event at their time, evaluations are samples, a reply arrives before
    # its requester evaluates, and the run's end completes only exchanges
    # whose replies arrived by then.
    #
    # Reply delays are drawn off the heap as well, each where an event for
    # its emission would have drawn it.  The stream delay:w->v serves w's
    # requests to v, drawn at w's wakeups, and w's replies to v's requests.
    # A reply's (emit, seq) is where its event would sit in the heap's
    # (time, seq) order, since its send took the next seq, and v has one
    # exchange with w until it evaluates, so a stream has at most one reply
    # undrawn.  That reply is drawn at the first of:
    # - w's next request to v, if (emit, seq) precedes that wakeup's
    #   (t, seq); an earlier wakeup of w after the emission drew it already;
    # - v's evaluation, before its incomplete-views check.  No wakeup of w
    #   came between the emission and now, or it would have drawn the
    #   reply, so no draw on the stream did.  A reply emitted after the
    #   evaluation also arrives after it, so the check finds it missing
    #   whenever drawn, and ends the run;
    # - the run's end, for emissions up to its limit (every event up to it
    #   ran), or an abort, for emissions before the event being handled.
    # So each stream draws in the heap's (time, seq) order, as it did when
    # the emission was an event, and every draw gets the same value.
    # Without emission events, a batch of evaluations at one instant is no
    # longer split by an emission at that instant; that changes nothing,
    # since each member reads only its own node's clock at the instant.

    def _flush_sample(self, t: float) -> None:
        self.buf_t.append(t)
        rows, n = len(self.buf_t), len(self.clocks)
        if rows * n + self._checked >= _CHUNK_VALUES or (self.full and rows * n * n >= 256 * _CHUNK_VALUES):
            self._reduce_chunk()

    def _reduce_chunk(self) -> None:
        """Fold the buffered samples into the skew maxima, full mode keeping
        them and running the trace oracles on them, make the buffered checks,
        then check the drift envelope, which may abort the run."""
        times = np.asarray(self.buf_t)
        self.buf_t = []
        if not len(times):
            self._check_chunk(times, None)
            return
        L, H = sample_clocks(self.clocks, times)
        prev, self.last = self.last, (times[-1], L[-1], H[-1])
        edge_gaps = np.abs(L[:, self._eu] - L[:, self._ev])
        local = edge_gaps.max(axis=1)
        glob = L.max(axis=1) - L.min(axis=1)
        np.maximum(self.edge_max, edge_gaps.max(axis=0), out=self.edge_max)
        self.max_global = max(self.max_global, float(glob.max()))
        if self.first_exceed is None:
            # exceeding means by more than the tolerance of `global_satisfied`
            level = self.sc.global_bound + metrics._CHECK_TOL
            exceed = np.nonzero(glob > level)[0]
            if len(exceed):
                k = exceed[0]
                if k:
                    left = times[k - 1], L[k - 1]
                else:  # the piece starts at the previous chunk's last row
                    left = prev[:2] if prev else (times[0], L[0])
                self.first_exceed = metrics.global_bound_crossing(*left, times[k], L[k], level)
        if self.full:
            sc = self.sc
            psi, viol, self.floors = metrics.trace_oracles(
                times, L, sc.dist, sc.params.s_max, sc.params.theta, None if prev is None else prev[:2], self.floors,
                self._by_distance,
            )
            self.violations.extend(viol)
            self.chunks.append((times, L, H, local, glob, psi))
        self._check_chunk(times, L)
        self._check_drift(prev, times, H)

    def _check_chunk(self, times: np.ndarray, L: np.ndarray | None) -> None:
        """The ground-truth checks buffered since the last chunk.

        - The estimate sandwich: every estimate a node uses, at a reply
          arrival and at an evaluation, lies in [L_w - kappa, L_w] (with
          tolerance) for the true value L_w of the neighbour at that instant.
        - The slow and fast conditions at each evaluation hold only at
          levels where the matching trigger fired.

        ``times`` and ``L`` are the chunk's sample instants and logical
        values (L is None for an empty chunk, which has no evaluation).
        """
        replies, evals = self._reply_checks, self._evals
        self._reply_checks, self._evals, self._checked = [], [], 0
        data = np.concatenate([np.empty((0, 10))] + [d for d, _ in replies])
        est = np.concatenate([np.empty(0)] + [e for _, e in replies])
        by_responder = np.argsort(data[:, 8], kind="stable")  # read_clocks takes the clocks in ascending order
        data, est = data[by_responder], est[by_responder]
        t, v, w = data[:, 6], data[:, 7].astype(np.intp), data[:, 8].astype(np.intp)
        # the responders' true values at the reply arrivals, past instants
        self._check_sandwich(t, v, w, read_clocks(self.clocks, t, w)[0], est, data[:, 9])
        if evals:
            rows = np.concatenate([np.full(len(vs), r) for r, vs, *_ in evals])
            v, est, slow, fast = (np.concatenate(a) for a in list(zip(*evals))[1:])
            self._check_evaluations(times, L, rows, v, est, slow, fast)

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
        if (dH < dt - metrics._CHECK_TOL).any() or (dH > self.sc.params.theta * dt + metrics._CHECK_TOL).any():
            self._abort("hardware clock violated its drift envelope")

    def _check_evaluations(self, times, L, rows, v, est, slow_fired, fast_fired) -> None:
        """The sandwich and the conditions at each evaluation: node ``v[i]``
        at sample row ``rows[i]`` held the estimates of ``est`` (all rows',
        in neighbour order) and its triggers fired at the levels of
        ``slow_fired[i]`` and ``fast_fired[i]``.  An evaluation is a sample,
        so its true values are a row of L.  Also counts the evaluations and
        the levels fired, and reports slow and fast triggers firing
        together."""
        nb, kappa, deg, own = self._nb[v], self._nb_kappa[v], self._deg[v], self._own[v]
        L_nb = L[rows[:, None], nb]
        t = times[rows]
        self.counters["eval_instants"] += len(v)
        self.counters["trigger_evaluations"] += 2 * self.sc.params.s_max * len(v)
        self.counters["st_instances"] += int(np.count_nonzero(slow_fired))
        self.counters["ft_instances"] += int(np.count_nonzero(fast_fired))
        for r in np.flatnonzero(slow_fired.any(axis=1) & fast_fired.any(axis=1)).tolist():
            st, ft = (tuple((np.flatnonzero(f[r]) + 1).tolist()) for f in (slow_fired, fast_fired))
            self.violations.append(
                Violation(
                    time=float(t[r]),
                    kind="trigger_coexistence",
                    detail=f"node {int(v[r])} satisfies slow {st} and fast {ft} triggers together",
                )
            )
        self._check_sandwich(np.repeat(t, deg), np.repeat(v, deg), nb[own], L_nb[own], est, kappa[own])
        slow, fast = metrics.level_conditions(L[rows, v], L_nb, kappa, self._levels)
        self.counters["sc_instances"] += int(np.count_nonzero(slow))
        self.counters["fc_instances"] += int(np.count_nonzero(fast))
        for name, held, fired in (("slow", slow, slow_fired), ("fast", fast, fast_fired)):
            for r, j in zip(*(a.tolist() for a in np.nonzero(held & ~fired))):
                self.violations.append(
                    Violation(
                        time=float(t[r]),
                        kind="condition_without_trigger",
                        detail=(
                            f"node {int(v[r])}: {name} condition at level {j + 1} "
                            f"without {name} trigger"
                        ),
                    )
                )

    def _check_sandwich(self, t, v, w, true, est, delta) -> None:
        """Estimates ``est`` of w held at v, against w's true values."""
        err = true - est
        self.counters["estimate_uses"] += len(err)
        for i in np.flatnonzero((err < -metrics._CHECK_TOL) | (err > delta + metrics._CHECK_TOL)).tolist():
            self.violations.append(
                Violation(
                    time=float(t[i]),
                    kind="estimate_sandwich",
                    detail=(
                        f"estimate of {int(w[i])} at {int(v[i])} off by {float(err[i]):.3e} "
                        f"(allowed [0, {float(delta[i]):.3e}])"
                    ),
                )
            )

    def _abort(self, message: str) -> None:
        """Complete every exchange whose reply has arrived, make every
        buffered check, the trace oracles included, then end the run with
        RunAborted.

        The violations are sorted as ``_finish`` sorts them, so the report of
        an aborted run does not depend on where the chunks ended.
        """
        self._settle(self.current, check_timeout=False)
        if self._evals and self._evals[-1][0] == len(self.buf_t):
            self.buf_t.append(self.current)  # the evaluations' sample is not flushed yet
        self._reduce_chunk()
        self.violations.sort(key=_violation_key)
        raise RunAborted(message, self.violations)

    # -- main loop

    def run(self) -> RunResult:
        started = _time.perf_counter()
        sc = self.sc
        for v, clock in enumerate(self.clocks):
            self.push(clock.invert(clock.hardware.initial_value), K_WAKEUP, (v, 0))
        if sc.sample_dt > 0:
            self.push(sc.sample_dt, K_TICK, None)
        # every clock is linear between its rate breakpoints and mode changes;
        # sampling both makes the recorded extrema of any clock difference exact
        for b in sorted({b for c in self.clocks for b in c.hardware.starts[1:]}):
            self.push(b, K_RATE, None)

        heap = self.heap
        while heap and heap[0][0] <= self.end:
            t, seq, kind, payload = heapq.heappop(heap)
            self.now = (t, seq)
            if self.current is not None:
                if t < self.current - _TOL:
                    self._abort(f"event time regressed: {t!r} after {self.current!r}")
                if t > self.current:
                    self._flush_sample(self.current)
            self.current = t
            if kind == K_WAKEUP:
                self._on_wakeup(t, *payload)
            elif kind == K_EVALUATE:
                batch = [payload]
                while heap and heap[0][0] == t and heap[0][2] == K_EVALUATE:
                    batch.append(heapq.heappop(heap)[3])
                self._on_evaluate(t, batch)
            elif kind == K_TICK:
                self.push(t + sc.sample_dt, K_TICK, None)

        end = self.end
        self.now = (end, _INF)  # every event up to the end has run
        self._settle(end, check_timeout=True)
        if self.current is not None:
            self._flush_sample(self.current)
        if self.current is None or end > self.current:
            self._flush_sample(end)

        result = self._finish()
        result.summary.wall_time_s = _time.perf_counter() - started
        return result

    def _finish(self) -> RunResult:
        sc = self.sc
        n = sc.graph.n
        edges = self.edges
        if self.buf_t or self._reply_checks:
            self._reduce_chunk()
        times, L, H, local, glob, psi_levels = (np.concatenate(parts) for parts in zip(*self.chunks))
        self.chunks = []
        # each clock's anchors are its node's mode timeline
        modes = np.empty((len(times), n), dtype=np.int8)
        for v, c in enumerate(self.clocks):
            ch_t, ch_m = zip(*c.mode_timeline)
            modes[:, v] = np.array(ch_m, dtype=np.int8)[np.searchsorted(ch_t, times, side="right") - 1]
        trace = Trace(
            times=times, logical=L, hardware=H, modes=modes, edges=edges, local_skew=local, global_skew=glob,
            psi_levels=psi_levels, bound_local=sc.local_bound, bound_global=sc.global_bound,
        )

        report = metrics.build_bound_report(
            sc.kappa, sc.sigma, sc.local_bound, sc.global_bound, float(self.edge_max.max()), self.max_global,
            {e: float(m) for e, m in zip(edges, self.edge_max)},
        )
        for side in ("local", "global"):
            if not report[f"{side}_satisfied"]:
                observed, bound = report[f"max_observed_{side}"], report[f"{side}_bound"]
                self.violations.append(
                    Violation(time=0.0, kind=f"bound_{side}", detail=f"max {side} skew {observed!r} exceeds {bound!r}")
                )

        self.violations.sort(key=_violation_key)
        summary = RunSummary(
            scenario_hash=sc.scenario_hash,
            seed=sc.master_seed,
            cycles_completed=min(self.cycle),
            bound_report=report,
            violation_count=len(self.violations),
            counters=dict(self.counters),
            mode_timelines={str(v): [[t, m] for t, m in c.mode_timeline] for v, c in enumerate(self.clocks)},
            first_global_bound_exceed_time=self.first_exceed,
        )
        return RunResult(trace=trace, summary=summary, violations=self.violations)


def _violation_key(v: Violation) -> tuple:
    return (v.time, v.kind, v.detail)


def run(sc: Scenario) -> RunResult:
    """Execute a validated scenario; deterministic in (scenario, seed)."""
    logger.info(
        "run: n=%d seed=%d horizon=%s", sc.graph.n, sc.master_seed,
        sc.horizon_cycles if sc.horizon_cycles is not None else sc.horizon_time,
    )
    return _Simulation(sc).run()
