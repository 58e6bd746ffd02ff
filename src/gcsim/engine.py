"""Deterministic discrete-event loop.

Events are totally ordered by (real time, schedule sequence number), and
every random draw comes from a labelled substream of the master seed, so a
run is a pure function of its scenario.  The loop owns all node state,
and each fact has one owner: a node is its logical clock ``clocks[v]``, a
view of the run's one anchor table ``table``, and its cycle ``cycle[v]``;
a link direction d, a->b, is a column of arrays: its parameters, its
streams and its exchange in flight (``_ex[:, d]``, open from a's wakeup
to a's evaluation, so a is measuring exactly when its directions are
open).  Metrics get read-only snapshots.

Event handlers do only what the nodes do: readings, estimates, triggers and
mode changes.  Neither a message nor an exchange is an event of its own:
the requester's wakeup draws the request's delay and the responder's
processing time, one scalar send per neighbour, and keeps the reply's
emission instant with the heap sequence number an event for it would
take; the reply's delay is drawn off the heap, in the order of the stream
it shares with the responder's requests (see the comment above
``_flush_sample``); and the requester's evaluation reads the three stamps
taken at past instants (w's at the request's arrival and at the reply's
emission, v's at the reply's arrival).  The evaluations at one instant are
one array pass: it draws their reply delays, checks their views, reads
every stamp and each node's own value in one :func:`clocks.read_clocks`
call, and evaluates the triggers in one :func:`gcs.trigger_levels` call,
since each evaluation reads only its node's clock at that instant and its
node's exchanges.  Every link stream draws its values ``_BLOCK`` at a time
into one table, so a draw is a table read.

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
from itertools import accumulate

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import gcs, metrics
from .clocks import FAST, OWN_RATE, ClockTable, LogicalClock, read_clocks, sample_clocks
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
# (see _on_wakeup and the comment above _flush_sample).
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
# Draws per row of the block table: each link stream's next values, drawn
# with one Generator.random call
_BLOCK = 16
# The rows of the engine's exchange records, one column per link direction
# (see _Simulation.__init__)
_ARRIVAL, _EMIT, _REPLY, _EVAL, _T1, _EPS_D, _EPS_M = range(7)
# the instants an exchange's completion reads, and whose clock reads each:
# the responder's at the request's arrival and the reply's emission (t2,
# t3), the requester's at the reply's arrival (t4), the responder's there
# (the true value its estimate is checked against), and at an evaluation
# the requester's at it
_READ_ROWS = np.array([_ARRIVAL, _EMIT, _REPLY, _REPLY, _EVAL])


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
        # The link directions a->b, in (a, b) order (NetworkGraph.directions),
        # so node v's are _first[v] to _first[v + 1], in neighbour order.
        # Direction d draws its delays from stream d, delay:a->b, and, when
        # p_max > 0, the responder's processing times from stream D + d,
        # proc:a->b.
        src, dst, edge, first = g.directions
        D = len(src)
        pairs = list(zip(src.tolist(), dst.tolist()))
        links = [g.edges[e][2] for e in edge.tolist()]
        base = [p.fwd_delay if a < b else p.bwd_delay for (a, b), p in zip(pairs, links)]
        kinds = ("delay", "proc") if sc.p_max > 0 else ("delay",)
        labels = [f"{kind}:{a}->{b}" for kind in kinds for a, b in pairs]
        if len(set(labels)) < len(labels):
            reused = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise ConfigError(f"RNG stream label reused: {reused!r}")
        self._streams = seeded_streams([(sc.master_seed, label) for label in labels])
        # each stream's next values, drawn _BLOCK at a time (see _refill):
        # a delay stream's are delays, base + jitter * u, a proc stream's
        # processing times, p_max * u, all finite.  Each row ends in an inf,
        # which a draw finds once the row is read out; _next is the flat
        # index of each stream's next value, at first its inf
        self._blocks = np.full((len(labels), _BLOCK + 1), _INF)
        self._flat = self._blocks.reshape(-1)
        self._next = np.arange(1, len(labels) + 1) * (_BLOCK + 1) - 1
        self._proc = D if sc.p_max > 0 else 0  # the proc streams' offset, 0 without them
        self._scale = np.array([p.jitter for p in links] + [sc.p_max] * (len(labels) - D))
        self._base = np.array(base + [0.0] * (len(labels) - D))
        self._src, self._dst = src, dst
        # b->a, whose delay stream also carries b's replies to a's requests
        self._rev = np.searchsorted(src * n + dst, dst * n + src)
        self._deg = np.diff(first)
        self._first = first.tolist()
        self._out = [np.arange(a, b) for a, b in zip(self._first, self._first[1:])]
        self._kappa = np.array([sc.kappa[(u, v)] for u, v, _ in g.edges])[edge]
        # Each direction's exchange in flight, from its requester's wakeup to
        # its evaluation (the requester is measuring exactly when its
        # directions are open), is one column of _ex, whose rows are: the
        # real times of the request's arrival, the reply's emission, the
        # reply's arrival (inf until its delay is drawn) and the requester's
        # evaluation; the requester's reading at the send; and the link's
        # eps_d and eps_m.  _eseq holds the heap sequence number the
        # emission would take as an event.  The rows of _readers name whose
        # clock reads each instant of _READ_ROWS.
        self._open = np.zeros(D, dtype=bool)
        self._ex = np.zeros((7, D))
        self._ex[_EPS_D] = [p.eps_d for p in links]
        self._ex[_EPS_M] = [p.eps_m for p in links]
        self._eseq = np.zeros(D, dtype=np.intp)
        self._readers = np.stack((self._dst, self._dst, self._src, self._dst, self._src))
        # the wakeups' scalar reads and writes go through memoryviews, as
        # Python numbers
        self._ex_mv = [memoryview(row) for row in self._ex]
        self._flat_mv, self._open_mv, self._eseq_mv, self._next_mv, self._rev_mv = map(
            memoryview, (self._flat, self._open, self._eseq, self._next, self._rev))

        # per node: its clock, in one anchor table whose anchors are the
        # nodes' mode timelines, and the cycle of its last wakeup
        self.table = ClockTable(sc.hardware)
        self.clocks = [LogicalClock(hw, sc.params.mu, self.table, v) for v, hw in enumerate(sc.hardware)]
        self.cycle = [0] * n
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
        # triggers use the static per-edge error bound as their delta
        self._thresholds = gcs.trigger_thresholds(self._kappa, self._kappa, sc.params.s_max)
        self._levels = range(1, sc.params.s_max + 1)
        # Ground-truth checks waiting for the next chunk, one entry per
        # evaluation instant: (directions, a (5, m) record of the reply
        # arrivals, offsets, deductions, t4 stamps and the responders' true
        # values at the arrivals) of its m completed exchanges, whose
        # estimates at the arrivals the chunk makes; (sample row, nodes,
        # their directions, the estimates across them, slow and fast levels
        # fired) of its evaluations.  ``_checked`` counts their values.
        self._reply_checks: list[tuple] = []
        self._evals: list[tuple] = []
        self._checked = 0
        self.edges = tuple((u, v) for u, v, _ in g.edges)
        self._eu = np.array([u for u, _ in self.edges])
        self._ev = np.array([v for _, v in self.edges])
        self.buf_t: list[float] = []
        # full mode: (times, L, H, modes, local, global, psi_levels) per
        # chunk, after a zero-row one, which is all a skew_only run keeps
        empty, no_rows = np.zeros(0), np.zeros((0, n))
        self.chunks: list[tuple] = [
            (empty, no_rows, no_rows, np.zeros((0, n), dtype=np.int8), empty, empty, np.zeros((0, sc.params.s_max)))
        ]
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
        """Node v starts cycle k at t: it sends its requests, one per
        neighbour w in neighbour order, its clock reading l1.  Each send
        draws the request's delay and w's processing time, and keeps the
        reply's emission instant with the heap sequence number an event for
        it would take; no event is pushed.  The stream proc:v->w serves only
        v's requests to w, so drawing from it now gives the values a draw at
        the arrival would.  delay:v->w also serves v's reply to w's request,
        so that reply is drawn first if it was emitted before this wakeup
        (see the comment above ``_flush_sample``)."""
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
        t_eval = clock.invert(expected + sc.params.T)
        arrival, emit, reply, evaluate, t1 = self._ex_mv[:5]
        eseq, is_open = self._eseq_mv, self._open_mv
        draw, rev, now, seq, proc = self._draw, self._rev_mv, self.now, self.seq, self._proc
        for d in range(self._first[v], self._first[v + 1]):
            r = rev[d]
            if reply[r] == _INF and is_open[r] and (emit[r], eseq[r]) < now:
                reply[r] = emit[r] + draw(d)
            arrival[d] = a = t + draw(d)
            emit[d] = a + draw(proc + d) if proc else a
            reply[d], evaluate[d], t1[d], eseq[d], is_open[d] = _INF, t_eval, l1, seq, True
            seq += 1
        self.seq = seq
        self.push(t_eval, K_EVALUATE, (v, k))

    def _refill(self, s: int) -> None:
        """Draw stream s's next _BLOCK values into its row of the block
        table, as delays or processing times (see ``_blocks``), and point
        ``_next`` at the first.  Each equals the scalar ``base + jitter *
        u`` or ``p_max * u`` bit for bit, since numpy repeats the operations
        elementwise.  A delay that reaches d_max is an internal error."""
        row = self._blocks[s, :_BLOCK]
        self._streams[s].random(out=row)
        row *= self._scale[s]
        row += self._base[s]
        if s < len(self._src) and row.max() >= self.sc.graph.d_max:
            d = float(row[row >= self.sc.graph.d_max][0])
            raise InternalError(f"sampled delay {d!r} reached d_max on {self._src[s]}->{self._dst[s]}")
        self._next_mv[s] = s * (_BLOCK + 1)

    def _draw(self, s: int) -> float:
        """The next value of stream s."""
        i = self._next_mv[s]
        if self._flat_mv[i] == _INF:
            self._refill(s)
            i = self._next_mv[s]
        self._next_mv[s] = i + 1
        return self._flat_mv[i]

    def _draws(self, s: np.ndarray) -> np.ndarray:
        """The next value of each of the distinct streams s."""
        i = self._next[s]
        values = self._flat[i]
        out = values == _INF
        if np.count_nonzero(out):
            for k in s[out].tolist():
                self._refill(k)
            i = self._next[s]
            values = self._flat[i]
        self._next[s] = i + 1
        return values

    def _draw_replies(self, dirs: np.ndarray, ex: np.ndarray, before: tuple | None = None) -> None:
        """Draw the delays of the replies to the requests on the directions
        ``dirs`` not drawn yet, each on the stream of the reverse direction,
        and record their arrivals in ``ex``, the directions' records as
        gathered from ``_ex``; with ``before``, a heap key (time, seq), only
        those of replies whose emission's key precedes it.  The caller writes
        them back to ``_ex`` before anything that may draw again: an abort's
        ``_settle`` would."""
        emit, reply = ex[_EMIT], ex[_REPLY]
        undrawn = reply == _INF
        if before is not None:
            undrawn &= (emit < before[0]) | ((emit == before[0]) & (self._eseq[dirs] < before[1]))
        at = undrawn.nonzero()[0]
        if at.size:
            reply[at] = emit[at] + self._draws(self._rev[dirs[at]])

    def _on_evaluate(self, t: float, batch: list) -> None:
        """The evaluations ``batch``, each (v, k), due at t, in event order.

        Each draws the reply delays of its node's exchanges not drawn yet,
        then completes the exchanges, whose replies must have arrived
        before t (a reply at t itself would have been scheduled after the
        evaluation), and reads only its node's clock at t."""
        first, is_open = self._first, self._open_mv
        for v, k in batch:
            if self.cycle[v] != k or first[v] == first[v + 1] or not is_open[first[v]]:
                self._abort(f"evaluation fired out of order at node {v}")
        dirs = np.concatenate([self._out[v] for v, _ in batch])
        ex = self._ex.take(dirs, axis=1)
        self._draw_replies(dirs, ex)
        missing = ex[_REPLY] >= t
        if np.count_nonzero(missing):
            self._ex[_REPLY][dirs] = ex[_REPLY]
            late = dirs[missing]
            v = int(self._src[late[0]])
            ws = self._dst[late[self._src[late] == v]].tolist()
            self._abort(f"node {v} evaluating cycle {self.cycle[v]} with incomplete views (missing {ws})")
        self._open[dirs] = False
        offset, deduction, l_rep = self._complete(dirs, ex, check_timeout=True, own_values=True)
        self._decide(t, batch, dirs, l_rep, estimate_value(offset, deduction, l_rep))

    def _complete(self, dirs: np.ndarray, ex: np.ndarray, check_timeout: bool, own_values: bool = False) -> tuple:
        """Complete the exchanges on the directions ``dirs``, whose replies
        have arrived and whose records are ``ex``: read the four stamps at
        the past instants the parties took them, make the estimates, count
        the measurements and buffer the sandwich check at each reply
        arrival, then end the run if a round trip exceeded the timeout
        window (with ``check_timeout``).  Reads the instants of _READ_ROWS,
        the last, the evaluation, only with ``own_values``, in one
        :func:`read_clocks` call, and returns the estimates' (offset,
        deduction) and, with ``own_values``, each requester's value at its
        evaluation.

        The caller closes ``dirs`` first, so that the abort's own
        ``_settle`` does not complete them again."""
        m, reads = len(dirs), len(_READ_ROWS) - (not own_values)
        times = ex.take(_READ_ROWS[:reads], axis=0).ravel()
        L = read_clocks(self.table, times, self._readers[:reads].take(dirs, axis=1).ravel())[0]
        t1, t2, t4 = ex[_T1], L[:m], L[2 * m : 3 * m]
        t3 = t2 + (L[m : 2 * m] - t2)  # w's arrival stamp plus its local processing time
        sc = self.sc
        _, offset, deduction = compute_estimates(t1, t2, t3, t4, ex[_EPS_D], ex[_EPS_M], sc.params.theta)
        reply = ex[_REPLY]
        self.counters["measurements"] += m
        # L[2m:4m] is t4 and then the true values
        self._reply_checks.append((dirs, np.concatenate((reply, offset, deduction, L[2 * m : 4 * m])).reshape(5, m)))
        self._checked += 5 * m
        if check_timeout:
            over = t4 - t1 >= sc.timeout + _TOL
            if np.count_nonzero(over):
                i = np.flatnonzero(over)[np.argmin(reply[over])]  # the first reply that exceeded the window
                v, w, round_trip = self._src[dirs[i]], self._dst[dirs[i]], float(t4[i] - t1[i])
                self._abort(f"measurement {v}->{w} exceeded the timeout window ({round_trip!r} >= {sc.timeout!r})")
        return offset, deduction, L[4 * m :]

    def _settle(self, limit: float, check_timeout: bool) -> None:
        """At the end of the run: draw the replies emitted before ``now``
        (the aborting event, or every event up to the limit), then complete
        the exchanges not yet evaluated whose replies arrived at or before
        ``limit``, as reply events up to it would have, and close them."""
        dirs = np.flatnonzero(self._open)
        ex = self._ex.take(dirs, axis=1)
        self._draw_replies(dirs, ex, self.now)
        self._ex[_REPLY][dirs] = ex[_REPLY]  # a timeout abort settles again
        done = ex[_REPLY] <= limit
        self._open[dirs[done]] = False
        if np.count_nonzero(done):
            self._complete(dirs[done], ex[:, done], check_timeout)

    def _decide(self, t: float, batch: list, dirs: np.ndarray, l_rep: np.ndarray, est: np.ndarray) -> None:
        """Triggers and mode decisions of the evaluations ``batch`` at t,
        over their nodes' directions ``dirs``, in batch order.  ``l_rep`` is
        each node's own value at t, repeated once per direction, and ``est``
        its estimates across them."""
        sc = self.sc
        vs = np.array([v for v, _ in batch], dtype=np.intp)
        first = self._first
        starts = list(accumulate([first[v + 1] - first[v] for v, _ in batch[:-1]], initial=0))
        slow, fast = gcs.trigger_levels(est - l_rep, self._thresholds.take(dirs, axis=0), starts)
        # t is a sample instant, flushed at row len(buf_t) of this chunk
        self._evals.append((len(self.buf_t), vs, dirs, est, slow, fast))
        self._checked += 4 * len(vs) + len(est)
        to_fast = [sc.gcs_enabled and any(f) and not any(s) for s, f in zip(slow.tolist(), fast.tolist())]
        for (v, k), speed_up in zip(batch, to_fast):
            clock = self.clocks[v]
            clock.set_mode(t, FAST if speed_up else OWN_RATE)
            base = clock.hardware.initial_value
            self.push(clock.invert(base + (k + 1) * sc.params.cycle_length), K_WAKEUP, (v, k + 1))

    # -- sampling and the ground-truth checks

    # Sampling, the checks and the exchanges record only instants, and the
    # clocks are read later, from the anchor table: samples when their chunk
    # is reduced, and an exchange's three stamps and the responder's true
    # value at the reply's arrival when the exchange completes, at its
    # requester's evaluation or the run's end.  Such a deferred read of a
    # past instant x returns what a read at x would have, bit for bit.
    # set_mode only appends an anchor at the time of the event that calls
    # it, so every anchor before x is in place before any event at x runs,
    # and both reads see it.  A read walks back along its clock's anchors to
    # the last one at or before x, so an anchor after x is never selected
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
    # The batch draws its replies in one array pass: each of its exchanges
    # draws on the stream of its reverse direction, so no stream is drawn
    # twice in the pass and the order among them does not matter.
    #
    # Each stream's values come _BLOCK at a time from one Generator.random
    # call into its row of the block table, and a draw takes the next unread
    # one (a draw that finds the inf after the last refills the row first),
    # so the k-th draw on a stream gets its k-th value, as the k-th scalar
    # random() call would: the values of a block are the generator's next
    # _BLOCK doubles in order.  A stream's draws only ever take its own row,
    # whatever the order of draws across streams.

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
        L, H, anchors = sample_clocks(self.table, times)
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
            self.chunks.append((times, L, H, self.table.mode[anchors], local, glob, psi))
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
        dirs = np.concatenate([np.empty(0, dtype=np.intp)] + [d for d, _ in replies])
        t, offset, deduction, t4, true = np.concatenate([np.empty((5, 0))] + [r for _, r in replies], axis=1)
        est = estimate_value(offset, deduction, t4)  # each requester's estimate at the reply's arrival
        self._check_sandwich(t, self._src[dirs], self._dst[dirs], true, est, self._kappa[dirs])
        if evals:
            rows = np.concatenate([np.full(len(vs), r) for r, vs, *_ in evals])
            v, dirs, est, slow, fast = (np.concatenate(a) for a in list(zip(*evals))[1:])
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
        if (dH < dt - metrics._CHECK_TOL).any() or (dH > self.sc.params.theta * dt + metrics._CHECK_TOL).any():
            self._abort("hardware clock violated its drift envelope")

    def _check_evaluations(self, times, L, rows, v, dirs, est, slow_fired, fast_fired) -> None:
        """The sandwich and the conditions at each evaluation: node ``v[i]``
        at sample row ``rows[i]`` held the estimates of ``est`` across its
        directions, the next ``deg[v[i]]`` of ``dirs``, and its triggers
        fired at the levels of ``slow_fired[i]`` and ``fast_fired[i]``.  An
        evaluation is a sample, so its true values are a row of L.  Also
        counts the evaluations and the levels fired, and reports slow and
        fast triggers firing together."""
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
            self.violations.append(
                Violation(
                    time=float(t[r]),
                    kind="trigger_coexistence",
                    detail=f"node {int(v[r])} satisfies slow {st} and fast {ft} triggers together",
                )
            )
        self._check_sandwich(times[at], np.repeat(v, deg), w, L_w, est, kappa)
        slow, fast = metrics.level_conditions(L_w - L[at, self._src[dirs]], kappa, np.cumsum(deg) - deg, self._levels)
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
        for b in sorted(set(self.table.hw_start[self.table.hw_start > 0].tolist())):
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
        edges = self.edges
        if self.buf_t or self._reply_checks:
            self._reduce_chunk()
        times, L, H, modes, local, glob, psi_levels = (np.concatenate(parts) for parts in zip(*self.chunks))
        self.chunks = []
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
            # each clock's anchors are its node's mode timeline
            mode_timelines={str(v): [list(a) for a in tl] for v, tl in enumerate(self.table.mode_timelines())},
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
