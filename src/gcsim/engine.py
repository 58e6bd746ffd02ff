"""Deterministic discrete-event loop.

Events are totally ordered by (real time, schedule sequence number), and
every random draw is a labelled function of the master seed, so a run is a
pure function of its scenario.  The loop owns all node state, and each fact
has one owner: a node is its logical clock, clock v of the run's one anchor
table ``table``, and its cycle ``cycle[v]``; a link direction d, a->b, is a
column of arrays: its parameters, its draw keys and its exchange in flight
(``_ex[:, d]``, open from a's wakeup to a's evaluation, so a is measuring
exactly when its directions are open).

Event handlers do only what the nodes do: readings, estimates, triggers and
mode changes.  A node event makes one clock step, :meth:`ClockTable.step`,
which switches the node's mode and reads its clock: a wakeup's value and
evaluation time, or a decision's next wakeup time.  Neither a message nor
an exchange is an event of its own.  Each leg of a's exchange with w in a's
cycle k, the request's delay, w's processing time and the reply's delay, is
a pure function of (seed, a->w, leg, k) (:func:`_link_uniforms`), so a's
wakeup sets the exchange's three instants at once, one scalar send per
neighbour: the request's arrival, the reply's emission and the reply's
arrival.  The requester's evaluation reads the three stamps taken at past
instants (w's at the request's arrival and at the reply's emission, v's at
the reply's arrival).  The evaluations at one instant are one array pass:
it checks their views, reads every stamp and each node's own value in one
:func:`clocks.read_clocks` call, and evaluates the triggers in one
:func:`gcs.trigger_levels` call, since each evaluation reads only its
node's clock at that instant and its node's exchanges.  A send reads its
legs from a table, inline: one vector pass fills every link stream's values
for a window of cycles, at most ``_STREAM_VALUES`` values, and a wakeup
whose cycle lies outside the window fills it again.

Node events travel in heap entries.  A handler pushes one entry per run of
consecutive node events it schedules at the same float instant, wakeups
or evaluations; each member (v, k, seq) keeps the sequence number its own
event would take, and the loop handles an entry in one call, each member
in its own (time, seq) order (see the comment above ``_Simulation.run``).
Nodes that share a hardware rate and a mode history reach their cycle
instants at equal floats, so entries are few: a full grid4x4 run pops
1,210 wakeup entries holding 9,616 wakeups and 1,220 evaluation entries
holding 9,600 evaluations, and its heap holds nothing else.  The
evaluations of one instant come in few distinct node sets, so the arrays
an instant's pass gathers for its nodes (their directions, the readers of
their stamps, their thresholds) are built once per node set, as one plan.

Every event instant is a sample, since every node event may change a
clock's slope, and so are the grid ticks and the hardware rate
breakpoints, which no event marks: the loop reads them between pops, as
one schedule merged with the heap's.  So is the run's one end instant:
the horizon time, or the wakeup at which the last node reaches the
horizon cycle.

The loop checks nothing against true clock values.  It hands the run's
:class:`metrics.Oracle` each sample instant, the (5, m) record of the
exchanges it completes and the evaluations of each instant, and the
oracle reads the clocks at those instants later, from the anchor table,
which is exact (see the comment above ``_Simulation.run``).  A run that
ends, or aborts with ``RunAborted``, first completes every exchange whose
reply has arrived, then hands over to the oracle.
"""
from __future__ import annotations

import heapq
import logging
import time as _time
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import gcs, metrics
from .clocks import FAST, OWN_RATE, ClockTable, LogicalClock, read_clocks
from .errors import ConfigError, InternalError
from .trace import RunResult
from .twoway import compute_estimates, estimate_value

# SHA-256 from CPython's built-in module, as the stdlib's random takes its
# sha512: hashlib loads OpenSSL's libcrypto, about 3.4 MB of a run's RSS.
# The digests are hashlib's; scenario hashes documents with this one too
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from .scenario import Scenario

logger = logging.getLogger(__name__)

__all__ = ["PcgStream", "RunResult", "run"]

# Event kinds.  Each payload holds only what its handler reads.
# Each kind may change a clock's slope, so every event instant is a
# sample; the grid ticks and rate breakpoints are samples too, read off
# the heap (see run).  Messages are no events: the requester's wakeup sets
# every leg of an exchange (see _on_wakeups).  A node event travels in an
# entry with the other events of its run: the entry's payload is a list of
# members (v, k, seq), each with the seq its own event would take.
K_WAKEUP = 0  # node v starts cycle k and sends its requests
K_EVALUATE = 1  # node v evaluates its triggers in cycle k

# the event loop's own tolerance, for time regression and the timeout
# window; the oracle's checks have their own, in metrics
_TOL = 1e-9
# how far a wakeup's logical value may lie from its cycle boundary: the
# wakeup is scheduled at the clock's inverse of the boundary, and that
# inverse and the read back each round off by a few ulps of the clock's
# value, more than _TOL once values pass about 1e7 (an ulp there is 1.9e-9).
# This tolerance would admit values up to about 1e9, but nothing enforces
# any limit, and the oracle's checks, with their 1e-9 tolerance, hold only
# to about 1e6: bundled line8 with every initial value shifted by 1e7 exits
# 4 ("hardware clock violated its drift envelope"), at 1e6 it exits 0 (see
# ROADMAP item 2)
_BOUNDARY_TOL = 1e-6
_INF = float("inf")
# Link stream values the engine's table holds at most: one row per cycle of
# its window, one value per stream in each.  The window spans the run's
# cycles (see _Simulation.__init__ for a horizon_time run's) within this
# budget; past it, a wakeup whose cycle leaves the window fills it again,
# from the least current cycle on (see _Simulation._fill)
_STREAM_VALUES = 1 << 18
# The rows of the engine's exchange records, one column per link direction
# (see _Simulation.__init__)
_ARRIVAL, _EMIT, _REPLY, _T1, _EPS_D, _EPS_M = range(6)
# the instants an exchange's completion reads, and whose clock reads each:
# the responder's at the request's arrival and the reply's emission (t2,
# t3), the requester's at the reply's arrival (t4) and the responder's
# there (the true value its estimate is checked against); at an
# evaluation, the requester's at its instant follows
_READ_ROWS = np.array([_ARRIVAL, _EMIT, _REPLY, _REPLY])


class _Plan(NamedTuple):
    """The arrays the evaluation pass of one node set gathers, built once
    per set (see ``_Simulation._plan``): the nodes' link directions in
    node order, the nodes, the start of each node's directions, the
    readers of each direction's stamps (``_readers`` over the directions,
    raveled as ``_complete`` reads them) and the directions' trigger
    thresholds."""

    dirs: np.ndarray
    nodes: np.ndarray
    starts: np.ndarray
    readers: np.ndarray
    thresholds: np.ndarray


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
# a uint64 seed's low 32-bit word, and the shift to its high one
_LOW32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)


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


def _seed_states(pairs: list[tuple[int, str]]) -> np.ndarray:
    """The PCG64 seed words of one labelled substream per (seed, label)
    pair, an (S, 4) uint64 array, made in one batch.

    Row i is what ``SeedSequence([seed, *w]).generate_state(4, np.uint64)``
    gives, w the four little-endian 32-bit words of ``sha256(label)[:16]``:
    a pair's entropy is the same words as uint32 (the seed's little-endian
    words first, one below 2^32, two above), one array pass mixes every
    pair's entropy into the pool its ``SeedSequence`` would hold, and one
    more hashes every pool into the four words, with the same uint32
    wrap-around.
    """
    if not pairs:
        return np.zeros((0, 4), dtype=np.uint64)
    seeds = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF for seed, _ in pairs], dtype=np.uint64)
    digests = b"".join(sha256(label.encode("utf-8")).digest()[:16] for _, label in pairs)
    digests = np.frombuffer(digests, dtype="<u4").reshape(-1, 4)
    long = seeds > _LOW32
    entropy = np.zeros((len(pairs), 6), dtype=np.uint32)  # one row per pair, then one column
    entropy[:, 0] = seeds & _LOW32
    entropy[long, 1] = seeds[long] >> _U32
    entropy[~long, 1:5] = digests[~long]
    entropy[long, 2:6] = digests[long]
    words = _hashmix(_pools(entropy.T, long.tolist()).take(_STATE_WORDS, 0), _STATE_XOR, _STATE_MUL)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


# Link draws: SplitMix64's output function (Steele, Lea & Flood, 2014) of a
# counter, as in the counter-based generators of Salmon et al. (2011).  Every
# constant is a uint64 scalar, so that every operation wraps mod 2^64 under
# both NEP 50 and legacy promotion (a Python-int operand would turn uint64
# into float64 under numpy 1.x)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U1, _U11, _U27, _U30, _U31 = (np.uint64(k) for k in (1, 11, 27, 30, 31))


def _link_keys(seed: int, labels: list[str]) -> np.ndarray:
    """The uint64 key of each link stream ``labels`` names: the first 8
    bytes, little-endian, of the SHA-256 of the seed's 8 little-endian
    bytes (masked to 64 bits) followed by the label's UTF-8 bytes."""
    prefix = (int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digests = b"".join(sha256(prefix + label.encode("utf-8")).digest()[:8] for label in labels)
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


def _link_uniforms(keys: np.ndarray, cycles: np.ndarray) -> np.ndarray:
    """The draw of each stream of ``keys`` in each cycle of ``cycles``, a
    (cycles, keys) array of doubles in [0, 1): the draw of key x in cycle
    k is the top 53 bits of mix64(x + (k + 1) gamma), times 2^-53, mix64
    being SplitMix64's finalizer."""
    z = (cycles.astype(np.uint64)[:, None] + _U1) * _GAMMA + keys
    z ^= z >> _U30
    z *= _MIX_1
    z ^= z >> _U27
    z *= _MIX_2
    z ^= z >> _U31
    z >>= _U11
    return z * 2.0**-53


# PCG64 as numpy runs it: a 128-bit LCG, state = M * state + inc (mod 2^128),
# advanced before each output, whose 64-bit output is XSL-RR of the state
# (the xor of its halves rotated right by its top 6 bits)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = ((1 << k) - 1 for k in (32, 64, 128))


class PcgStream:
    """One PCG64 stream of ``_seed_states``' words, held as Python ints and
    drawn one value at a time.  Each method draws bit for bit what numpy's
    ``Generator`` method of the same name draws from the pair's
    ``PCG64(SeedSequence([seed, *w]))``.  Set-up draws from these (the
    random graph template and the random walks); the link draws are
    :func:`_link_uniforms`.

    As numpy's ``PCG64`` does, a stream keeps the high 32-bit half of an
    output whose low half a 32-bit draw took (``half``, else None), and
    the next 32-bit draw takes it instead of a new output; ``random``
    leaves it where it is.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, words) -> None:
        w0, w1, w2, w3 = (int(w) for w in words)
        # PCG64's seeding: initstate w0 w1 and sequence w2 w3, inc = seq * 2 + 1,
        # state = (initstate + inc) * M + inc
        self.inc = ((w2 << 65) | (w3 << 1) | 1) & _MASK128
        self.state = (((w0 << 64 | w1) + self.inc) * _PCG_MULT + self.inc) & _MASK128
        self.half = None

    @classmethod
    def seeded(cls, pairs: list[tuple[int, str]]) -> list[PcgStream]:
        """One stream per (seed, label) pair, seeded in one batch."""
        return [cls(words) for words in _seed_states(pairs).tolist()]

    def _next64(self) -> int:
        self.state = x = (self.state * _PCG_MULT + self.inc) & _MASK128
        rot = x >> 122
        x = ((x >> 64) ^ x) & _MASK64
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        x = self._next64()
        self.half = x >> 32
        return x & _MASK32

    def random(self) -> float:
        """A double in [0, 1): the output's top 53 bits times 2^-53."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), by numpy's 32-bit path, which takes every
        range up to 2^32: Lemire's multiply-shift of 32-bit draws, k = high
        - low, which rejects a draw whose low product word is below (2^32 -
        k) mod k.  A range of one value draws nothing."""
        k = high - low
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"integers takes a range of 1 to 2^32 values, not {k}")
        if k == 1:
            return low
        m = self._next32() * k
        if m & _MASK32 < k:
            threshold = ((1 << 32) - k) % k
            while m & _MASK32 < threshold:
                m = self._next32() * k
        return low + (m >> 32)


class _Simulation:
    def __init__(self, sc: Scenario):
        self.sc = sc
        g = sc.graph
        n = g.n
        # The link directions a->b, in (a, b) order (NetworkGraph.directions),
        # so node v's are _first[v] to _first[v + 1], in neighbour order.
        src, dst, edge, first = g.directions
        D = len(src)
        pairs = list(zip(src.tolist(), dst.tolist()))
        links = [g.edges[e][2] for e in edge.tolist()]
        base = np.array([p.fwd_delay if a < b else p.bwd_delay for (a, b), p in zip(pairs, links)])
        jitter = np.array([p.jitter for p in links])
        # b->a, the direction of the reply to a's request to b
        self._rev = np.searchsorted(src * n + dst, dst * n + src)
        # The link streams, one per leg and direction a->b, keyed by their
        # labels: delay:a->b, the request's delay; reply:a->b, the reply's
        # delay on b->a; and, when p_max > 0, proc:a->b, b's processing time.
        # Stream s is column s of the table: delay:a->b is column d, the
        # direction's index, reply:a->b column D + d and proc:a->b 2D + d
        kinds = ("delay", "reply", "proc") if sc.p_max > 0 else ("delay", "reply")
        labels = [f"{kind}:{a}->{b}" for kind in kinds for a, b in pairs]
        if len(set(labels)) < len(labels):
            reused = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise ConfigError(f"RNG stream label reused: {reused!r}")
        self._keys = _link_keys(sc.master_seed, labels)
        self._scale = np.concatenate((jitter, jitter, np.full(len(labels) - 2 * D, sc.p_max)))
        self._base = np.concatenate((base, base[self._rev], np.zeros(len(labels) - 2 * D)))
        self._proc = 2 * D if sc.p_max > 0 else 0  # the proc streams' offset, 0 without them
        # The table holds each stream's value in each cycle of a window of
        # _window cycles from _c0 on, as a delay, base + jitter * u, or a
        # processing time, p_max * u.  The first wakeup fills it
        if sc.horizon_cycles is not None:
            cycles = sc.horizon_cycles
        else:  # no logical clock runs faster than theta (1 + mu), so none starts more cycles by the horizon
            cycles = int(sc.params.theta * (1 + sc.params.mu) * sc.horizon_time / sc.params.cycle_length) + 1
        self._window = max(1, min(cycles, _STREAM_VALUES // max(1, len(labels))))
        self._table = np.zeros((self._window, len(labels)))
        self._c0 = -self._window  # a window that holds no cycle
        self._src, self._dst = src, dst
        self._first = first.tolist()
        self._out = [np.arange(a, b) for a, b in zip(self._first, self._first[1:])]
        # triggers use the static per-edge error bound as their delta
        self._kappa = np.array([sc.kappa[(u, v)] for u, v, _ in g.edges])[edge]
        self._thresholds = gcs.trigger_thresholds(self._kappa, self._kappa, sc.params.s_max)
        # Each direction's exchange in flight, from its requester's wakeup to
        # its evaluation (the requester is measuring exactly when its
        # directions are open), is one column of _ex, whose rows are: the
        # real times of the request's arrival, the reply's emission, the
        # reply's arrival; the requester's reading at the send; and the
        # link's eps_d and eps_m.  The rows of _readers name whose clock reads
        # each instant of _READ_ROWS, then the requester's, which reads its
        # evaluation's instant.
        self._open = np.zeros(D, dtype=bool)
        self._ex = np.zeros((6, D))
        self._ex[_EPS_D] = [p.eps_d for p in links]
        self._ex[_EPS_M] = [p.eps_m for p in links]
        self._readers = np.stack((self._dst, self._dst, self._src, self._dst, self._src))
        # the wakeups' scalar reads and writes go through memoryviews, as
        # Python numbers
        self._ex_mv = [memoryview(row) for row in self._ex]
        self._open_mv, self._table_mv = memoryview(self._open), memoryview(self._table.reshape(-1))

        # per node: its clock, in one anchor table whose anchors are the
        # nodes' mode timelines, and the cycle of its last wakeup.  The
        # events step the table; the clocks' views schedule the first wakeups
        self.table = ClockTable(sc.hardware)
        self.clocks = [LogicalClock(self.table, v, sc.params.mu) for v in range(n)]
        self._factors = (1.0, 1.0 + sc.params.mu)  # each mode's rate factor, by OWN_RATE and FAST
        # every check against true clock values, from the loop's records
        self.oracle = metrics.Oracle(sc, self.table, self._kappa, self._abort)
        self.cycle = [0] * n
        self.done: set[int] = set()
        # the plans of the evaluation node sets seen since the last clear
        # (see _plan)
        self._plans: dict[tuple, _Plan] = {}

        self.heap: list = []
        self.seq = 0
        self.current: float | None = None
        # the run's last instant: the horizon time, or the wakeup at which
        # the last node reaches the horizon cycle
        self.end = _INF if sc.horizon_time is None else sc.horizon_time

    # -- event handlers

    def _on_wakeups(self, t: float, group: list) -> None:
        """The wakeups ``group``, each (v, k, seq), due at t, in event order.
        Node v starts cycle k: one clock step switches it to its own rate
        and reads its value l1 and the time of its evaluation, then it sends
        its requests, one per neighbour w in neighbour order, its clock
        reading l1.  Each send reads the exchange's legs of cycle k from the
        table, filling it first if k lies outside its window, and sets the
        request's arrival, the reply's emission after w's processing time
        and the reply's arrival; no event is pushed.  The evaluations go on
        the heap as one entry per run of members with equal evaluation
        instants: a member whose instant differs from the one before pushes
        a new entry, and the next ones join its list."""
        sc = self.sc
        step, initial, cycle_length, T = self.table.step, self.table.initial, sc.params.cycle_length, sc.params.T
        horizon, cycle, first = sc.horizon_cycles, self.cycle, self._first
        arrival, emit, reply, t1 = self._ex_mv[:4]
        is_open, table, c0, window = self._open_mv, self._table_mv, self._c0, self._window
        S, D, proc = len(self._keys), len(self._src), self._proc
        heap, seq = self.heap, self.seq
        last = run = None  # the instant and the members of the last evaluation entry
        for v, k, _ in group:
            expected = initial[v] + k * cycle_length
            l1, t_eval = step(v, t, OWN_RATE, 1.0, expected + T)
            cycle[v] = k
            if horizon is not None and k >= horizon:
                self.done.add(v)
                if len(self.done) == sc.graph.n:
                    self.end = t
                continue
            if abs(l1 - expected) > _BOUNDARY_TOL:
                self._abort(f"cycle boundary misaligned at node {v}: local {l1!r} vs {expected!r}")
            if not c0 <= k < c0 + window:
                c0 = self._fill(k)
            i = (k - c0) * S
            for d in range(first[v], first[v + 1]):
                arrival[d] = a = t + table[i + d]
                if proc:
                    a += table[i + proc + d]
                emit[d], reply[d], t1[d], is_open[d] = a, a + table[i + D + d], l1, True
            if t_eval == last:
                run.append((v, k, seq))
            else:
                last, run = t_eval, [(v, k, seq)]
                heapq.heappush(heap, (t_eval, seq, K_EVALUATE, run))
            seq += 1
        self.seq = seq

    def _fill(self, k: int) -> int:
        """Fill the table with every stream's values in the _window cycles
        from the least current cycle on, or from k when that window misses
        it, and return the window's first cycle.  Each value equals the
        scalar ``base + jitter * u`` or ``p_max * u`` bit for bit, since
        numpy repeats the operations elementwise.  A delay that reaches
        d_max is an internal error."""
        c0 = min(self.cycle)
        if k >= c0 + self._window:
            c0 = k
        table = self._table
        table[:] = _link_uniforms(self._keys, np.arange(c0, c0 + self._window))
        table *= self._scale
        table += self._base
        D = len(self._src)
        delays = table[:, : 2 * D]
        if delays.size and delays.max() >= self.sc.graph.d_max:
            s = int(np.argwhere(delays >= self.sc.graph.d_max)[0, 1])
            a, b = self._src[s % D], self._dst[s % D]
            if s >= D:  # a reply, on b->a
                a, b = b, a
            raise InternalError(f"sampled delay {float(delays[:, s].max())!r} reached d_max on {a}->{b}")
        self._c0 = c0
        return c0

    def _plan(self, batch: list) -> _Plan:
        """The plan of the node set of ``batch``, its members (v, k, seq)
        in order, built on its first use.  The plans live in one dict of at
        most n, cleared when a new one would exceed n: each cycle's
        evaluation batches partition the nodes, so a schedule that repeats
        from cycle to cycle needs at most n, and a cleared dict only builds
        again what every instant built before plans were kept.  A plan is
        never written after it is built, so the arrays the oracle keeps of
        it stay as they were."""
        nodes = tuple([v for v, _, _ in batch])
        plan = self._plans.get(nodes)
        if plan is None:
            if len(self._plans) >= self.sc.graph.n:
                self._plans.clear()
            out = [self._out[v] for v in nodes]
            dirs = np.concatenate(out)
            plan = self._plans[nodes] = _Plan(
                dirs, np.array(nodes, dtype=np.intp), np.cumsum([0] + [len(d) for d in out[:-1]]),
                self._readers.take(dirs, axis=1).ravel(), self._thresholds.take(dirs, axis=0),
            )
        return plan

    def _on_evaluate(self, t: float, batch: list) -> None:
        """The evaluations ``batch``, each (v, k, seq), due at t, in event order.

        Each completes its node's exchanges, whose replies must have
        arrived before t (a reply at t itself would have been scheduled
        after the evaluation), and reads only its node's clock at t."""
        first, is_open, cycle = self._first, self._open_mv, self.cycle
        for v, k, _ in batch:
            if cycle[v] != k or first[v] == first[v + 1] or not is_open[first[v]]:
                self._abort(f"evaluation fired out of order at node {v}")
        plan = self._plan(batch)
        dirs = plan.dirs
        ex = self._ex.take(dirs, axis=1)
        missing = ex[_REPLY] >= t
        if np.count_nonzero(missing):
            late = dirs[missing]
            v = int(self._src[late[0]])
            ws = self._dst[late[self._src[late] == v]].tolist()
            self._abort(f"node {v} evaluating cycle {self.cycle[v]} with incomplete views (missing {ws})")
        self._open[dirs] = False
        offset, deduction, l_rep = self._complete(dirs, ex, plan.readers, check_timeout=True, t=t)
        self._decide(t, batch, plan, l_rep, estimate_value(offset, deduction, l_rep))

    def _complete(self, dirs: np.ndarray, ex: np.ndarray, readers: np.ndarray, check_timeout: bool,
                  t: float | None = None) -> tuple:
        """Complete the exchanges on the directions ``dirs``, whose replies
        have arrived and whose records are ``ex``: read the four stamps at
        the past instants the parties took them, make the estimates, hand
        the exchanges to the oracle, then end the run if a round trip
        exceeded the timeout window (with ``check_timeout``).  Reads the
        instants of _READ_ROWS, and with ``t``, an evaluation instant, each
        requester's value at t, in one :func:`read_clocks` call of the
        clocks ``readers``, the rows of ``_readers`` over ``dirs``, raveled.
        Returns the estimates' (offset, deduction) and, with ``t``, each
        requester's value at t.

        The caller closes ``dirs`` first, so that the abort's own
        ``_settle`` does not complete them again."""
        m, rows = len(dirs), len(_READ_ROWS)
        times = np.empty((rows + (t is not None), m))
        ex.take(_READ_ROWS, axis=0, out=times[:rows])
        if t is not None:
            times[rows] = t
        L = read_clocks(self.table, times.ravel(), readers)[0]
        t1, t2, t4 = ex[_T1], L[:m], L[2 * m : 3 * m]
        t3 = t2 + (L[m : 2 * m] - t2)  # w's arrival stamp plus its local processing time
        sc = self.sc
        _, offset, deduction = compute_estimates(t1, t2, t3, t4, ex[_EPS_D], ex[_EPS_M], sc.params.theta)
        reply = ex[_REPLY]
        # L[2m:4m] is t4 and then the true values
        self.oracle.replies(dirs, np.concatenate((reply, offset, deduction, L[2 * m : 4 * m])).reshape(5, m))
        if check_timeout:
            over = t4 - t1 >= sc.timeout + _TOL
            if np.count_nonzero(over):
                i = np.flatnonzero(over)[np.argmin(reply[over])]  # the first reply that exceeded the window
                v, w, round_trip = self._src[dirs[i]], self._dst[dirs[i]], float(t4[i] - t1[i])
                self._abort(f"measurement {v}->{w} exceeded the timeout window ({round_trip!r} >= {sc.timeout!r})")
        return offset, deduction, L[4 * m :]

    def _settle(self, limit: float, check_timeout: bool) -> None:
        """At the end of the run: complete the exchanges not yet evaluated
        whose replies arrived at or before ``limit``, as reply events up to
        it would have, and close them."""
        dirs = np.flatnonzero(self._open & (self._ex[_REPLY] <= limit))
        self._open[dirs] = False
        if dirs.size:
            readers = self._readers[: len(_READ_ROWS)].take(dirs, axis=1).ravel()
            self._complete(dirs, self._ex.take(dirs, axis=1), readers, check_timeout)

    def _decide(self, t: float, batch: list, plan: _Plan, l_rep: np.ndarray, est: np.ndarray) -> None:
        """Triggers and mode decisions of the evaluations ``batch`` at t,
        each (v, k, seq), over the directions of their ``plan``, in batch
        order.  ``l_rep`` is each node's own value at t, repeated once per
        direction, and ``est`` its estimates across them.  Each decision
        makes one clock step, which reads the node's next wakeup time, and
        takes the next heap seq; the wakeups go on the heap as one entry per
        run of members with equal wakeup instants, as in ``_on_wakeups``."""
        sc = self.sc
        slow, fast = gcs.trigger_levels(est - l_rep, plan.thresholds, plan.starts)
        self.oracle.evaluations(t, plan.nodes, plan.dirs, est, slow, fast)
        modes = [FAST if sc.gcs_enabled and any(f) and not any(s) else OWN_RATE
                 for s, f in zip(slow.tolist(), fast.tolist())]
        step, initial, cycle_length, factors = self.table.step, self.table.initial, sc.params.cycle_length, self._factors
        heap, seq, last, run = self.heap, self.seq, None, None
        for (v, k, _), mode in zip(batch, modes):
            _, wake = step(v, t, mode, factors[mode], initial[v] + (k + 1) * cycle_length)
            if wake == last:
                run.append((v, k + 1, seq))
            else:
                last, run = wake, [(v, k + 1, seq)]
                heapq.heappush(heap, (wake, seq, K_WAKEUP, run))
            seq += 1
        self.seq = seq

    def _abort(self, message: str) -> None:
        """Complete every exchange whose reply has arrived, then end the run
        with the oracle's RunAborted, which reports every check up to now."""
        self._settle(self.current, check_timeout=False)
        self.oracle.abort(message)

    # -- main loop

    # Node events travel in entries: a handler that schedules node events,
    # the initial wakeups, a decision batch or a wakeup entry, pushes one
    # entry per run of consecutive ones at ==-equal instants (nothing is
    # rounded), and each member keeps the seq its own event would take.
    # The entry goes on the heap with its first member's (time, seq) when
    # that member is scheduled, and the run's next members join its list;
    # no key is compared past (time, seq), which is unique.  Between two
    # members of one entry the handler pushes nothing else, so no other
    # event's (time, seq) key falls between two members of one entry, and
    # popping the entry runs exactly the node events that one heap event
    # per node event ran, in the same order.  The evaluation branch extends
    # its batch with the whole entries due at the same instant, as it did
    # with single events.
    #
    # The heap holds only node events.  The grid ticks and the hardware
    # rate breakpoints, which only force samples, are read between pops
    # from one merged schedule: the next tick, sample_dt after the last one
    # (the addition chain a tick event that pushed the next computed), and
    # the next of the sorted breakpoints.  A node event at the same instant
    # goes first.  As events, the ticks and breakpoints took seqs; without
    # them each node event's seq is less by the count of forced events that
    # took a seq before it.  That map is increasing, so every comparison of
    # two node-event keys, and with it the heap's order, keeps its result.
    # Samples still dedupe by instant: the loop samples ``current`` only
    # when it moves to a later instant, however many node events and
    # forced instants share a float.  The move to an instant samples
    # ``current``, and the sample's drift check may end the run, whose
    # abort completes the exchanges whose replies arrived by ``current``.
    #
    # The samples and the exchanges record only instants, and the clocks
    # are read later, from the anchor table: samples when the oracle reduces
    # their chunk, and an exchange's three stamps and the responder's true
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
    # No draw depends on the order of events: each leg is a function of
    # the seed, its direction and the requester's cycle alone.

    def run(self) -> RunResult:
        started = _time.perf_counter()
        sc = self.sc
        last = run = None
        for v, clock in enumerate(self.clocks):  # as _decide pushes its wakeups
            wake = clock.invert(self.table.initial[v])
            if wake == last:
                run.append((v, 0, v))
            else:
                last, run = wake, [(v, 0, v)]
                heapq.heappush(self.heap, (wake, v, K_WAKEUP, run))
        self.seq = len(self.clocks)
        # the forced samples, merged into one schedule: the grid ticks, each
        # sample_dt after the one before, and the hardware rate breakpoints.
        # Every clock is linear between its rate breakpoints and mode
        # changes; sampling both makes the recorded extrema of any clock
        # difference exact
        dt = sc.sample_dt
        tick = dt if dt > 0 else _INF
        breaks = sorted(set(self.table.hw_start[self.table.hw_start > 0].tolist())) + [_INF]
        b = 0
        forced = min(tick, breaks[0])

        heap, sample = self.heap, self.oracle.sample
        while True:
            t = heap[0][0] if heap else _INF
            if forced < t:  # node events first at equal instants
                t = forced
                if t > self.end:
                    break
                if t == tick:
                    tick = t + dt
                if t == breaks[b]:
                    b += 1
                forced = tick if tick < breaks[b] else breaks[b]
                kind = None
            elif not heap or t > self.end:
                break
            else:
                t, _, kind, payload = heapq.heappop(heap)
            if self.current is not None:
                if t < self.current - _TOL:
                    self._abort(f"event time regressed: {t!r} after {self.current!r}")
                if t > self.current:
                    sample(self.current)
            self.current = t
            if kind == K_WAKEUP:
                self._on_wakeups(t, payload)
            elif kind == K_EVALUATE:
                while heap and heap[0][0] == t and heap[0][2] == K_EVALUATE:
                    payload += heapq.heappop(heap)[3]  # whole entries: a popped entry is the loop's own
                self._on_evaluate(t, payload)

        end = self.end
        self._settle(end, check_timeout=True)
        if self.current is not None:
            sample(self.current)
        if self.current is None or end > self.current:
            sample(end)

        result = self.oracle.finish(min(self.cycle))
        result.summary.wall_time_s = _time.perf_counter() - started
        return result


def run(sc: Scenario) -> RunResult:
    """Execute a validated scenario; deterministic in (scenario, seed)."""
    logger.info(
        "run: n=%d seed=%d horizon=%s", sc.graph.n, sc.master_seed,
        sc.horizon_cycles if sc.horizon_cycles is not None else sc.horizon_time,
    )
    return _Simulation(sc).run()
