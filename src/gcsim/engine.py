"""Deterministic discrete-event loop.

Events are totally ordered by (real time, schedule sequence number), and
every random draw comes from a labelled substream of the master seed, so a
run is a pure function of its scenario.  The loop owns all node state, and
each fact has one owner: a node is its logical clock, clock v of the run's
one anchor table ``table``, and its cycle ``cycle[v]``; a link direction
d, a->b, is a column of arrays: its parameters, its streams and its
exchange in flight (``_ex[:, d]``, open from a's wakeup to a's evaluation,
so a is measuring exactly when its directions are open).

Event handlers do only what the nodes do: readings, estimates, triggers and
mode changes.  A node event makes one clock step, :meth:`ClockTable.step`,
which switches the node's mode and reads its clock: a wakeup's value and
evaluation time, or a decision's next wakeup time.  Neither a message nor
an exchange is an event of its own: the requester's wakeup draws the
request's delay and the responder's processing time, one scalar send per
neighbour, and keeps the reply's emission instant with the heap sequence
number an event for it would take; the reply's delay is drawn off the
heap, in the order of the stream it shares with the responder's requests
(see the comment above ``_Simulation.run``); and the requester's
evaluation reads the three stamps taken at past instants (w's at the
request's arrival and at the reply's emission, v's at the reply's
arrival).  The evaluations at one instant are one array pass: it draws
their reply delays, checks their views, reads every stamp and each node's
own value in one :func:`clocks.read_clocks` call, and evaluates the
triggers in one :func:`gcs.trigger_levels` call, since each evaluation
reads only its node's clock at that instant and its node's exchanges.  A
draw is a table read, inline in the wakeup's sends and one array read
(``_draws``) for an evaluation's replies: the link streams are PCG64
states held as arrays (:class:`PcgStreams`), and one jump-ahead pass fills
every stream's row of the table with as many values as it can draw in the
run, 2 (cycles + 1), within a budget of ``_STREAM_VALUES`` across the
rows; past the budget, the streams that run out are refilled together.

Node events travel in heap entries.  A handler pushes one entry per run of
consecutive node events it schedules at the same float instant, wakeups
or evaluations; each member (v, k, seq) keeps the sequence number its own
event would take, and the loop handles an entry in one call, each member
with its own (time, seq) key (see the comment above ``_Simulation.run``).
Nodes that share a hardware rate and a mode history reach their cycle
instants at equal floats, so entries are few: a full grid4x4 run pops
1,207 wakeup entries holding 9,616 wakeups and 1,217 evaluation entries
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
# the heap (see run).  Messages are no events: every leg of an exchange is
# drawn off the heap (see _on_wakeups and the comment above
# _Simulation.run).  A node event travels in an entry with the other
# events of its run: the entry's payload is a list of members (v, k, seq),
# each with the seq its own event would take.
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
# Link stream values the engine's table holds at most, across its rows.  A
# row's width is the most a stream can draw in the run, 2 (cycles + 1),
# within this budget: a delay stream a->b draws at most one request per
# cycle of a and one reply per cycle of b, a proc stream one value per
# cycle (see _Simulation.__init__ for a horizon_time run's cycles).  Past
# the budget rows run out, and a refill takes every row past its middle
# along, so that refills stay few and each is one kernel pass over many
# streams (a pass is some fifty numpy calls, for one stream as for
# thousands)
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
    raveled as ``_complete`` reads them), the directions' trigger
    thresholds and their reverse directions."""

    dirs: np.ndarray
    nodes: np.ndarray
    starts: np.ndarray
    readers: np.ndarray
    thresholds: np.ndarray
    rev: np.ndarray


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


# PCG64 as numpy runs it: a 128-bit LCG, state = M * state + inc (mod 2^128),
# advanced before each output, whose 64-bit output is XSL-RR of the state
# (the xor of its halves rotated right by its top 6 bits) and whose double
# is that output's top 53 bits times 2^-53.  128-bit values are (high, low)
# pairs of uint64 arrays, and every constant is a uint64 scalar, so that
# every operation wraps mod 2^64 under both NEP 50 and legacy promotion
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_ONE128 = (np.uint64(0), np.uint64(1))
# uint64 elements per array of the kernel's column chunks
_KERNEL_VALUES = 1 << 13


def _u128(x: int) -> tuple[np.uint64, np.uint64]:
    """The (high, low) words of a Python int below 2^128."""
    return np.uint64(x >> 64), np.uint64(x & 0xFFFFFFFFFFFFFFFF)


def _mul128(a: tuple, b: tuple) -> tuple:
    """a * b mod 2^128, broadcast: the low halves' full product, from their
    32-bit halves, plus the cross products in the high word."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _LOW32, al >> _U32, bl & _LOW32, bl >> _U32
    lh, hl = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    return a1 * b1 + (lh >> _U32) + (hl >> _U32) + (mid >> _U32) + al * bh + ah * bl, al * bl


def _affine(a: tuple, g: tuple, x: tuple, inc: tuple) -> tuple:
    """a * x + g * inc mod 2^128, broadcast."""
    (h1, l1), (h2, l2) = _mul128(a, x), _mul128(g, inc)
    lo = l1 + l2
    return h1 + h2 + (lo < l1), lo


def _jump_tables(width: int) -> tuple:
    """(A, G) for k = 0 .. width steps, A[k] = M^k and G[k] = 1 + M + ... +
    M^(k-1) mod 2^128, so k steps take a state x to A[k] x + G[k] inc
    (Brown, "Random Number Generation with Arbitrary Strides", 1994).  The
    tables double: the entries k + m, m the entries so far, are m steps
    after k, A[m] A[k] and A[m] G[k] + G[m]."""
    A = (np.zeros(1, np.uint64), np.ones(1, np.uint64))
    G = (np.zeros(1, np.uint64), np.zeros(1, np.uint64))
    a, g = _PCG_MULT, 1  # A[m] and G[m]
    while len(A[0]) <= width:
        am, gm = _u128(a), _u128(g)
        A = tuple(map(np.concatenate, zip(A, _mul128(am, A))))
        G = tuple(map(np.concatenate, zip(G, _affine(am, gm, G, _ONE128))))
        a, g = a * a % (1 << 128), (a * g + g) % (1 << 128)
    return tuple(p[: width + 1] for p in A), tuple(p[: width + 1] for p in G)


def _doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of the PCG64 states (hi, lo)."""
    out = hi ^ lo
    rot = hi >> _U58
    out = (out >> rot) | (out << ((_U64 - rot) & _U63))
    return (out >> _U11).astype(np.float64) * 2.0**-53


class PcgStreams:
    """The PCG64 streams of ``_seed_states(pairs)``, held as arrays and
    advanced together: stream s draws bit for bit what
    ``PcgStream.seeded(pairs)[s].random()`` does.  Each stream's state is that
    before the first value of its last batch (at first, its seeded state)."""

    def __init__(self, pairs: list[tuple[int, str]], width: int):
        w = _seed_states(pairs).T
        # PCG64's seeding: initstate w0 w1 and sequence w2 w3, inc = seq * 2 + 1,
        # state = (initstate + inc) * M + inc
        self.inc = ((w[2] << _U1) | (w[3] >> _U63), (w[3] << _U1) | _U1)
        lo = self.inc[1] + w[1]
        self.state = _affine(_u128(_PCG_MULT), _ONE128, (self.inc[0] + w[0] + (lo < w[1]), lo), self.inc)
        self.width = width
        self.A, self.G = _jump_tables(width)

    def uniforms(self, streams: np.ndarray, skip: np.ndarray) -> np.ndarray:
        """Advance each of the distinct ``streams`` by its ``skip`` values (at
        most ``width``), then return the next ``width`` doubles of each, a
        row per stream.  The rows are one jump-ahead pass: the state k values
        on is A[k] x + G[k] inc, for every stream and k at once.  It runs in
        chunks of columns of at most ``_KERNEL_VALUES`` values, computed as
        (column, stream) arrays, so that numpy's inner loops run along the
        streams, the longer axis when there are many."""
        A, G, inc = self.A, self.G, tuple(p[streams] for p in self.inc)
        x = _affine((A[0][skip], A[1][skip]), (G[0][skip], G[1][skip]), tuple(p[streams] for p in self.state), inc)
        self.state[0][streams], self.state[1][streams] = x
        out = np.empty((len(streams), self.width))
        step = max(1, _KERNEL_VALUES // max(1, len(streams)))
        for k in range(0, self.width, step):
            cols = slice(k + 1, min(k + step, self.width) + 1)
            state = _affine((A[0][cols, None], A[1][cols, None]), (G[0][cols, None], G[1][cols, None]), x, inc)
            out[:, k : k + step] = _doubles(*state).T
        return out


_MASK32, _MASK64, _MASK128 = ((1 << k) - 1 for k in (32, 64, 128))


class PcgStream:
    """One PCG64 stream of ``_seed_states``' words, held as Python ints and
    drawn one value at a time.  Each method draws bit for bit what numpy's
    ``Generator`` method of the same name draws from the pair's
    ``PCG64(SeedSequence([seed, *w]))``.  Set-up draws from these (the
    random graph template and the random walks); the link streams draw
    from :class:`PcgStreams`.

    As numpy's ``PCG64`` does, a stream keeps the high 32-bit half of an
    output whose low half a 32-bit draw took (``half``, else None), and
    the next 32-bit draw takes it instead of a new output; ``random``
    leaves it where it is.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, words) -> None:
        w0, w1, w2, w3 = (int(w) for w in words)
        # PCG64's seeding, as in PcgStreams
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
        # each stream's next values, drawn from ``PcgStreams`` in rows of
        # _width (see _refill): a delay stream's are delays, base + jitter *
        # u, a proc stream's processing times, p_max * u, all finite.  Each
        # row ends in an inf, which a draw finds once the row is read out;
        # _next is the flat index of each stream's next value, at first the
        # start of its row, which holds infs until the first draw fills it
        S = len(labels)
        if sc.horizon_cycles is not None:
            cycles = sc.horizon_cycles
        else:  # no logical clock runs faster than theta (1 + mu), so none starts more cycles by the horizon
            cycles = int(sc.params.theta * (1 + sc.params.mu) * sc.horizon_time / sc.params.cycle_length) + 1
        self._width = width = max(1, min(2 * (cycles + 1), _STREAM_VALUES // max(1, S)))
        self._streams = PcgStreams([(sc.master_seed, label) for label in labels], width)
        self._blocks = np.full((S, width + 1), _INF)
        self._flat = self._blocks.reshape(-1)
        self._row0 = np.arange(S) * (width + 1)
        self._next = self._row0.copy()
        self._proc = D if sc.p_max > 0 else 0  # the proc streams' offset, 0 without them
        self._scale = np.array([p.jitter for p in links] + [sc.p_max] * (S - D))
        self._base = np.array(base + [0.0] * (S - D))
        self._src, self._dst = src, dst
        # b->a, whose delay stream also carries b's replies to a's requests
        self._rev = np.searchsorted(src * n + dst, dst * n + src)
        self._first = first.tolist()
        self._out = [np.arange(a, b) for a, b in zip(self._first, self._first[1:])]
        # triggers use the static per-edge error bound as their delta
        self._kappa = np.array([sc.kappa[(u, v)] for u, v, _ in g.edges])[edge]
        self._thresholds = gcs.trigger_thresholds(self._kappa, self._kappa, sc.params.s_max)
        # Each direction's exchange in flight, from its requester's wakeup to
        # its evaluation (the requester is measuring exactly when its
        # directions are open), is one column of _ex, whose rows are: the
        # real times of the request's arrival, the reply's emission, the
        # reply's arrival (inf until its delay is drawn); the requester's
        # reading at the send; and the link's eps_d and eps_m.  _eseq holds
        # the heap sequence number the emission would take as an event.  The
        # rows of _readers name whose clock reads each instant of _READ_ROWS,
        # then the requester's, which reads its evaluation's instant.
        self._open = np.zeros(D, dtype=bool)
        self._ex = np.zeros((6, D))
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
        self.now: tuple = (-_INF, -1)  # (time, seq) of the event being handled
        self.current: float | None = None
        # the run's last instant: the horizon time, or the wakeup at which
        # the last node reaches the horizon cycle
        self.end = _INF if sc.horizon_time is None else sc.horizon_time

    # -- event handlers

    def _on_wakeups(self, t: float, group: list) -> None:
        """The wakeups ``group``, each (v, k, seq), due at t, in event order.
        Node v starts cycle k with ``now`` at its own heap key (t, seq): one
        clock step switches it to its own rate and reads its value l1 and
        the time of its evaluation, then it sends its requests, one per
        neighbour w in neighbour order, its clock reading l1.  Each send
        draws the request's delay and w's processing time, and keeps the
        reply's emission instant with the heap sequence number an event for
        it would take; no event is pushed.  The stream proc:v->w serves only
        v's requests to w, so drawing from it now gives the values a draw
        at the arrival would.  delay:v->w also serves v's reply to w's
        request, so that reply is drawn first if it was emitted before this
        wakeup (see the comment above ``run``).  A draw reads its stream's
        next value from the table, and refills it at the inf after a row's
        last.  The evaluations go on the heap as one entry per run of
        members with equal evaluation instants: a member whose instant
        differs from the one before pushes a new entry, and the next ones
        join its list."""
        sc = self.sc
        step, initial, cycle_length, T = self.table.step, self.table.initial, sc.params.cycle_length, sc.params.T
        horizon, cycle, first = sc.horizon_cycles, self.cycle, self._first
        arrival, emit, reply, t1 = self._ex_mv[:4]
        eseq, is_open, rev, nxt, flat = self._eseq_mv, self._open_mv, self._rev_mv, self._next_mv, self._flat_mv
        heap, seq, proc, inf = self.heap, self.seq, self._proc, _INF
        last = run = None  # the instant and the members of the last evaluation entry
        for v, k, key in group:
            self.now = now = (t, key)
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
            for d in range(first[v], first[v + 1]):
                r, i = rev[d], nxt[d]
                if reply[r] == inf and is_open[r] and (emit[r], eseq[r]) < now:
                    x = flat[i]
                    if x == inf:
                        self._refill()
                        i = nxt[d]
                        x = flat[i]
                    reply[r] = emit[r] + x
                    nxt[d] = i = i + 1
                x = flat[i]
                if x == inf:
                    self._refill()
                    i = nxt[d]
                    x = flat[i]
                nxt[d] = i + 1
                arrival[d] = a = t + x
                if proc:
                    i = nxt[proc + d]
                    x = flat[i]
                    if x == inf:
                        self._refill()
                        i = nxt[proc + d]
                        x = flat[i]
                    nxt[proc + d] = i + 1
                    a += x
                emit[d], reply[d], t1[d], eseq[d], is_open[d] = a, inf, l1, seq, True
                seq += 1
            if t_eval == last:
                run.append((v, k, seq))
            else:
                last, run = t_eval, [(v, k, seq)]
                heapq.heappush(heap, (t_eval, seq, K_EVALUATE, run))
            seq += 1
        self.seq = seq

    def _refill(self) -> None:
        """Fill the row of every stream that is read out, and of every
        stream past the middle of its row, with the stream's next _width
        values from its next unread one on, as delays or processing times
        (see ``_blocks``), and point ``_next`` at each row's first.  Each
        equals the scalar ``base + jitter * u`` or ``p_max * u`` bit for
        bit, since numpy repeats the operations elementwise.  A delay that
        reaches d_max is an internal error."""
        width = self._width
        read = self._next - self._row0
        due = np.flatnonzero((read > width // 2) | (self._flat[self._next] == _INF))
        rows = self._streams.uniforms(due, read[due])
        rows *= self._scale[due, None]
        rows += self._base[due, None]
        delays = rows[: np.searchsorted(due, len(self._src))]
        if delays.size and delays.max() >= self.sc.graph.d_max:
            i, j = np.argwhere(delays >= self.sc.graph.d_max)[0]
            a, b = self._src[due[i]], self._dst[due[i]]
            raise InternalError(f"sampled delay {float(delays[i, j])!r} reached d_max on {a}->{b}")
        self._blocks[due, :width] = rows
        self._next[due] = self._row0[due]

    def _draws(self, s: np.ndarray) -> np.ndarray:
        """The next value of each of the distinct streams s."""
        i = self._next[s]
        values = self._flat[i]
        out = values == _INF
        if np.count_nonzero(out):
            self._refill()
            i = self._next[s]
            values = self._flat[i]
        self._next[s] = i + 1
        return values

    def _draw_replies(self, dirs: np.ndarray, ex: np.ndarray, rev: np.ndarray, before: tuple | None = None) -> None:
        """Draw the delays of the replies to the requests on the directions
        ``dirs`` not drawn yet, each on the stream of its reverse direction
        in ``rev``, and record their arrivals in ``ex``, the directions'
        records as gathered from ``_ex``; with ``before``, a heap key (time,
        seq), only those of replies whose emission's key precedes it.  The
        caller writes them back to ``_ex`` before anything that may draw
        again: an abort's ``_settle`` would."""
        emit, reply = ex[_EMIT], ex[_REPLY]
        undrawn = reply == _INF
        if before is not None:
            undrawn &= (emit < before[0]) | ((emit == before[0]) & (self._eseq[dirs] < before[1]))
        at = undrawn.nonzero()[0]
        if at.size:
            reply[at] = emit[at] + self._draws(rev[at])

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
                self._readers.take(dirs, axis=1).ravel(), self._thresholds.take(dirs, axis=0), self._rev[dirs],
            )
        return plan

    def _on_evaluate(self, t: float, batch: list) -> None:
        """The evaluations ``batch``, each (v, k, seq), due at t, in event order.

        Each draws the reply delays of its node's exchanges not drawn yet,
        then completes the exchanges, whose replies must have arrived
        before t (a reply at t itself would have been scheduled after the
        evaluation), and reads only its node's clock at t."""
        first, is_open, cycle = self._first, self._open_mv, self.cycle
        for v, k, _ in batch:
            if cycle[v] != k or first[v] == first[v + 1] or not is_open[first[v]]:
                self._abort(f"evaluation fired out of order at node {v}")
        plan = self._plan(batch)
        dirs = plan.dirs
        ex = self._ex.take(dirs, axis=1)
        self._draw_replies(dirs, ex, plan.rev)
        missing = ex[_REPLY] >= t
        if np.count_nonzero(missing):
            self._ex[_REPLY][dirs] = ex[_REPLY]
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
        """At the end of the run: draw the replies emitted before ``now``
        (the aborting event, or every event up to the limit), then complete
        the exchanges not yet evaluated whose replies arrived at or before
        ``limit``, as reply events up to it would have, and close them."""
        dirs = np.flatnonzero(self._open)
        ex = self._ex.take(dirs, axis=1)
        self._draw_replies(dirs, ex, self._rev[dirs], self.now)
        self._ex[_REPLY][dirs] = ex[_REPLY]  # a timeout abort settles again
        done = ex[_REPLY] <= limit
        dirs = dirs[done]
        self._open[dirs] = False
        if dirs.size:
            readers = self._readers[: len(_READ_ROWS)].take(dirs, axis=1).ravel()
            self._complete(dirs, ex[:, done], readers, check_timeout)

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
    # members of one entry the handler pushes nothing else: the sends
    # between them take eseqs, but an eseq is no heap event.  So no other
    # event's (time, seq) key falls between two members of one entry, and
    # popping the entry runs exactly the node events that one heap event
    # per node event ran, in the same order.  Each member runs with
    # ``now`` at its own key, which is what the reply-draw test
    # (emit, eseq) < now and every abort read.  The evaluation branch
    # extends its batch with the whole entries due at the same instant,
    # as it did with single events.
    #
    # The heap holds only node events.  The grid ticks and the hardware
    # rate breakpoints, which only force samples, are read between pops
    # from one merged schedule: the next tick, sample_dt after the last one
    # (the addition chain a tick event that pushed the next computed), and
    # the next of the sorted breakpoints.  A node event at the same instant
    # goes first.  As events, the ticks and breakpoints took seqs; without
    # them each node event's seq and each send's eseq is less by the count
    # of forced events that took a seq before it.  That map is increasing,
    # so it shifts every node-event key and every eseq together, and each
    # comparison of two of them keeps its result: the heap's order, and
    # every (emit, eseq) < now test, whose ``now`` is a node event's key.
    # Samples still dedupe by instant: the loop samples ``current`` only
    # when it moves to a later instant, however many node events and
    # forced instants share a float.  At a forced instant f, ``now`` is
    # (f, seq), seq the next one to be taken: after every event run so far,
    # and before every node event still on the heap, all later than f.  The
    # move to an instant f samples ``current``, and the sample's drift check
    # may end the run; ``_abort`` then settles at ``current`` with ``now`` at
    # f: at the node event's key, or at (f, seq) when the forced instant
    # comes alone, where the first event at f, a tick among them, had its
    # own key.  Both keys lie at f, after every event before it, so they
    # draw the same replies but for those emitted at f itself, after the
    # last event.  Such a reply arrives after ``current``, the settle's
    # limit, so its exchange is not completed, the run ends, and the draw
    # reaches no output.
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
    # Each stream's values come from ``PcgStreams`` in rows of _width, and
    # a draw takes the next unread value of its row, ``_flat[_next[s]]``,
    # and advances ``_next[s]``: a wakeup's sends read their values
    # inline, and ``_draws`` reads one value of each of several streams.  A
    # draw that finds the inf after the last value, or an unfilled row,
    # refills first, with every ``_next`` up to date, so the k-th draw on
    # a stream gets its k-th value, as the k-th scalar random() call of
    # its own generator would.  Each stream s keeps two facts: its
    # ``PcgStreams`` state is the state p values on from its seed, and its
    # row holds values p to p + _width - 1, of which it has drawn the
    # first ``_next[s] - _row0[s]``, r; so it has drawn p + r values in
    # all.  At first p = r = 0 and the row is all inf, so the first draw
    # refills.  A refill advances the state by r, to A[r] x + G[r] inc, and
    # fills the row with the doubles of the states 1 to _width steps
    # further on: PCG64 advances its state before each output, so those
    # are values p + r to p + r + _width - 1, and r starts again at 0.  The
    # value a draw reads is thus value p + r, the next one.  A refill
    # touches only the rows and states of the streams it refills, and a
    # stream's draws only ever take its own row, whatever the order of
    # draws across streams.

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
                self.now, kind = (t, self.seq), None
            elif not heap or t > self.end:
                break
            else:
                t, seq, kind, payload = heapq.heappop(heap)
                self.now = (t, seq)
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
        self.now = (end, _INF)  # every event up to the end has run
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
