"""Communication graph model.

A network is an undirected connected graph whose edges carry per-direction
delay bounds and two uncertainty parameters: a fractional asymmetry bound
(``eps_d``) on the forward/backward delay difference, and an absolute
timestamping uncertainty (``eps_m``) per exchange.  From these each edge
gets a strictly positive error weight ``kappa`` that bounds the worst-case
neighbour-estimate error; all algorithmic distance queries run over the
kappa-weighted graph.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalError, ParameterError

__all__ = [
    "EdgeParams",
    "NetworkGraph",
    "validate_graph",
    "edge_kappa",
    "kappa_weights",
    "kappa_distance_matrix",
    "check_kappa_metric",
]


@dataclass(frozen=True)
class EdgeParams:
    """Link parameters for one bidirectional edge.

    ``fwd_delay``/``bwd_delay`` are per-direction base delays in seconds; a
    transmitted message additionally draws a jitter term uniform in
    ``[0, jitter]``, so the worst-case delay of a direction is its base plus
    the full jitter width.  ``eps_d`` bounds the fractional difference
    between the two directions, ``eps_m`` the absolute measurement
    uncertainty per exchange, and ``length`` is descriptive metadata only.
    """

    fwd_delay: float
    bwd_delay: float
    jitter: float = 0.0
    eps_d: float = 0.0
    eps_m: float = 0.0
    length: float = 1.0

    def delay_bound(self, forward: bool) -> float:
        """Worst-case delay for one direction: base plus full jitter."""
        base = self.fwd_delay if forward else self.bwd_delay
        return base + self.jitter

    @property
    def max_delay_bound(self) -> float:
        return max(self.fwd_delay, self.bwd_delay) + self.jitter


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected connected graph with per-edge parameters.

    Nodes are dense integers ``0..n-1``.  Edges are stored with ``u < v``;
    the ``fwd`` direction of :class:`EdgeParams` means ``u -> v``.
    Immutable after construction; distance queries are pure.
    """

    n: int
    edges: tuple[tuple[int, int, EdgeParams], ...]
    d_max: float

    @staticmethod
    def build(n: int, edges, d_max: float) -> "NetworkGraph":
        """Normalize an edge list into a NetworkGraph (u < v per edge)."""
        norm = []
        for u, v, p in edges:
            if u == v:
                raise ParameterError(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
                p = EdgeParams(
                    fwd_delay=p.bwd_delay,
                    bwd_delay=p.fwd_delay,
                    jitter=p.jitter,
                    eps_d=p.eps_d,
                    eps_m=p.eps_m,
                    length=p.length,
                )
            norm.append((u, v, p))
        norm.sort(key=lambda e: (e[0], e[1]))
        return NetworkGraph(n=n, edges=tuple(norm), d_max=d_max)

    @cached_property
    def directions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, edge, first) of the 2m link directions a -> b, in (a, b)
        order: direction d runs ``src[d]`` -> ``dst[d]`` over edge
        ``edge[d]`` of ``edges``, and node v's directions, by ascending head,
        are ``first[v]`` to ``first[v + 1]``.  Read-only arrays."""
        u, v = (np.array([e[i] for e in self.edges], dtype=np.intp) for i in (0, 1))
        src, dst, edge = np.concatenate((u, v)), np.concatenate((v, u)), np.tile(np.arange(len(u)), 2)
        order = np.lexsort((dst, src))
        src, dst, edge = src[order], dst[order], edge[order]
        first = np.searchsorted(src, np.arange(self.n + 1))
        for a in (src, dst, edge, first):
            a.flags.writeable = False
        return src, dst, edge, first

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each node's neighbours in ascending order: its directions' heads."""
        _, dst, _, first = self.directions
        dst, first = dst.tolist(), first.tolist()
        return {v: tuple(dst[first[v] : first[v + 1]]) for v in range(self.n)}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]


def validate_graph(g: NetworkGraph) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the graph is usable by the engine.
    """
    problems: list[str] = []
    if g.n < 1:
        return ["graph has no nodes"]
    seen = set()
    for u, v, p in g.edges:
        tag = f"edge ({u},{v})"
        if not (0 <= u < g.n and 0 <= v < g.n):
            problems.append(f"{tag}: node id out of range 0..{g.n - 1}")
            continue
        if (u, v) in seen:
            problems.append(f"{tag}: duplicate edge")
        seen.add((u, v))
        if p.fwd_delay <= 0 or p.bwd_delay <= 0:
            problems.append(f"{tag}: delays must be positive")
        if p.jitter < 0:
            problems.append(f"{tag}: jitter must be non-negative")
        if p.eps_d < 0:
            problems.append(f"{tag}: eps_d must be non-negative")
        if p.eps_m < 0:
            problems.append(f"{tag}: eps_m must be non-negative")
        if p.length <= 0:
            problems.append(f"{tag}: length must be positive")
        for forward in (True, False):
            if p.delay_bound(forward) >= g.d_max:
                problems.append(
                    f"{tag}: delay bound {p.delay_bound(forward)!r} not below d_max {g.d_max!r}"
                )
        asym = abs(p.fwd_delay - p.bwd_delay) + p.jitter
        allowed = p.max_delay_bound * p.eps_d
        if asym > allowed + 1e-15:
            problems.append(f"{tag}: asymmetry {asym:g} > {allowed:g}")
    if not _connected(g):
        problems.append("graph not connected")
    return problems


def _connected(g: NetworkGraph) -> bool:
    if g.n == 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def edge_kappa(e: EdgeParams, theta: float) -> float:
    """Static error weight of one edge.

    Twice the worst-direction delay bound scaled by drift-plus-asymmetry,
    plus twice the measurement uncertainty.  This upper-bounds the
    neighbour-estimate error an exchange over the edge can incur.
    """
    if theta < 1.0:
        raise ParameterError(f"theta must be >= 1, got {theta!r}")
    return 2.0 * (e.max_delay_bound * (theta - 1.0 + e.eps_d) + e.eps_m)


def kappa_weights(g: NetworkGraph, theta: float) -> dict[tuple[int, int], float]:
    """kappa weight per undirected edge, keyed (u, v) with u < v."""
    return {(u, v): edge_kappa(p, theta) for u, v, p in g.edges}


def _in_edges(g: NetworkGraph, kappa: dict[tuple[int, int], float]) -> tuple[np.ndarray, ...]:
    """(heads, tails, weights) of the 2m directed edges, sorted by head and
    then by tail: direction d of ``g.directions`` enters ``src[d]`` from
    ``dst[d]``."""
    src, dst, edge, _ = g.directions
    return src, dst, np.array([kappa[(u, v)] for u, v, _ in g.edges])[edge]


def kappa_distance_matrix(g: NetworkGraph, kappa: dict[tuple[int, int], float]) -> np.ndarray:
    """All-pairs kappa-weighted shortest-path distances (dense n x n).

    ``out[s, v]`` is d(s, v): the least kappa sum over paths from s to v,
    accumulated from the source outward as d(s, u) + kappa(u, v), or +inf
    where v is unreachable.  It is computed by an all-sources Bellman-Ford
    over arrays.  ``dt[v, s]`` holds the current d(s, v), starting at +inf
    with a zero diagonal.  The 2m directed edges are sorted by head and
    split into in-degree slots: slot j holds the j-th incoming edge of every
    node that has one, so no head repeats within a slot.  A round relaxes
    every slot in place, ``dt[v] = min(dt[v], dt[u] + kappa(u, v))``.
    Rounds stop after the first one that changes nothing, at most n of them.

    The result is bit for bit the one of a Dijkstra run from every source,
    because every candidate is formed as Dijkstra forms it, d(s, u) +
    kappa(u, v), and rounded float addition is monotone: a <= b gives
    a + k <= b + k, so each relaxation is a monotone map.
    - The limit L has L(v) <= L(u) + kappa(u, v) on every edge, so L is at
      most every source-ordered path sum.  Dijkstra's value is one: the sum
      along its predecessor path, of at most n - 1 edges, so n - 1 rounds
      reach it and round n changes nothing.
    - Dijkstra's result D is a fixed point of every relaxation, since each
      settled d(s, u) was relaxed into all of u's neighbours, and D lies
      below the start.  Monotone maps keep every round at or above D.
    So L equals D exactly.
    """
    n = g.n
    dt = np.full((n, n), np.inf)
    np.fill_diagonal(dt, 0.0)
    if g.edges:
        heads, tails, weights = _in_edges(g, kappa)
        # rank of each edge among the edges entering its head
        rank = np.arange(heads.size) - g.directions[3][heads]
        slots = []
        for j in range(int(rank.max()) + 1):
            sel = rank == j
            slots.append((heads[sel], tails[sel], weights[sel, None]))
        for _ in range(n):
            changed = False
            for dst, src, k in slots:
                cand = dt[src]
                cand += k
                cur = dt[dst]
                if (cand < cur).any():
                    changed = True
                    dt[dst] = np.minimum(cur, cand, out=cand)
            if not changed:
                break
    return np.ascontiguousarray(dt.T)


# Values per block of rows in :func:`check_kappa_metric`: its sums take
# (rows, 2m) floats, one block (8 MiB) at a time.
_CHECK_BLOCK = 1 << 20


def check_kappa_metric(g: NetworkGraph, kappa: dict[tuple[int, int], float], dist: np.ndarray) -> None:
    """Raise ``InternalError`` unless ``dist`` is exactly the shortest-path
    metric of kappa on a connected graph: d(a, a) = 0; d(a, b) <= d(a, x) +
    kappa(x, b) for every node a and directed edge x -> b; and for a != b,
    d(a, b) equals that sum for some in-neighbour x of b.  So d(a, b) is the
    least such sum, and for b = a no sum is below 0.  The sums are formed as
    :func:`kappa_distance_matrix` forms them, so its fixed point passes bit
    for bit: each d(a, b) is at or below every sum and equal to the one that
    last lowered it.  O(n * m), a block of rows of the (n, 2m) sums at a time.
    """
    bad = np.flatnonzero(np.diagonal(dist) != 0.0)
    if len(bad):
        raise InternalError(f"kappa distance d({bad[0]}, {bad[0]}) is {float(dist[bad[0], bad[0]])!r}, not 0")
    if not g.edges:
        return
    heads, tails, weights = _in_edges(g, kappa)
    starts = g.directions[3][:-1]  # a connected graph gives every node an edge
    rows = max(1, _CHECK_BLOCK // len(tails))
    for lo in range(0, g.n, rows):
        d = dist[lo : lo + rows]
        least = np.minimum.reduceat(d[:, tails] + weights, starts, axis=1)
        own = np.arange(len(d)), np.arange(lo, lo + len(d))
        least[own] = np.minimum(least[own], 0.0)
        bad = np.argwhere(d != least)
        if len(bad):
            r, b = bad[0].tolist()
            x, y = float(d[r, b]), float(least[r, b])
            raise InternalError(
                f"kappa distance d({lo + r}, {b}) = {x!r} {'exceeds' if x > y else 'is not'} {y!r}, the least "
                f"d({lo + r}, x) + kappa(x, {b}) over the in-neighbours x of {b}"
            )
