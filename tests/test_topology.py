import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import engine
from gcsim import scenario as scen
from gcsim.errors import ParameterError
from gcsim.topology import (
    EdgeParams,
    NetworkGraph,
    edge_kappa,
    kappa_distance_matrix,
    kappa_weights,
    validate_graph,
)

from reference import dijkstra_matrix
from scenario_gen import random_template_doc


def simple_edge(**kw):
    base = dict(fwd_delay=1.0, bwd_delay=1.0, jitter=0.0, eps_d=0.0, eps_m=0.1, length=1.0)
    base.update(kw)
    return EdgeParams(**base)


def graph_from_pairs(n, pairs, d_max=10.0, edge=None):
    edge = edge or simple_edge()
    return NetworkGraph.build(n, [(u, v, edge) for u, v in pairs], d_max)


def hop_matrix(g):
    """Unit-weight distances: the hop count between every pair."""
    return kappa_distance_matrix(g, {(u, v): 1.0 for u, v, _ in g.edges})


def bfs_oracle(n, pairs, src):
    adj = {i: [] for i in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    dist = {src: 0}
    q = deque([src])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


class TestValidateGraph:
    def test_triangle_all_slack(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        assert validate_graph(g) == []

    def test_disconnected(self):
        g = graph_from_pairs(4, [(0, 1), (2, 3)])
        assert any("graph not connected" in p for p in validate_graph(g))

    def test_asymmetry_violation(self):
        e = simple_edge(fwd_delay=5.0, bwd_delay=9.0, jitter=0.0, eps_d=0.1)
        g = NetworkGraph.build(2, [(0, 1, e)], d_max=20.0)
        msgs = [p for p in validate_graph(g) if "asymmetry" in p]
        assert msgs and "4 > 0.9" in msgs[0]

    def test_delay_bound_must_be_below_d_max(self):
        e = simple_edge(fwd_delay=9.5, bwd_delay=9.5, jitter=1.0, eps_d=0.2)
        g = NetworkGraph.build(2, [(0, 1, e)], d_max=10.0)
        assert any("d_max" in p for p in validate_graph(g))

    def test_nonpositive_parameters(self):
        e = simple_edge(fwd_delay=-1.0)
        g = NetworkGraph.build(2, [(0, 1, e)], d_max=10.0)
        assert any("positive" in p for p in validate_graph(g))


class TestHopDistance:
    def test_same_node(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        assert hop_matrix(g)[1, 1] == 0

    def test_line(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        assert hop_matrix(g)[0, 2] == 2

    def test_grid_corners(self):
        pairs = []
        for r in range(4):
            for c in range(4):
                if c + 1 < 4:
                    pairs.append((r * 4 + c, r * 4 + c + 1))
                if r + 1 < 4:
                    pairs.append((r * 4 + c, (r + 1) * 4 + c))
        g = graph_from_pairs(16, pairs)
        assert hop_matrix(g)[0, 15] == bfs_oracle(16, pairs, 0)[15] == 6


class TestHopDiameter:
    def test_single_edge(self):
        assert hop_matrix(graph_from_pairs(2, [(0, 1)])).max() == 1

    def test_ring8(self):
        pairs = [(i, (i + 1) % 8) for i in range(8)]
        assert hop_matrix(graph_from_pairs(8, pairs)).max() == 4

    def test_random_graph_matches_all_pairs_bfs(self):
        rng = np.random.default_rng(42)
        pairs = [(int(rng.integers(0, i)), i) for i in range(1, 16)]
        pairs += [(2, 9), (4, 13), (0, 15)]
        pairs = sorted(set((min(u, v), max(u, v)) for u, v in pairs))
        g = graph_from_pairs(16, pairs)
        expect = max(
            d for src in range(16) for d in bfs_oracle(16, pairs, src).values()
        )
        assert hop_matrix(g).max() == expect


class TestEdgeKappa:
    def test_direct_arithmetic(self):
        e = EdgeParams(fwd_delay=10.0, bwd_delay=14.0, jitter=0.0, eps_d=0.01, eps_m=0.001)
        assert edge_kappa(e, 1.001) == pytest.approx(0.31, abs=1e-12)

    def test_all_error_sources_zero(self):
        e = EdgeParams(fwd_delay=1.0, bwd_delay=1.0)
        assert edge_kappa(e, 1.0) == 0.0

    def test_drift_only(self):
        e = EdgeParams(fwd_delay=1.0, bwd_delay=1.0)
        assert edge_kappa(e, 1.01) == pytest.approx(0.02, abs=1e-15)

    def test_theta_below_one_rejected(self):
        with pytest.raises(ParameterError):
            edge_kappa(EdgeParams(1.0, 1.0), 0.99)


def enumerate_paths_oracle(n, pairs, kappa, v, w):
    """Minimum kappa-sum over all simple paths, by exhaustive DFS."""
    adj = {i: [] for i in range(n)}
    for u, x in pairs:
        adj[u].append(x)
        adj[x].append(u)
    best = math.inf

    def dfs(node, seen, acc):
        nonlocal best
        if node == w:
            best = min(best, acc)
            return
        for nxt in adj[node]:
            if nxt not in seen:
                key = (min(node, nxt), max(node, nxt))
                dfs(nxt, seen | {nxt}, acc + kappa[key])

    dfs(v, {v}, 0.0)
    return best


class TestWeightedDistance:
    def test_line_single_path(self):
        e1 = simple_edge(eps_m=0.15)
        e2 = simple_edge(eps_m=0.25)
        g = NetworkGraph.build(3, [(0, 1, e1), (1, 2, e2)], d_max=10.0)
        kappa = kappa_weights(g, 1.0)
        assert kappa[(0, 1)] == pytest.approx(0.3)
        assert kappa[(1, 2)] == pytest.approx(0.5)
        assert kappa_distance_matrix(g, kappa)[0, 2] == pytest.approx(0.8, abs=1e-12)

    def test_triangle_two_hops_beat_direct(self):
        edges = [
            (0, 1, simple_edge(eps_m=0.1)),
            (1, 2, simple_edge(eps_m=0.1)),
            (0, 2, simple_edge(eps_m=0.25)),
        ]
        g = NetworkGraph.build(3, edges, d_max=10.0)
        kappa = kappa_weights(g, 1.0)
        assert kappa_distance_matrix(g, kappa)[0, 2] == pytest.approx(0.4, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(3, 7))
            pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
            extra = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(2)]
            pairs += [(min(u, v), max(u, v)) for u, v in extra if u != v]
            pairs = sorted(set(pairs))
            edges = [(u, v, simple_edge(eps_m=float(rng.uniform(0.05, 1.0)))) for u, v in pairs]
            g = NetworkGraph.build(n, edges, d_max=10.0)
            kappa = kappa_weights(g, 1.0)
            dist = kappa_distance_matrix(g, kappa)
            for v, w in itertools.combinations(range(n), 2):
                expect = enumerate_paths_oracle(n, pairs, kappa, v, w)
                assert dist[v, w] == pytest.approx(expect, abs=1e-12)


class TestMetricProperties:
    def test_distance_is_a_metric_on_small_graphs(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            pairs = sorted(
                set((int(rng.integers(0, i)), i) for i in range(1, n))
                | set(
                    (min(a, b), max(a, b))
                    for a, b in rng.integers(0, n, size=(2, 2))
                    if a != b
                )
            )
            edges = [(u, v, simple_edge(eps_m=float(rng.uniform(0.05, 0.5)))) for u, v in pairs]
            g = NetworkGraph.build(n, edges, d_max=10.0)
            kappa = kappa_weights(g, 1.0)
            dist = kappa_distance_matrix(g, kappa)
            assert np.all(dist >= 0)
            assert np.all(np.diag(dist) == 0)
            assert np.allclose(dist, dist.T)
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert dist[a, b] > 0
                    for c in range(n):
                        assert dist[a, c] <= dist[a, b] + dist[b, c] + 1e-12
            for u, v in pairs:
                assert dist[u, v] <= kappa[(u, v)] + 1e-15

    def test_hop_distance_bounded_by_diameter(self):
        pairs = [(i, (i + 1) % 8) for i in range(8)]
        hops = hop_matrix(graph_from_pairs(8, pairs))
        diam = hops.max()
        for v, w in itertools.combinations(range(8), 2):
            assert hops[v, w] == bfs_oracle(8, pairs, v)[w] <= diam


@st.composite
def weighted_graphs(draw):
    """A random connected graph with random link parameters and theta."""
    n = draw(st.integers(1, 12))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # a random tree
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pos = st.floats(0.01, 3.0)
    edges = [
        (u, v, EdgeParams(fwd_delay=draw(pos), bwd_delay=draw(pos), jitter=draw(st.floats(0.0, 0.5)),
                          eps_d=draw(st.floats(0.0, 0.5)), eps_m=draw(st.floats(0.0, 0.5))))
        for u, v in sorted(pairs)
    ]
    g = NetworkGraph.build(n, edges, d_max=10.0)
    return g, kappa_weights(g, draw(st.floats(1.0, 1.1)))


class TestBitIdenticalToDijkstra:
    """The array relaxation returns Dijkstra's matrix exactly, not approximately:
    every entry is the same rounded source-outward path sum."""

    @given(weighted_graphs())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, graph):
        g, kappa = graph
        assert np.array_equal(kappa_distance_matrix(g, kappa), dijkstra_matrix(g, kappa))

    def test_exact_tie_with_different_float_sums(self):
        # 0.1 + 0.2 rounds above 0.3: the direct edge wins from either end
        g = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        kappa = {(0, 1): 0.1, (1, 2): 0.2, (0, 2): 0.3}
        dist = kappa_distance_matrix(g, kappa)
        assert dist[0, 2] == dist[2, 0] == 0.3
        assert np.array_equal(dist, dijkstra_matrix(g, kappa))

    def test_accumulation_order_follows_the_source(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 round differently, so the
        # line's matrix is not symmetric, exactly as Dijkstra's is not
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        kappa = {(0, 1): 0.1, (1, 2): 0.2, (2, 3): 0.3}
        dist = kappa_distance_matrix(g, kappa)
        assert dist[0, 3] == (0.1 + 0.2) + 0.3 != dist[3, 0] == (0.3 + 0.2) + 0.1
        assert np.array_equal(dist, dijkstra_matrix(g, kappa))

    def test_disconnected_graph_has_matching_inf(self):
        g = graph_from_pairs(5, [(0, 1), (2, 3), (3, 4)])
        kappa = {(0, 1): 0.5, (2, 3): 0.25, (3, 4): 0.7}
        dist = kappa_distance_matrix(g, kappa)
        assert np.isinf(dist[0, 2]) and np.isinf(dist[4, 1])
        assert np.array_equal(dist, dijkstra_matrix(g, kappa))

    def test_single_node(self):
        g = NetworkGraph.build(1, [], d_max=1.0)
        assert np.array_equal(kappa_distance_matrix(g, {}), np.zeros((1, 1)))

    @pytest.mark.parametrize("name", scen.bundled_names())
    def test_bundled_scenarios(self, name):
        sc = scen.load_scenario(name)
        assert np.array_equal(sc.dist, dijkstra_matrix(sc.graph, sc.kappa))
        assert sc.diameter == float(sc.dist.max())

    def test_benchmark_shaped_random_graph(self):
        # the benchmark's n = 256 random template: uniform links, so many exact ties
        edge = {"fwd_delay": 1.0, "bwd_delay": 1.0, "jitter": 0.05, "eps_d": 0.1, "eps_m": 0.001}
        sc = scen.build_scenario({
            "graph": {"d_max": 1.5, "template": {"kind": "random", "n": 256, "extra_edges": 128,
                                                 "seed": 5, "edge": edge}},
            "clocks": {"theta": 1.01, "mu": 0.1,
                       "default": {"generator": "alternating", "dwell": 1000.0, "start_high": False}},
            "gcs": {"T": 3.5, "T_stab": 1.5, "p_max": 0.2},
            "sim": {"horizon_cycles": 6, "sample_dt": 1.0, "master_seed": 1, "metrics": "skew_only"},
        })
        dist = kappa_distance_matrix(sc.graph, sc.kappa)  # a skew_only scenario keeps only its maximum
        assert dist.flags.c_contiguous
        assert np.array_equal(dist, dijkstra_matrix(sc.graph, sc.kappa))
        assert sc.diameter == float(dist.max())
        # the same graph with per-edge weights, so ties are no longer uniform
        rng = np.random.default_rng(5)
        kappa = {e: k * float(rng.uniform(0.5, 1.5)) for e, k in sc.kappa.items()}
        assert np.array_equal(kappa_distance_matrix(sc.graph, kappa), dijkstra_matrix(sc.graph, kappa))


@st.composite
def random_template_docs(draw):
    """A random-template document on a drawn graph, in either metrics mode."""
    n = draw(st.integers(2, 24))
    doc = random_template_doc(n, 2, draw(st.sampled_from(["full", "skew_only"])))
    tpl = doc["graph"]["template"]
    tpl["extra_edges"] = draw(st.integers(0, min(n, (n - 1) * (n - 2) // 2)))
    tpl["seed"] = draw(st.integers(0, 2**32 - 1))
    tpl["edge"]["eps_d"] = draw(st.floats(0.05, 0.3))  # at least the jitter, its asymmetry
    return doc


@given(random_template_docs())
@settings(max_examples=60, deadline=None)
def test_scenario_takes_the_diameter_once_and_keeps_the_matrix_in_full_mode(doc):
    sc = scen.build_scenario(doc)
    dist = kappa_distance_matrix(sc.graph, sc.kappa)
    assert sc.diameter == float(dist.max())
    if sc.metrics_mode == "full":
        assert np.array_equal(sc.dist, dist)
    else:
        assert sc.dist is None


class TestDirections:
    """The link directions are the one neighbourhood layout: the engine's
    streams and exchanges, the triggers and the distance relaxation all
    read ``NetworkGraph.directions``."""

    @given(weighted_graphs())
    @settings(max_examples=100, deadline=None)
    def test_layout(self, graph):
        g, _ = graph
        src, dst, edge, first = g.directions
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert pairs == sorted(pairs) and len(set(pairs)) == 2 * len(g.edges)
        degree = np.bincount([x for u, v, _ in g.edges for x in (u, v)], minlength=g.n)
        assert np.diff(first).tolist() == degree.tolist() and first[0] == 0
        assert sorted(edge.tolist()) == sorted(2 * list(range(len(g.edges))))
        for (a, b), e in zip(pairs, edge.tolist()):
            assert (min(a, b), max(a, b)) == g.edges[e][:2]
        for v in range(g.n):
            assert g.neighbors(v) == tuple(dst[first[v] : first[v + 1]].tolist())

    @given(random_template_docs())
    @settings(max_examples=30, deadline=None)
    def test_engine_reverse_is_an_involution_that_swaps_the_ends(self, doc):
        sc = scen.build_scenario(doc)
        sim = engine._Simulation(sc)
        src, dst, _, _ = sc.graph.directions
        rev = sim._rev
        assert np.array_equal(rev[rev], np.arange(len(src)))
        assert np.array_equal(src[rev], dst) and np.array_equal(dst[rev], src)
        assert np.array_equal(sim._src, src) and np.array_equal(sim._dst, dst)
