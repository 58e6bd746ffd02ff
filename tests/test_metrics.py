import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcsim import engine, metrics, topology
from gcsim import scenario as scen
from gcsim.errors import InternalError, ParameterError, RunAborted
from gcsim.topology import EdgeParams, NetworkGraph, check_kappa_metric, kappa_distance_matrix, kappa_weights
from gcsim.trace import Trace

import reference
from reference import global_skew, level_potential, local_skew, potential, trailing_node
from scenario_gen import corollary1_doc, wide_offset_doc, zero_drift_doc


def unit_kappa_graph(pairs, n, kappas=None):
    """Graph whose edge kappas are exactly the given values (theta=1)."""
    kappas = kappas or {}
    edges = [
        (u, v, EdgeParams(1.0, 1.0, eps_m=kappas.get((u, v), 1.0) / 2.0))
        for u, v in pairs
    ]
    g = NetworkGraph.build(n, edges, d_max=10.0)
    kappa = kappa_weights(g, 1.0)
    return g, kappa, kappa_distance_matrix(g, kappa)


class TestSkews:
    def test_identical_clocks(self):
        g, _, _ = unit_kappa_graph([(0, 1)], 2)
        assert local_skew([5.0, 5.0], [(0, 1)]) == 0.0
        assert global_skew([5.0, 5.0]) == 0.0

    def test_two_nodes(self):
        assert local_skew([10.0, 12.5], [(0, 1)]) == 2.5

    def test_line_of_five(self):
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        edges = [(i, i + 1) for i in range(4)]
        assert local_skew(values, edges) == 1.0
        assert global_skew(values) == 4.0

    def test_global_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            values = list(rng.uniform(-10, 10, size=6))
            expect = max(abs(a - b) for a, b in itertools.combinations(values, 2))
            assert global_skew(values) == pytest.approx(expect, abs=1e-12)


class TestPotential:
    def test_all_equal_is_zero(self):
        _, _, dist = unit_kappa_graph([(0, 1), (1, 2)], 3)
        for v in range(3):
            for s in (1, 2):
                assert potential([3.0, 3.0, 3.0], dist, v, s) == 0.0

    def test_two_nodes(self):
        _, _, dist = unit_kappa_graph([(0, 1)], 2)
        assert potential([0.0, 5.0], dist, 0, 1) == pytest.approx(4.0)
        val, node = level_potential([0.0, 5.0], dist, 1)
        assert (val, node) == (pytest.approx(4.0), 0)

    def test_tie_breaks_to_lowest_id(self):
        _, _, dist = unit_kappa_graph([(0, 1)], 2)
        assert level_potential([1.0, 1.0], dist, 1) == (0.0, 0)

    def test_line_matches_exhaustive(self):
        pairs = [(0, 1), (1, 2), (2, 3)]
        kappas = {(0, 1): 0.4, (1, 2): 0.7, (2, 3): 0.3}
        g, kappa, dist = unit_kappa_graph(pairs, 4, kappas)
        rng = np.random.default_rng(8)
        for _ in range(40):
            values = list(rng.uniform(-3, 3, size=4))
            for s in (1, 2):
                c = 2 * s - 1
                for v in range(4):
                    expect = max(values[w] - values[v] - c * dist[v, w] for w in range(4))
                    assert potential(values, dist, v, s) == pytest.approx(
                        expect, abs=1e-12
                    )

    def test_leading_pair_identifies_ahead_node(self):
        # kappa 6 with a distance of 1, which is not the kappa-metric: the
        # ahead node 1 of the maximizing pair could not be slow.  The
        # potentials read any matrix; the static check names the pair
        g, kappa, _ = unit_kappa_graph([(0, 1)], 2, {(0, 1): 6.0})
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        values = [0.0, 5.0]
        psi_levels, viol, _ = metrics.trace_oracles(np.zeros(1), np.array([values]), dist, 1, theta=1.0)
        level, base = level_potential(values, dist, 1)
        assert (base, viol) == (0, [])
        assert psi_levels[0, 0] == pytest.approx(level)
        assert level == pytest.approx(4.0)
        with pytest.raises(InternalError, match=r"d\(0, 1\) = 1.0 is not 6.0, the least d\(0, x\) \+ kappa\(x, 1\)"):
            check_kappa_metric(g, kappa, dist)


class TestConditions:
    def test_all_equal(self):
        g, kappa, _ = unit_kappa_graph([(0, 1)], 2)
        assert not metrics.slow_condition([1.0, 1.0], g, kappa, 0, 1)
        assert not metrics.fast_condition([1.0, 1.0], g, kappa, 0, 1)

    def test_slow_boundary_non_strict(self):
        g, kappa, _ = unit_kappa_graph([(0, 1)], 2)
        assert metrics.slow_condition([2.0, 1.0], g, kappa, 0, 1)

    def test_fast_needs_double_threshold(self):
        g, kappa, _ = unit_kappa_graph([(0, 1)], 2)
        assert not metrics.fast_condition([0.0, 1.9], g, kappa, 0, 1)
        assert metrics.fast_condition([0.0, 2.0], g, kappa, 0, 1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_scalar_at_the_thresholds(self, data):
        # half-integer clocks and kappas make every product and gap exact,
        # so gaps land on the thresholds and each >= / <= is tested there
        n = data.draw(st.integers(2, 6))
        pairs = sorted({tuple(sorted(p)) for p in data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            min_size=1, max_size=8))})
        kappas = {p: data.draw(st.sampled_from([0.5, 1.0, 1.5])) for p in pairs}
        g, kappa, _ = unit_kappa_graph(pairs, n, kappas)
        values = [data.draw(st.integers(-12, 12)) / 2.0 for _ in range(n)]
        # every node with neighbours is one segment of the link directions
        src, dst, edge, first = g.directions
        has = np.diff(first) > 0
        K = np.array([kappa[(u, v)] for u, v, _ in g.edges])[edge]
        L = np.array(values)
        slow, fast = metrics.level_conditions(L[dst] - L[src], metrics.condition_thresholds(K, 3), first[:-1][has])
        for r, v in enumerate(np.flatnonzero(has).tolist()):
            for s in (1, 2, 3):
                assert slow[r, s - 1] == reference.slow_condition(values, g, kappa, v, s)
                assert fast[r, s - 1] == reference.fast_condition(values, g, kappa, v, s)
                assert metrics.slow_condition(values, g, kappa, v, s) == slow[r, s - 1]
                assert metrics.fast_condition(values, g, kappa, v, s) == fast[r, s - 1]
        for v in np.flatnonzero(~has).tolist():  # no neighbour: no condition holds
            for s in (1, 2, 3):
                assert not metrics.slow_condition(values, g, kappa, v, s)
                assert not metrics.fast_condition(values, g, kappa, v, s)

    def test_multi_neighbour_matches_brute_force(self):
        pairs = [(0, 1), (0, 2), (0, 3)]
        g, kappa, _ = unit_kappa_graph(pairs, 4, {(0, 1): 0.5, (0, 2): 1.0, (0, 3): 1.5})
        rng = np.random.default_rng(12)
        for _ in range(200):
            values = list(rng.uniform(-4, 4, size=4))
            for s in (1, 2):
                c = 2 * s - 1
                sc1 = any(values[0] - values[x] >= c * kappa[(0, x)] for x in (1, 2, 3))
                sc2 = all(values[y] - values[0] <= c * kappa[(0, y)] for y in (1, 2, 3))
                assert metrics.slow_condition(values, g, kappa, 0, s) == (sc1 and sc2)
                c = 2 * s
                fc1 = any(values[x] - values[0] >= c * kappa[(0, x)] for x in (1, 2, 3))
                fc2 = all(values[0] - values[y] <= c * kappa[(0, y)] for y in (1, 2, 3))
                assert metrics.fast_condition(values, g, kappa, 0, s) == (fc1 and fc2)


class TestTrailing:
    def test_all_equal_nobody_trails(self):
        _, _, dist = unit_kappa_graph([(0, 1), (1, 2)], 3)
        for w in range(3):
            assert not trailing_node([1.0, 1.0, 1.0], dist, w, 2)

    def test_two_nodes_behind(self):
        _, _, dist = unit_kappa_graph([(0, 1)], 2)
        assert trailing_node([0.0, 5.0], dist, 0, 1)
        assert not trailing_node([0.0, 5.0], dist, 1, 1)

    def test_matches_brute_force(self):
        pairs = [(0, 1), (1, 2), (0, 2), (2, 3)]
        g, kappa, dist = unit_kappa_graph(pairs, 4, {p: 0.5 for p in pairs})
        rng = np.random.default_rng(19)
        for _ in range(100):
            values = list(rng.uniform(-2, 2, size=4))
            for w in range(4):
                expect = False
                for s in (1, 2):
                    for v in range(4):
                        row = [values[v] - values[x] - 2 * s * dist[v, x] for x in range(4)]
                        if max(row) > 0 and row[w] >= max(row) - 1e-12:
                            expect = True
                assert trailing_node(values, dist, w, 2) == expect


class TestTheoremBounds:
    def test_theorem2_example(self):
        assert metrics.theorem2_bound(1.0, 8.889, 10.0) == pytest.approx(2.0)

    def test_theorem2_degenerate_replaced(self):
        assert metrics.theorem2_bound(1.0, 1.0, 10.0) == pytest.approx(2.0)
        assert metrics.theorem2_levels(1.0, 1.0, 10.0) < 1
        assert metrics.theorem2_levels(1.0, 8.889, 10.0) >= 1

    def test_theorem2_small_kappa(self):
        # ceil(log_100(10 / 0.31)) = 1
        assert metrics.theorem2_bound(0.31, 10.0, 100.0) == pytest.approx(0.62)

    def test_theorem2_rejects_sigma_at_most_one(self):
        with pytest.raises(ParameterError):
            metrics.theorem2_bound(1.0, 10.0, 1.0)

    def test_theorem3_line(self):
        pairs = [(i, i + 1) for i in range(8)]
        _, _, dist = unit_kappa_graph(pairs, 9)
        got = metrics.theorem3_bound(float(dist.max()), 10.0)
        assert got == pytest.approx(80.0 / 9.0, rel=1e-12)

    def test_theorem3_sigma_infinity_limit(self):
        pairs = [(i, i + 1) for i in range(8)]
        _, _, dist = unit_kappa_graph(pairs, 9)
        assert metrics.theorem3_bound(float(dist.max()), float("inf")) == pytest.approx(8.0)

    def test_theorem3_matches_floyd_warshall(self):
        pairs = [(i, (i + 1) % 6) for i in range(6)]
        kappas = {p: k for p, k in zip(sorted(pairs), (0.2, 0.9, 0.4, 0.7, 0.3, 0.6))}
        _, kappa, dist = unit_kappa_graph(sorted(pairs), 6, kappas)
        n = 6
        fw = np.full((n, n), np.inf)
        np.fill_diagonal(fw, 0.0)
        for (u, v), k in kappa.items():
            fw[u, v] = fw[v, u] = k
        for m in range(n):
            for a in range(n):
                for b in range(n):
                    fw[a, b] = min(fw[a, b], fw[a, m] + fw[m, b])
        sigma = 5.0
        expect = (1 + 1 / (sigma - 1)) * fw.max()
        assert metrics.theorem3_bound(float(dist.max()), sigma) == pytest.approx(expect, rel=1e-12)


@pytest.fixture(scope="module")
def short_run():
    sc = scen.build_scenario(zero_drift_doc(True, horizon_cycles=10))
    return engine.run(sc), sc.dist


class TestCorollary1:
    def test_zero_drift_run_is_clean(self, short_run):
        res, dist = short_run
        assert metrics.corollary1_check_all(res.trace, dist, theta=1.0) == []

    def test_corrupted_trace_is_flagged(self, short_run):
        res, dist = short_run
        trace = res.trace
        trace.logical = trace.logical.copy()
        trace.logical[len(trace) // 2, 0] += 1.0
        bad = metrics.corollary1_check_all(trace, dist, theta=1.0)
        assert bad and all(v.kind == "corollary1" for v in bad)

    def test_fast_neighbour_is_flagged_on_its_piece(self, monkeypatch):
        sc = scen.build_scenario(corollary1_doc())
        res = engine.run(sc)
        hits = [v for v in res.violations if v.kind == "corollary1"]
        assert hits
        first = hits[0]
        assert first.time == pytest.approx(49.727, abs=1e-3)
        assert first.detail.startswith("node 23 level 1, leader 15:")
        assert metrics.corollary1_check_all(res.trace, sc.dist, sc.params.theta) == hits
        # blocks of two rows: every other piece starts in the previous block
        trace, dist, theta = res.trace, sc.dist, sc.params.theta
        assert chained_oracles(trace, dist, theta, 2) == hits
        assert chained_oracles(trace, dist, theta, len(trace)) == hits
        assert chained_oracles(trace, dist, theta, 7, reference.dense_trace_oracles) == hits
        # oracle chunks of one row, or of a size that divides no row count:
        # the floors are carried from chunk to chunk
        for chunk_values in (1, 50):
            monkeypatch.setattr(metrics, "_CHUNK_VALUES", chunk_values)
            assert [v for v in engine.run(sc).violations if v.kind == "corollary1"] == hits

    def test_aborted_run_reports_the_hit_of_its_last_chunk(self):
        # abort right after the sample that ends the first hit's piece: the
        # oracles run on the buffered chunk before RunAborted is raised
        sc = scen.build_scenario(corollary1_doc())
        first = next(v for v in engine.run(sc).violations if v.kind == "corollary1")
        sim = engine._Simulation(sc)
        sample = sim.oracle.sample

        def sample_then_abort(t):
            sample(t)
            if t == first.time:
                sim._abort("stopped after the first corollary1 hit")

        sim.oracle.sample = sample_then_abort
        with pytest.raises(RunAborted) as aborted:
            sim.run()
        assert [v for v in aborted.value.violations if v.kind == "corollary1"] == [first]
        assert first.time == pytest.approx(49.727, abs=1e-3)
        assert first.detail.startswith("node 23 level 1, leader 15:")

    def test_check_covers_instants_between_samples(self):
        # star around node 0 with unit distances.  psi_1(0) is 1 at both
        # samples, but on the piece its maximiser switches from node 1 (gap
        # falling) to node 2 (gap rising at slope 1): between the midpoint
        # and the right end it rises by 0.5 in 0.5 s
        trace = stored_trace(np.array([0.0, 1.0]), np.array([[0.0, 2.0, 1.0], [1.0, 2.0, 3.0]]))
        dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        assert metrics.corollary1_check_all(trace, dist, theta=2.5) == []
        bad = metrics.corollary1_check_all(trace, dist, theta=1.01)
        assert [(v.time, v.detail.split(":")[0]) for v in bad] == [(1.0, "node 0 level 1, leader 2")]

    @pytest.mark.parametrize("chunk", [4096, 7])
    def test_small_excess_sustained_over_many_pieces_is_flagged(self, chunk):
        # psi_1(0) = L_1 - L_0 - 1 rises at (theta - 1) + 1e-10 over 1000
        # one-second pieces: 1e-10 over the envelope on each piece, far below
        # the tolerance, but 1e-7 over the run
        theta = 1.01
        t = np.arange(1001.0)
        _, _, dist = unit_kappa_graph([(0, 1)], 2)
        exact = stored_trace(t, np.column_stack([t, 1.0 + theta * t]))
        assert metrics.corollary1_check_all(exact, dist, theta) == []
        assert chained_oracles(exact, dist, theta, chunk) == []
        excess = stored_trace(t, np.column_stack([t, 1.0 + (theta + 1e-10) * t]))
        bad = metrics.corollary1_check_all(excess, dist, theta)
        assert chained_oracles(excess, dist, theta, chunk) == bad
        assert bad and all(v.detail.startswith("node 0 level 1, leader 1:") for v in bad)
        assert bad[0].time == pytest.approx(11.0, abs=1.0)  # where the rise first tops 1e-9
        assert bad[-1].time == 1000.0


def stored_trace(times, logical):
    """A full-mode trace of the given clock values, for the stored-trace checks."""
    S, n = logical.shape
    record = (times, logical, np.zeros((S, n)), np.zeros((S, n), dtype=np.int8), np.zeros(S), np.zeros(S),
              np.zeros((S, 1)))
    return Trace([record], edges=((0, 1),), bound_local=2.0, bound_global=2.0)


def chained_oracles(trace, dist, theta, rows, oracles=metrics.trace_oracles):
    """The trace oracles over a stored trace, called on blocks of ``rows``
    rows that carry the last row and the floors as the engine's chunks do;
    sorted as a run sorts its violations."""
    out, last_row, floors = [], None, None
    for lo in range(0, len(trace), rows):
        t, L = trace.times[lo : lo + rows], trace.logical[lo : lo + rows]
        _, viol, floors = oracles(t, L, dist, trace.s_max, theta, last_row, floors)
        out += viol
        last_row = (t[-1], L[-1])
    return sorted(out, key=lambda v: (v.time, v.kind, v.detail))


@st.composite
def connected_graphs(draw, kappa_values=st.floats(0.05, 2.0)):
    n = draw(st.integers(2, 7))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # a random tree
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    kappas = {p: draw(kappa_values) for p in pairs}
    values = draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n))
    return n, pairs, kappas, values


class TestLeadingTrailingOracles:
    """The leading-node and trailing-node lemmas are identities of the
    kappa-metric at a single instant.  What they rest on is checked once per
    full-mode run, of the distance matrix: ``check_kappa_metric``."""

    # values per block of the check: one row at a time, or every row at once
    BLOCKS = st.sampled_from([1, 1 << 20])

    @given(connected_graphs(), st.integers(1, 3), BLOCKS)
    @settings(max_examples=200, deadline=None)
    def test_no_hit_on_any_clock_values(self, graph, s_max, block):
        # every kappa_distance_matrix passes, bit for bit; one row of any
        # clock values has no piece, so the oracles report nothing
        n, pairs, kappas, values = graph
        g, kappa, dist = unit_kappa_graph(pairs, n, kappas)
        with mock.patch.object(topology, "_CHECK_BLOCK", block):
            check_kappa_metric(g, kappa, dist)
        _, viol, _ = metrics.trace_oracles(np.zeros(1), np.array([values]), dist, s_max, theta=1.0)
        assert viol == []

    def test_nonzero_diagonal_is_caught(self):
        g, kappa, dist = unit_kappa_graph([(0, 1), (1, 2)], 3)
        dist = dist.copy()
        dist[2, 2] = 5e-324
        with pytest.raises(InternalError, match=r"d\(2, 2\) is 5e-324, not 0"):
            check_kappa_metric(g, kappa, dist)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 3.0), BLOCKS)
    @settings(max_examples=50, deadline=None)
    def test_distance_breaking_the_triangle_inequality_is_caught(self, k01, k12, e, block):
        # line 0 - 1 - 2 with d(0, 2) above d(0, 1) + kappa(1, 2)
        g, kappa, dist = unit_kappa_graph([(0, 1), (1, 2)], 3, {(0, 1): k01, (1, 2): k12})
        dist = dist.copy()
        dist[0, 2] = dist[2, 0] = k01 + k12 + 1.0 + e
        with mock.patch.object(topology, "_CHECK_BLOCK", block), pytest.raises(
            InternalError, match=r"d\(0, 2\) = \S+ exceeds \S+, the least d\(0, x\) \+ kappa\(x, 2\)"
        ):
            check_kappa_metric(g, kappa, dist)

    @given(connected_graphs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_distance_below_every_in_neighbour_path_is_caught(self, graph, data):
        # the node b farthest from a, one ulp nearer: no in-neighbour path
        # reaches it, and no path through b undercuts another distance
        n, pairs, kappas, _ = graph
        g, kappa, dist = unit_kappa_graph(pairs, n, kappas)
        a = data.draw(st.integers(0, n - 1))
        b = int(dist[a].argmax())
        dist = dist.copy()
        dist[a, b] = np.nextafter(dist[a, b], 0.0)
        with mock.patch.object(topology, "_CHECK_BLOCK", data.draw(self.BLOCKS)), pytest.raises(
            InternalError, match=rf"d\({a}, {b}\) = \S+ is not \S+, the least"
        ):
            check_kappa_metric(g, kappa, dist)


@st.composite
def oracle_chunks(draw):
    """Clock rows on a random kappa-metric graph, piecewise linear with
    slopes from a small set (so rises tie and psi outruns theta - 1), cut
    into chunks.  The initial offsets are scaled down to a small multiple
    of the smallest kappa, so the skew ball may hold few pairs, or are
    widened by twice the distance from node 0, which makes every pair a
    candidate at level 1 in the first chunk."""
    n, pairs, kappas, values = draw(connected_graphs(st.one_of(st.floats(0.05, 2.0), st.sampled_from([0.25, 0.5]))))
    _, _, dist = unit_kappa_graph(pairs, n, kappas)
    spread = draw(st.sampled_from(["narrow", "as drawn", "wide"]))
    if spread == "narrow":
        values = np.asarray(values) / 6.0 * min(kappas.values()) * draw(st.sampled_from([0.0, 0.5, 2.0]))
    elif spread == "wide":
        values = np.asarray(values) + 2.0 * dist[0] + 1.0
    rows = draw(st.integers(1, 14))
    dt = np.array(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=rows, max_size=rows)))
    rates = draw(st.lists(st.sampled_from([1.0, 1.01, 1.1, 1.5]), min_size=rows * n, max_size=rows * n))
    L = np.asarray(values) + np.cumsum(np.reshape(rates, (rows, n)) * dt[:, None], axis=0)
    cuts = sorted(draw(st.sets(st.integers(1, max(1, rows - 1)), max_size=4)) - {rows})
    return dist, np.cumsum(dt), L, cuts


# line 0 -(1)- 1 -(3)- 2 -(10)- 3: the sorted rows' least distances are
# 0, 1, 3, 10, and node 2 is third nearest to node 1, at d(1, 2) = 3
BALL_LINE = ([(0, 1), (1, 2), (2, 3)], 4, {(0, 1): 1.0, (1, 2): 3.0, (2, 3): 10.0})


def ball_widths(monkeypatch):
    """Record the columns per node, (n, K), that each level of
    :func:`metrics.trace_oracles` reads: a list of K per call and level."""
    widths = []
    growth = metrics._growth_violations

    def recording(times, F, psi, s, theta, floor, cols):
        widths.append(cols.shape[1])
        return growth(times, F, psi, s, theta, floor, cols)

    monkeypatch.setattr(metrics, "_growth_violations", recording)
    return widths


class TestTraceOraclesTwin:
    @given(oracle_chunks(), st.integers(1, 3), st.sampled_from([1.0, 1.01]), st.sampled_from([1, 2, 3, 50, 1 << 16]))
    @example((np.array([[0.0, 1.0], [1.0, 0.0]]), np.arange(1.0, 5.0),
              np.column_stack([np.arange(4.0), 1.5 * np.arange(4.0)]), [2]), 1, 1.01, 1)
    @settings(max_examples=200, deadline=None)
    def test_chunks_match_the_row_by_row_twin(self, chunks, s_max, theta, block_rows):
        # the oracles over the skew ball, with the rise in blocks of
        # block_rows * n^2 values and the lazy leader, give the dense
        # twin's potentials, floors and violations (time, kind and detail,
        # leader included) bit for bit, chunk after chunk
        dist, times, L, cuts = chunks
        n = len(dist)
        floors = {"new": None, "twin": None}
        bounds = [0, *cuts, len(times)]
        by_distance = metrics.distance_order(dist)
        sides = (("new", lambda *a: metrics.trace_oracles(*a, by_distance)), ("twin", reference.dense_trace_oracles))
        with mock.patch.object(metrics, "_RISE_BLOCK", block_rows * n * n):
            for lo, hi in zip(bounds, bounds[1:]):
                last_row = None if lo == 0 else (times[lo - 1], L[lo - 1])
                out = {}
                for side, oracles in sides:
                    psi, viol, floors[side] = oracles(times[lo:hi], L[lo:hi], dist, s_max, theta, last_row, floors[side])
                    out[side] = psi, viol
                assert np.array_equal(out["new"][0], out["twin"][0])
                assert out["new"][1] == out["twin"][1]
                assert np.array_equal(floors["new"], floors["twin"])

    def test_wide_offset_run_matches_the_dense_twin(self, monkeypatch):
        # the CI's worst-case shape at n = 32: level 1 reads every sorted
        # column but the last, so each row's order differs from the natural one
        sc = scen.build_scenario(wide_offset_doc(32, horizon_cycles=4))
        widths = ball_widths(monkeypatch)
        res = engine.run(sc)
        assert widths[:3] == [31, 9, 1]
        monkeypatch.setattr(metrics, "trace_oracles", lambda *a: reference.dense_trace_oracles(*a[:7]))
        dense = engine.run(sc)
        assert np.array_equal(res.trace.psi_levels, dense.trace.psi_levels)
        assert res.violations == dense.violations

    def test_distance_order_sorts_every_row(self):
        _, _, dist = unit_kappa_graph(*BALL_LINE)
        order, col_min = metrics.distance_order(dist)
        assert order.dtype == np.uint8  # the narrowest type that holds n - 1
        assert order.tolist() == [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 2, 1, 0]]
        assert col_min.tolist() == [0.0, 1.0, 3.0, 10.0]
        line = np.arange(257.0)
        wide, _ = metrics.distance_order(np.abs(line[:, None] - line))
        assert wide.dtype == np.uint16 and wide[0].tolist() == list(range(257))


class TestSkewBallTamper:
    """Tampered rows around the edge of the level-1 skew ball: the pair
    (1, 2), with d(1, 2) = 3, realizes the global skew G_c = L_2 - L_1 of
    a two-row chunk.  Its column is read when 3 <= G_c + _CHECK_TOL."""

    def oracles(self, L, monkeypatch):
        _, _, dist = unit_kappa_graph(*BALL_LINE)
        times = np.array([0.0, 1.0])
        widths = ball_widths(monkeypatch)
        got = metrics.trace_oracles(times, L, dist, 2, 1.01)
        twin = reference.dense_trace_oracles(times, L, dist, 2, 1.01)
        assert np.array_equal(got[0], twin[0]) and got[1] == twin[1] and np.array_equal(got[2], twin[2])
        return got[1], widths

    @pytest.mark.parametrize("gap", [2.0 ** -40, -(2.0 ** -40)])
    def test_jump_through_a_pair_just_inside_is_flagged_with_its_leader(self, gap, monkeypatch):
        # psi_1(1) jumps to L_2 - L_1 - 3 = gap, 9.1e-13 either way: a
        # positive potential, or a tie with the diagonal's 0 within
        # _TIE_TOL.  Either way the pair (1, 2) attains psi_1(1), its rise
        # of about 3 tops the drift envelope, and it is read: 3 columns
        L = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 3.0 + gap, 0.0]])
        viol, widths = self.oracles(L, monkeypatch)
        assert widths == [3, 2]  # levels 1 and 2
        assert [(v.time, v.kind, v.detail.split(":")[0]) for v in viol] == [
            (1.0, "corollary1", "node 1 level 1, leader 2")
        ]

    def test_pair_just_outside_is_excluded_and_changes_nothing(self, monkeypatch):
        # G_c = 3 - 1.5e-9 leaves column 3 out (3 > G_c + _CHECK_TOL); a
        # jump of psi_1(1) through its neighbour 0 is still flagged, as the
        # dense twin flags it
        L = np.array([[0.0, 0.0, 0.0, 0.0], [2.5, 0.0, 3.0 - 1.5e-9, 0.0]])
        viol, widths = self.oracles(L, monkeypatch)
        assert widths == [2, 1]
        assert [(v.time, v.kind, v.detail.split(":")[0]) for v in viol] == [
            (1.0, "corollary1", "node 1 level 1, leader 0")
        ]

    def test_leader_is_the_smallest_node_of_the_largest_rise(self, monkeypatch):
        # line 0 -(1)- 2 -(1)- 1 and a far node 3: nodes 1 and 2 both attain
        # psi_1(0) = 1 and both rose by 2.  Node 2 is nearer to node 0, so
        # it comes first in the sorted row; the leader is node 1
        g, kappa, dist = unit_kappa_graph([(0, 2), (1, 2), (1, 3)], 4, {(0, 2): 1.0, (1, 2): 1.0, (1, 3): 10.0})
        times, L = np.array([0.0, 1.0]), np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 3.0, 2.0, 0.0]])
        widths = ball_widths(monkeypatch)
        psi, viol, floors = metrics.trace_oracles(times, L, dist, 1, 1.01)
        assert widths == [3] and metrics.distance_order(dist)[0][0, :3].tolist() == [0, 2, 1]
        assert [v.detail.split(":")[0] for v in viol] == ["node 0 level 1, leader 1"]
        twin = reference.dense_trace_oracles(times, L, dist, 1, 1.01)
        assert np.array_equal(psi, twin[0]) and viol == twin[1] and np.array_equal(floors, twin[2])


class TestTraceOracleConsistency:
    def test_vectorized_potentials_match_pointwise(self):
        sc = scen.build_scenario(zero_drift_doc(False, horizon_cycles=8))
        res = engine.run(sc)
        trace = res.trace
        dist = sc.dist
        rng = np.random.default_rng(3)
        for i in rng.integers(0, len(trace), size=20):
            values = list(trace.logical[int(i)])
            for s in range(1, trace.s_max + 1):
                assert trace.psi_levels[int(i), s - 1] == pytest.approx(
                    level_potential(values, dist, s)[0], abs=1e-9
                )
            assert trace.local_skew[int(i)] == pytest.approx(
                local_skew(values, trace.edges), abs=1e-12
            )
            assert trace.local_skew[int(i)] <= trace.global_skew[int(i)] + 1e-12
