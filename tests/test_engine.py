import dataclasses
import gc
import hashlib
import heapq
import itertools
import json
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcsim import engine, metrics
from gcsim import scenario as scen
from gcsim.clocks import FAST, sample_clocks
from gcsim.engine import PcgStream
from gcsim.errors import ConfigError, InternalError, RunAborted, ScenarioValidationError
from gcsim.topology import EdgeParams, NetworkGraph

import reference
from reference import Recording, ThreeEventExchange, boot_up_gate, recorded_run
from scenario_gen import (
    antiphase_line_doc,
    corollary1_doc,
    fc_lag_doc,
    random_suite_doc,
    random_template_doc,
    zero_drift_doc,
)
from test_entries import cli_run


class TestSeededStreams:
    def test_same_label_same_sequence(self):
        a, b = PcgStream.seeded([(7, "delay:0->1")] * 2)
        assert [a.random() for _ in range(16)] == [b.random() for _ in range(16)]

    def test_different_labels_differ(self):
        a, b = PcgStream.seeded([(7, "delay:0->1"), (7, "delay:1->0")])
        assert [a.random() for _ in range(16)] != [b.random() for _ in range(16)]

    def test_registry_rejects_reuse(self):
        # validation rejects a duplicate edge; past it, the run's one batch
        # of link labels would name both copies' streams alike
        sc = two_node_sim(0.1).sc
        doubled = NetworkGraph(sc.graph.n, sc.graph.edges * 2, sc.graph.d_max)
        with pytest.raises(ConfigError, match=r"reused: 'delay:0->1'"):
            engine._Simulation(dataclasses.replace(sc, graph=doubled))

    # one-word and two-word seeds at their ends
    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    PAIRS = st.lists(st.tuples(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1), st.text()), max_size=6)
    EDGE_PAIRS = [(seed, label) for seed in EDGE_SEEDS for label in ("", "delay:0->1", "clock:ü→∞")]

    @staticmethod
    def first_draws(rng, k: int, s: float) -> tuple:
        return rng.random(), int(rng.integers(0, k)), rng.uniform(-s, s)

    # k: PcgStream.integers takes numpy's 32-bit path only, ranges up to 2^32
    @given(pairs=PAIRS, k=st.integers(1, 2**32), s=st.floats(1e-9, 1e9))
    @example(pairs=EDGE_PAIRS, k=3, s=0.5)
    @settings(max_examples=80, deadline=None)
    def test_batch_draws_what_one_at_a_time_draws(self, pairs, k, s):
        words = engine._seed_states(pairs)
        assert words.shape == (len(pairs), 4) and words.dtype == np.uint64
        for (seed, label), row, stream in zip(pairs, words, PcgStream.seeded(pairs), strict=True):
            rng = reference.seeded_stream(seed, label)
            assert row.tolist() == rng.bit_generator.seed_seq.generate_state(4, np.uint64).tolist()
            assert self.first_draws(stream, k, s) == self.first_draws(rng, k, s)

    @staticmethod
    def assert_states_match(pairs):
        for (seed, label), stream in zip(pairs, PcgStream.seeded(pairs), strict=True):
            assert same_state(stream, reference.seeded_stream(seed, label))

    def test_one_pair(self):
        self.assert_states_match([(12345, "topology")])

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seed_at_a_word_boundary(self, seed):
        self.assert_states_match([(seed, "delay:0->1")])

    def test_batch_of_four_and_eight_byte_seeds(self):
        seeds = [0, 2**32, 7, 2**64 - 1, 2**32 - 1, 2**40 + 3, 1]
        self.assert_states_match([(seed, f"clock:{i}") for i, seed in enumerate(seeds)])

    def test_empty_batch(self):
        assert engine._seed_states([]).shape == (0, 4)
        assert PcgStream.seeded([]) == []


class TestSha256:
    """``engine.sha256``, CPython's built-in SHA-256 where it is built, hashes
    the link labels and the scenario documents: its digests must be
    hashlib's, in one call and fed piece by piece."""

    @given(data=st.binary(max_size=64 * 6 + 1), cuts=st.lists(st.integers(0, 64 * 6 + 1), max_size=8))
    @example(data=b"", cuts=[])
    @example(data=b"", cuts=[0, 0])
    @example(data=bytes(range(256)) * 2 + b"gcsim", cuts=[63, 64, 65, 200, 517])
    @example(data=b"\x80" * 128, cuts=[64])
    @settings(max_examples=150, deadline=None)
    def test_digests_are_hashlib_digests(self, data, cuts):
        want = hashlib.sha256(data)
        fed = engine.sha256()
        for a, b in itertools.pairwise([0, *sorted(cuts), len(data)]):
            fed.update(data[a:b])
        for got in (engine.sha256(data), fed):
            assert (got.digest(), got.hexdigest()) == (want.digest(), want.hexdigest())


def same_state(stream: PcgStream, rng: np.random.Generator) -> bool:
    """Whether ``stream`` holds the state of ``rng``'s ``PCG64``: its LCG
    state, its increment and the 32-bit half it carries, if any (numpy
    leaves a used half in ``uinteger``)."""
    state = rng.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    return (stream.state, stream.inc, stream.half) == (state["state"]["state"], state["state"]["inc"], half)


class TestPcgStream:
    """``engine.PcgStream`` draws what the pair's own ``Generator`` draws,
    bit for bit, in any order of its three methods."""

    CALLS = st.lists(
        st.tuples(st.just("integers"), st.integers(1, 2**14) | st.integers(2**31, 2**32), st.integers(-(2**20), 2**20))
        | st.tuples(st.just("uniform"), st.floats(1e-9, 1e9), st.none())
        | st.tuples(st.just("random"), st.none(), st.none()),
        max_size=40,
    )

    @staticmethod
    def draw(rng, call: tuple):
        name, arg, low = call
        if name == "integers":
            return int(rng.integers(low, low + arg))
        if name == "uniform":
            return rng.uniform(-arg, arg)
        return rng.random()

    @given(pairs=TestSeededStreams.PAIRS, calls=CALLS)
    @example(
        pairs=TestSeededStreams.EDGE_PAIRS,
        # one range that draws nothing, then odd runs of 32-bit draws around
        # doubles, so that a double falls between a half's draw and its use
        calls=[("integers", 1, 0), ("integers", 3, 0), ("random", None, None), ("integers", 2**14, 5),
               ("integers", 2**32 - 1, 0), ("integers", 2**32, -3), ("uniform", 0.5, None), ("integers", 1, 7),
               ("integers", 2**31 + 1, 0), ("random", None, None), ("integers", 2, 0)],
    )
    @settings(max_examples=80, deadline=None)
    def test_draws_match_numpy(self, pairs, calls):
        for (seed, label), stream in zip(pairs, PcgStream.seeded(pairs), strict=True):
            rng = reference.seeded_stream(seed, label)
            for call in calls:
                assert self.draw(stream, call) == self.draw(rng, call), call
            assert same_state(stream, rng)

    @pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**32 + 1)])
    def test_integers_refuses_a_range_off_the_32_bit_path(self, low, high):
        with pytest.raises(ValueError, match="range of 1 to 2\\^32 values"):
            PcgStream.seeded([(1, "topology")])[0].integers(low, high)


class TestLinkDraws:
    """``engine._link_uniforms``, the link draw of every stream key in
    every cycle, draws what the scalar reference ``reference.link_uniform``
    draws in Python ints, and ``engine._link_keys`` gives the reference's
    keys.  Its draws fill the unit interval evenly and show no correlation
    across streams or cycles."""

    # (key, cycle) -> draw of the reference, which the engine must match;
    # SplitMix64's first output from state 0 is 0xE220A8397B1DCDAF
    PINNED = [
        (0, 0, (0xE220A8397B1DCDAF >> 11) * 2.0**-53),
        (1, 0, 0.5665615751722809),
        (2**64 - 1, 0, 0.8939429202831845),
        (624188771810084514, 0, 0.9046286316073257),  # delay:0->1 of seed 5
        (624188771810084514, 599, 0.3631496840645281),
        (363416618628452768, 2**40, 0.09271901946078087),  # reply:ü->∞ of seed 2^64 - 1
    ]
    EDGE_KEYS = [0, 1, 2**63, 2**64 - 1]
    LABELS = ["", "delay:0->1", "reply:ü->∞", "proc:3->2"]

    def test_reference_draws_are_pinned(self):
        assert [reference.link_uniform(key, k) for key, k, _ in self.PINNED] == [u for *_, u in self.PINNED]
        assert reference.link_key(5, "delay:0->1") == 624188771810084514
        assert reference.link_key(2**64 - 1, "reply:ü->∞") == 363416618628452768

    @given(
        keys=st.lists(st.sampled_from(EDGE_KEYS) | st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        c0=st.sampled_from([0, 2**32, 2**63]) | st.integers(0, 2**40),
        width=st.integers(1, 8),
    )
    @example(keys=EDGE_KEYS, c0=2**64 - 9, width=8)  # the counter wraps
    @settings(max_examples=80, deadline=None)
    def test_engine_draws_what_the_reference_draws(self, keys, c0, width):
        cycles = np.array(range(c0, c0 + width), dtype=np.uint64)
        u = engine._link_uniforms(np.array(keys, dtype=np.uint64), cycles)
        assert u.shape == (width, len(keys)) and u.dtype == np.float64
        assert u.tolist() == [[reference.link_uniform(key, k) for key in keys] for k in range(c0, c0 + width)]

    @pytest.mark.parametrize("seed", TestSeededStreams.EDGE_SEEDS + [-1])
    def test_keys_are_the_references(self, seed):
        keys = engine._link_keys(seed, self.LABELS)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [reference.link_key(seed, label) for label in self.LABELS]
        assert engine._link_keys(seed, []).shape == (0,)

    @staticmethod
    def draws(streams: int, cycles: int) -> np.ndarray:
        """The draws of the delay streams of a ring's first ``streams``
        directions in cycles 0 to ``cycles`` - 1, one row per cycle."""
        keys = engine._link_keys(7, [f"delay:{a}->{a + 1}" for a in range(streams)])
        return engine._link_uniforms(keys, np.arange(cycles))

    def test_draws_fill_the_bins_evenly(self):
        # 10^6 draws in 1,000 bins: Pearson's statistic, with 999 degrees of
        # freedom, stays below its 0.999 quantile, about 1143
        counts = np.bincount((self.draws(1000, 1000) * 1000).astype(np.intp).ravel(), minlength=1000)
        assert counts.size == 1000
        chi2 = float(((counts - 1000.0) ** 2).sum() / 1000.0)
        assert chi2 < 1143.0

    def test_streams_and_cycles_are_uncorrelated(self):
        # 10^6 cycles of two streams: across the streams in one cycle, and
        # along one stream from a cycle to the next, each correlation within
        # 4 standard errors of 0, and so is the mean's distance from 1/2
        u = self.draws(2, 10**6) - 0.5
        bound = 4.0 / np.sqrt(len(u))
        assert abs(np.corrcoef(u[:, 0], u[:, 1])[0, 1]) < bound
        for s in range(2):
            assert abs(np.corrcoef(u[:-1, s], u[1:, s])[0, 1]) < bound
        assert abs(float(u.mean())) < 4.0 * np.sqrt(1.0 / 12.0 / u.size)


def two_node_sim(p_max: float = 0.0, cycles: int = 3, **edge) -> engine._Simulation:
    """The engine, not yet run, on two nodes joined by one edge for
    ``cycles`` cycles: delays 1.0 forward and 1.2 backward unless ``edge``
    says otherwise, d_max 2."""
    e = {"fwd_delay": 1.0, "bwd_delay": 1.2, "jitter": 0.0, "eps_d": 0.5, "eps_m": 0.05, **edge}
    doc = {
        "graph": {"nodes": 2, "d_max": 2.0, "edges": [{"u": 0, "v": 1, **e}]},
        "clocks": {"theta": 1.01, "mu": 0.1, "default": {"generator": "constant", "rate": 1.0}},
        "gcs": {"T": 5.0, "T_stab": 1.5, "p_max": p_max, "s_max": 1},
        "sim": {"horizon_cycles": cycles, "sample_dt": 1.0, "master_seed": 5, "metrics": "full"},
    }
    return engine._Simulation(scen.build_scenario(doc))


def direction(sim: engine._Simulation, a: int, b: int) -> int:
    """The engine's index of the link direction a->b, which is also the
    table column of its delay stream."""
    return int(np.flatnonzero((sim._src == a) & (sim._dst == b))[0])


ROWS = [engine._ARRIVAL, engine._EMIT, engine._REPLY]


def draw(label: str, k: int = 0) -> float:
    """The reference's draw of the link stream ``label`` of seed 5, the
    seed of ``two_node_sim``, in cycle k."""
    return reference.link_uniform(reference.link_key(5, label), k)


class TestLinkDelays:
    """Each link direction's parameters and the legs its streams draw:
    a wakeup at 0.0, in cycle 0, records its request's delay as the
    arrival instant, adds the responder's processing time to it, with
    p_max > 0, as the reply's emission instant, and the reply's delay to
    that as the reply's arrival."""

    def test_zero_jitter_is_base(self):
        sim = two_node_sim()
        for v, d, delay, back in ((0, direction(sim, 0, 1), 1.0, 1.2), (1, direction(sim, 1, 0), 1.2, 1.0)):
            sim._on_wakeups(0.0, [(v, 0, 0)])
            assert sim._ex[ROWS, d].tolist() == [delay, delay, delay + back]

    def test_samples_within_jitter_band(self):
        # every delay of 500 cycles, requests and replies both ways
        sim = two_node_sim(bwd_delay=1.0, jitter=0.5, cycles=500)
        sim._on_wakeups(0.0, [(0, 0, 0)])
        delays = sim._table[:, :4]
        assert delays.shape == (500, 4)
        assert 1.0 <= delays.min() and delays.max() <= 1.5
        assert len(np.unique(delays)) == delays.size

    @pytest.mark.parametrize("p_max", [0.0, 0.1])
    def test_records_draw_from_their_labelled_streams(self, p_max):
        sim = two_node_sim(p_max, jitter=0.5)
        fwd, bwd = direction(sim, 0, 1), direction(sim, 1, 0)
        assert sorted(zip(sim._src.tolist(), sim._dst.tolist())) == [(0, 1), (1, 0)]
        assert sim._rev.tolist()[fwd] == bwd and sim._rev.tolist()[bwd] == fwd
        assert len(sim._keys) == (6 if p_max else 4)  # the proc streams follow the delay and reply streams
        sim._on_wakeups(0.0, [(1, 0, 0)])
        arrival = 1.2 + 0.5 * draw("delay:1->0")
        emit = arrival + 0.1 * draw("proc:1->0") if p_max else arrival
        assert sim._ex[ROWS, bwd].tolist() == [arrival, emit, emit + (1.0 + 0.5 * draw("reply:1->0"))]
        kappa = sim.sc.kappa[(0, 1)]
        for d in (fwd, bwd):
            assert (sim._ex[engine._EPS_D, d], sim._ex[engine._EPS_M, d], sim._kappa[d]) == (0.5, 0.05, kappa)

    def test_delay_reaching_d_max_is_an_internal_error(self):
        sim = two_node_sim()
        sim._base[direction(sim, 0, 1)] = sim.sc.graph.d_max
        with pytest.raises(InternalError, match=r"reached d_max on 0->1"):
            sim.run()

    def test_reply_delay_reaching_d_max_names_its_direction(self):
        # reply:0->1 carries 1's reply to 0's request, on 1->0
        sim = two_node_sim()
        sim._base[len(sim._src) + direction(sim, 0, 1)] = sim.sc.graph.d_max
        with pytest.raises(InternalError, match=r"sampled delay 2\.0 reached d_max on 1->0"):
            sim.run()


class LegLog(reference.HeapTwin):
    """The engine, checking every exchange it completes against the scalar
    reference draw: the request's arrival, the reply's emission and the
    reply's arrival are the send's instant plus the legs ``HeapTwin.leg``
    draws for the exchange's direction in its requester's cycle.
    ``checked`` counts the exchanges, ``fills`` the table's fills."""

    def __init__(self, sc):
        super().__init__(sc)
        self.sent: dict[int, tuple[float, int]] = {}  # each node's last wakeup: (instant, cycle)
        self.checked = self.fills = 0

    def _on_wakeups(self, t, group):
        super()._on_wakeups(t, group)
        for v, k, _ in group:
            self.sent[v] = (t, k)

    def _fill(self, k):
        self.fills += 1
        return super()._fill(k)

    def _complete(self, dirs, ex, *args, **kwargs):
        for d, (arrival, emit, reply) in zip(dirs.tolist(), ex[ROWS].T.tolist()):
            a, b = int(self._src[d]), int(self._dst[d])
            t, k = self.sent[a]
            want = t + self.leg("delay", a, b, k)
            assert arrival == want
            if self.sc.p_max > 0:
                want += self.leg("proc", a, b, k)
            assert (emit, reply) == (want, want + self.leg("reply", a, b, k))
            self.checked += 1
        return super()._complete(dirs, ex, *args, **kwargs)


def stream_label(sim: engine._Simulation, s: int) -> str:
    """The label of the engine's stream s, its table column: delay:a->b
    for a direction's index d, reply:a->b for D + d and proc:a->b for 2D +
    d, D the number of directions."""
    D = len(sim._src)
    return f"{('delay', 'reply', 'proc')[s // D]}:{sim._src[s % D]}->{sim._dst[s % D]}"


class TestStreamTable:
    """Every send reads its legs from one table, which holds each link
    stream's value in each cycle of a window, and each is the reference's
    draw of the stream in that cycle, bit for bit, across fills."""

    @staticmethod
    def uniform_sim(cycles: int = 12) -> engine._Simulation:
        doc = random_suite_doc(3)
        doc["sim"]["horizon_cycles"] = cycles
        sim = engine._Simulation(scen.build_scenario(doc))
        sim._scale[:], sim._base[:] = 1.0, 0.0  # the table keeps the uniforms themselves
        return sim

    @staticmethod
    def assert_table_holds_the_draws(sim: engine._Simulation, c0: int) -> None:
        keys = [reference.link_key(sim.sc.master_seed, stream_label(sim, s)) for s in range(len(sim._keys))]
        assert sim._table.tolist() == [[reference.link_uniform(x, k) for x in keys] for k in range(c0, c0 + sim._window)]

    def test_blocks_hold_the_streams_uniforms(self):
        sim = self.uniform_sim()
        assert sim._table.shape == (12, len(sim._keys)) and sim.sc.p_max > 0
        assert sim._fill(0) == 0 == sim._c0
        self.assert_table_holds_the_draws(sim, 0)

    def test_a_fill_starts_at_the_least_current_cycle(self, monkeypatch):
        # a window of 5 cycles: from the least current cycle while it holds
        # the waking node's cycle, else from that cycle
        S = len(self.uniform_sim()._keys)
        monkeypatch.setattr(engine, "_STREAM_VALUES", 5 * S + 4)
        sim = self.uniform_sim()
        assert sim._window == 5
        n = sim.sc.graph.n
        for cycles, k, c0 in (([3] * n, 3, 3), ([9] + [7] * (n - 1), 9, 7), ([11] + [6] * (n - 1), 11, 11)):
            sim.cycle[:] = cycles
            assert sim._fill(k) == c0 == sim._c0
            self.assert_table_holds_the_draws(sim, c0)

    @pytest.mark.parametrize("p_max", [0.0, 0.5])
    def test_every_leg_of_a_run_is_its_streams_draw_in_its_cycle(self, p_max):
        doc = wakeup_tie_doc()
        doc["gcs"]["p_max"] = p_max
        sim = LegLog(scen.build_scenario(doc))
        res = sim.run()
        assert sim.checked == res.summary.counters["measurements"] == 160
        assert sim.fills == 1  # the window spans the run

    # 64 and 8 values across the 30 streams of star6 (jitter and p_max > 0):
    # windows of 2 cycles and of 1, so the run's 60 cycles fill the table at
    # least 30 times
    @pytest.mark.parametrize("budget", [64, 8])
    def test_a_run_that_refills_writes_what_an_unbounded_table_writes(self, budget, monkeypatch, tmp_path):
        doc = bundled_doc("star6", 60)
        unbounded, _ = cli_run(tmp_path, doc, engine._Simulation)
        monkeypatch.setattr(engine, "_STREAM_VALUES", budget)
        files, sim = cli_run(tmp_path, doc, LegLog)
        assert files == unbounded
        assert sim.checked == 600 and sim.fills >= 30


@pytest.mark.parametrize("mode", ["full", "skew_only"])
def test_full_mode_checks_the_distance_matrix_before_the_first_event(mode):
    # one ulp above the shortest path: only full mode, whose oracles rest on
    # the kappa-metric, checks it, when the run is set up (a skew_only
    # scenario drops the matrix, so the tampered one is a full one's)
    sc = scen.build_scenario(random_template_doc(16))
    dist = sc.dist.copy()
    dist[3, 5] = np.nextafter(dist[3, 5], np.inf)
    tampered = dataclasses.replace(sc, dist=dist, metrics_mode=mode)
    if mode == "full":
        with pytest.raises(InternalError, match=r"d\(3, 5\) = \S+ exceeds \S+, the least d\(3, x\)"):
            engine._Simulation(tampered)
    else:
        engine._Simulation(tampered)


@pytest.mark.parametrize("aborted", [False, True])
def test_a_run_frees_its_simulation_without_the_collector(aborted):
    # the oracle holds the engine's abort until the run ends: a cycle left
    # after it would keep the stream table, the exchanges and the heap alive
    # through the trace writer, and raise its peak memory
    sc = scen.build_scenario(scen.load_document("star6"))
    if aborted:
        sc.timeout = 0.0  # every round trip exceeds it
    sim = engine._Simulation(sc)
    freed = weakref.ref(sim)
    gc.disable()
    try:
        if aborted:
            with pytest.raises(RunAborted, match="exceeded the timeout window"):
                sim.run()
        else:
            assert len(sim.run().trace) > 0
        del sim
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cls", [engine._Simulation, ThreeEventExchange])
def test_repeated_evaluation_aborts_as_out_of_order(cls):
    # the first node to evaluate gets a second evaluation of the same cycle
    # before its next wakeup
    sim = cls(scen.build_scenario(antiphase_line_doc(3, horizon_cycles=5)))
    decide, repeated = sim._decide, []

    def decide_then_repeat(t, batch, *args):
        decide(t, batch, *args)
        if not repeated:
            repeated.append((t + 0.1, batch[0][0]))
            heapq.heappush(sim.heap, (t + 0.1, sim.seq, engine.K_EVALUATE, [batch[0]]))
            sim.seq += 1

    sim._decide = decide_then_repeat
    with pytest.raises(RunAborted) as exc:
        sim.run()
    (t_again, v), = repeated
    assert str(exc.value) == f"evaluation fired out of order at node {v}"
    assert sim.current == t_again


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_wakeup_off_its_cycle_boundary_aborts_beyond_the_tolerance(factor):
    # node 1's wakeups come a shift after the instants its clock reads its
    # cycle boundaries; at rate 1.001 its value is off by about the shift
    sim = engine._Simulation(scen.build_scenario(antiphase_line_doc(3, horizon_cycles=5)))
    clock = sim.clocks[1]
    invert, shift = clock.invert, factor * engine._BOUNDARY_TOL
    clock.invert = lambda target: invert(target) + shift
    if factor < 1:
        assert sim.run().summary.cycles_completed == 5
        return
    with pytest.raises(RunAborted) as exc:
        sim.run()
    assert sim.current == shift  # node 1's first wakeup, at cycle boundary 0.0
    assert str(exc.value) == f"cycle boundary misaligned at node 1: local {clock.value(shift)!r} vs 0.0"


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = engine.run(scen.build_scenario(random_suite_doc(2)))
        b = engine.run(scen.build_scenario(random_suite_doc(2)))
        assert np.array_equal(a.trace.times, b.trace.times)
        assert np.array_equal(a.trace.logical, b.trace.logical)
        assert np.array_equal(a.trace.psi_levels, b.trace.psi_levels)
        assert a.violations == b.violations
        assert a.summary.to_dict() == b.summary.to_dict()

    def test_different_seed_differs(self):
        doc = zero_drift_doc(symmetric=False)
        _, a = recorded_run(scen.build_scenario(doc, seed_override=1))
        _, b = recorded_run(scen.build_scenario(doc, seed_override=2))
        # zero drift: the seed moves only message times, which are not samples
        records = lambda measurements: [m.record for m in measurements]
        assert records(a) != records(b)


class TestRunBasics:
    def test_symmetric_zero_drift_keeps_zero_skew(self):
        res = engine.run(scen.build_scenario(zero_drift_doc(True, horizon_cycles=15)))
        assert res.violations == []
        assert float(np.max(res.trace.global_skew)) == 0.0
        assert np.all(res.trace.modes == 0)

    def test_cycle_boundaries_follow_local_clock(self):
        # both clocks at rate 1.01, cycle of 101 local seconds: wakeups at
        # real times 0, 100, 200, ...
        e = {"fwd_delay": 1.0, "bwd_delay": 1.0, "eps_d": 0.0, "eps_m": 0.05, "jitter": 0.0}
        doc = {
            "graph": {"nodes": 2, "d_max": 1.5, "edges": [{"u": 0, "v": 1, **e}]},
            "clocks": {"theta": 1.01, "mu": 0.02,
                       "default": {"generator": "constant", "rate": 1.01,
                                    "initial_value": 0.0}},
            "gcs": {"T": 50.0, "T_stab": 51.0, "p_max": 0.1, "s_max": 1},
            "sim": {"horizon_cycles": 3, "sample_dt": 20.0, "master_seed": 1,
                    "metrics": "full"},
        }
        _, measurements = recorded_run(scen.build_scenario(doc))
        sent = sorted(set(round(m.sent_real, 9) for m in measurements))
        assert sent == [0.0, pytest.approx(100.0, abs=1e-9), pytest.approx(200.0, abs=1e-9)]

    def test_one_measurement_per_neighbor_per_cycle(self):
        doc = antiphase_line_doc(n_nodes=4, horizon_cycles=12, metrics="full")
        res, measurements = recorded_run(scen.build_scenario(doc))
        # 3 edges, both directions, every completed cycle
        assert res.summary.counters["measurements"] == 12 * 2 * 3
        per_cycle = {}
        for m in measurements:
            per_cycle.setdefault((m.requester, m.cycle), set()).add(m.responder)
        degrees = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        for (req, _), partners in per_cycle.items():
            assert partners == degrees[req]

    def test_fast_mode_starts_only_at_evaluation_instants(self):
        # a node may only speed up for the stabilising phase, i.e. at local
        # time k*cycle + T; during measuring phases it runs at its own rate
        doc = antiphase_line_doc(n_nodes=5, horizon_cycles=700, metrics="full")
        sc = scen.build_scenario(doc)
        res = engine.run(sc)
        T, C = sc.params.T, sc.params.cycle_length
        times = res.trace.times
        found = 0
        for v_str, timeline in res.summary.mode_timelines.items():
            v = int(v_str)
            for t, mode in timeline:
                if mode != FAST:
                    continue
                found += 1
                i = int(np.searchsorted(times, t))
                assert times[i] == pytest.approx(t, abs=1e-9)
                local = res.trace.logical[i, v]
                frac = (local - T) % C
                assert min(frac, C - frac) < 1e-6
        assert found > 0

    def test_sampled_delay_variation_respects_uncertainty_bound(self):
        _, measurements = recorded_run(scen.build_scenario(zero_drift_doc(False, horizon_cycles=25)))
        e = EdgeParams(1.0, 1.4, jitter=0.05, eps_d=0.35, eps_m=0.02)
        bound = e.max_delay_bound * e.eps_d + e.eps_m
        by_direction = {}
        for m in measurements:
            by_direction.setdefault((m.requester, m.responder), []).append(
                (m.sent_real, m.fwd_delay_actual)
            )
        T = 5.0
        for series in by_direction.values():
            series.sort()
            times = [t for t, _ in series]
            for i, (t0, _) in enumerate(series):
                window = [d for t, d in series if t0 <= t <= t0 + T]
                if len(window) > 1:
                    assert max(window) - min(window) < bound

    def test_skew_only_mode_tracks_maxima(self):
        doc = antiphase_line_doc(n_nodes=3, horizon_cycles=500, metrics="skew_only")
        res = engine.run(scen.build_scenario(doc))
        assert len(res.trace) == 0
        assert res.summary.bound_report["max_observed_global"] > 1.0
        doc["sim"]["metrics"] = "full"
        full = engine.run(scen.build_scenario(doc))
        assert res.summary.bound_report == full.summary.bound_report


def run_both_modes(doc) -> dict:
    out = {}
    for mode in ("full", "skew_only"):
        doc["sim"]["metrics"] = mode
        out[mode] = engine.run(scen.build_scenario(doc))
    return out


def assert_modes_agree(res: dict) -> None:
    full, skew = res["full"].summary, res["skew_only"].summary
    assert full.bound_report == skew.bound_report
    assert full.counters == skew.counters
    assert full.first_global_bound_exceed_time == skew.first_global_bound_exceed_time


class TestMetricsModes:
    """Both modes reduce the same sampled rows, chunk by chunk."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # a few rows per chunk, so that every run below spans many chunks
        monkeypatch.setattr(metrics, "_CHUNK_VALUES", 160)

    @pytest.mark.parametrize("name", scen.bundled_names())
    def test_bundled_scenario(self, name):
        doc = scen.load_document(name)
        doc["sim"].pop("horizon_time", None)
        doc["sim"]["horizon_cycles"] = 60
        res = run_both_modes(doc)
        trace = res["full"].trace
        assert len(trace) > metrics._CHUNK_VALUES // trace.n  # more than one chunk
        assert_modes_agree(res)

    def test_bound_first_crossed_after_the_first_chunk(self):
        doc = antiphase_line_doc(n_nodes=3, horizon_time=4444.0, enabled=False)
        res = run_both_modes(doc)
        trace = res["full"].trace
        t_cross = res["full"].summary.first_global_bound_exceed_time
        assert t_cross is not None
        assert np.searchsorted(trace.times, t_cross) >= metrics._CHUNK_VALUES // trace.n
        assert_modes_agree(res)

    def test_skew_only_drops_the_distance_matrix(self):
        # a skew_only scenario keeps only the diameter, and no trace holds
        # the n x n matrix: the scenario owns it
        res, scs = {}, {}
        for mode in ("full", "skew_only"):
            scs[mode] = scen.build_scenario(random_template_doc(16, 2, mode))
            res[mode] = engine.run(scs[mode])
        assert scs["skew_only"].dist is None
        assert not any(hasattr(r.trace, "dist") for r in res.values())
        assert scs["skew_only"].diameter == scs["full"].diameter == float(scs["full"].dist.max())
        assert_modes_agree(res)


TRACE_ARRAYS = ("times", "logical", "hardware", "modes", "local_skew", "global_skew", "psi_levels")


def flipping_antiphase_doc() -> dict:
    """Antiphase clocks whose rates swap once, off the sampling grid, after
    the skew has grown enough for the nodes to change mode."""
    doc = random_suite_doc(12)
    cycle = doc["gcs"]["T"] + doc["gcs"]["T_stab"]
    doc["clocks"]["default"] = {"generator": "alternating", "dwell": 75.3 * cycle,
                                "start_high": False, "initial_value": 0.0}
    for spec in doc["clocks"]["overrides"].values():
        del spec["rate"]
        spec["start_high"] = True
    return doc


class TestChunking:
    """Clocks are read chunk by chunk; where the chunks end changes nothing."""

    @pytest.mark.parametrize("chunk_values", [1, 50])
    def test_chunk_size_does_not_change_the_run(self, monkeypatch, chunk_values):
        doc = flipping_antiphase_doc()
        ref = engine.run(scen.build_scenario(doc))
        monkeypatch.setattr(metrics, "_CHUNK_VALUES", chunk_values)
        res = engine.run(scen.build_scenario(doc))
        assert any(len(tl) > 1 for tl in res.summary.mode_timelines.values())
        assert json.dumps(res.summary.to_dict()) == json.dumps(ref.summary.to_dict())
        assert res.violations == ref.violations
        for name in TRACE_ARRAYS:
            assert np.array_equal(getattr(res.trace, name), getattr(ref.trace, name)), name


def bundled_doc(name: str, horizon_cycles: int) -> dict:
    doc = scen.load_document(name)
    doc["sim"]["horizon_cycles"] = horizon_cycles
    return doc


TWIN_DOCS = {
    **{f"{name}-60": lambda name=name: bundled_doc(name, 60) for name in scen.bundled_names()},
    **{f"random_suite-{seed}": lambda seed=seed: random_suite_doc(seed) for seed in range(0, 12, 3)},
    "fc_lag": fc_lag_doc,
    "corollary1": corollary1_doc,
    "random_template-64": lambda: random_template_doc(64, metrics="skew_only"),
    "antiphase-3-horizon_time": lambda: antiphase_line_doc(3, horizon_time=77.3),
    "antiphase-4-horizon_time": lambda: antiphase_line_doc(4, horizon_time=41.0, metrics="full"),
}


def wakeup_tie_doc() -> dict:
    """A GCS-off line 0 - 1 - 2 whose clocks all run at rate 1 from t = 22
    on, after nodes 1 and 2 ran at 1.5 long enough to wake 2 and 1 time
    units after node 0 in each 12-unit cycle.  With the link draws stubbed
    to dyadic values (``stub_dyadic_draws``), a reply emitted 2 after node
    0's send or 1 after node 2's leaves at node 1's wakeup."""
    edge = {"fwd_delay": 1.0, "bwd_delay": 1.0, "jitter": 1.0, "eps_d": 0.5, "eps_m": 0.0}
    return {
        "graph": {"nodes": 3, "d_max": 2.5, "edges": [{"u": 0, "v": 1, **edge}, {"u": 1, "v": 2, **edge}]},
        "clocks": {"theta": 1.5, "mu": 1.0, "nodes": [
            {"generator": "constant", "rate": 1.0},
            {"generator": "scripted", "segments": [[0.0, 1.5], [20.0, 1.0]]},
            {"generator": "scripted", "segments": [[0.0, 1.5], [22.0, 1.0]]},
        ]},
        "gcs": {"T": 10.5, "T_stab": 1.5, "p_max": 0.5, "s_max": 1, "enabled": False},
        "sim": {"horizon_cycles": 40, "sample_dt": 1.0, "master_seed": 3, "metrics": "full"},
    }


DYADIC = [0.0, 1.0, 0.5, 1.0, 0.25]


def dyadic_uniform(key: int, k: int) -> float:
    """A stand-in for the link draw: stream ``key`` runs through DYADIC,
    one value a cycle, from an offset of its own."""
    return DYADIC[(key + k) % len(DYADIC)]


def dyadic_uniforms(keys, cycles):
    """``dyadic_uniform`` as ``engine._link_uniforms`` draws, a (cycles,
    keys) array."""
    return np.array([[dyadic_uniform(int(x), int(k)) for x in keys] for k in cycles])


def stub_dyadic_draws(monkeypatch) -> None:
    """Stub every link draw to ``dyadic_uniform``: the engine's table and
    the twins' scalar draws (``reference.link_uniform``)."""
    monkeypatch.setattr(engine, "_link_uniforms", dyadic_uniforms)
    monkeypatch.setattr(reference, "link_uniform", dyadic_uniform)


def reply_rows(sim) -> list:
    """Collect (reply arrival, offset, deduction, t4, the responder's true
    value at the arrival, v, w) of every exchange ``sim`` completes, as its
    oracle takes them."""
    rows, replies = [], sim.oracle.replies

    def collecting(dirs, record):
        rows.extend(zip(*record.tolist(), sim._src[dirs].tolist(), sim._dst[dirs].tolist()))
        replies(dirs, record)

    sim.oracle.replies = collecting
    return rows


class TieCounting(engine._Simulation):
    """The engine, counting the replies emitted at their responder's own
    wakeup instant: at v's wakeup, w's open exchanges with v whose replies
    leave then.  No earlier member of the wakeup's entry changes them, since
    w sends again only after it evaluates."""

    def __init__(self, sc):
        super().__init__(sc)
        self.ties = 0

    def _on_wakeups(self, t, group):
        for v, _, _ in group:
            for d in self._out[v].tolist():
                r = int(self._rev[d])
                self.ties += bool(self._open[r] and self._ex[engine._EMIT, r] == t)
        super()._on_wakeups(t, group)


class TestThreeEventTwin:
    """The engine draws an exchange's request delay and processing time at
    the requester's wakeup, reads its stamps at the requester's
    evaluation, and evaluates every node due at one instant in one array
    evaluation.  The reference twin makes every message leg an event that
    reads its own stamp, and evaluates one node at a time.  Their runs
    agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(TWIN_DOCS))
    def test_engine_matches_the_twin(self, name):
        sc = scen.build_scenario(TWIN_DOCS[name]())
        res, ref = engine.run(sc), ThreeEventExchange(sc).run()
        summary, ref_summary = res.summary.to_dict(), ref.summary.to_dict()
        for s in (summary, ref_summary):
            s.pop("wall_time_s", None)
        assert json.dumps(summary) == json.dumps(ref_summary)
        assert res.violations == ref.violations
        for array in TRACE_ARRAYS:
            assert np.array_equal(getattr(res.trace, array), getattr(ref.trace, array)), array

    def test_reply_emissions_on_the_responders_wakeups_match_the_twin(self, monkeypatch):
        # Dyadic link draws and phases put reply emissions exactly on their
        # responders' wakeups, where the twin runs the emission as an event
        # of its own, reading the responder's clock at the instant its mode
        # changes: the engine's deferred reads must give the same stamps.
        stub_dyadic_draws(monkeypatch)
        sc = scen.build_scenario(wakeup_tie_doc())
        sim, twin = TieCounting(sc), ThreeEventExchange(sc)
        rows, twin_rows = reply_rows(sim), reply_rows(twin)
        res, ref = sim.run(), twin.run()
        assert sim.ties >= 6
        assert len(rows) == res.summary.counters["measurements"] == 160
        assert sorted(rows) == sorted(twin_rows)
        assert json.dumps(res.summary.to_dict()) == json.dumps(ref.summary.to_dict())
        assert res.violations == ref.violations
        for array in TRACE_ARRAYS:
            assert np.array_equal(getattr(res.trace, array), getattr(ref.trace, array)), array

    def test_replies_before_the_end_count_when_their_evaluation_is_after_it(self):
        # 60 exchanges complete at an evaluation before t = 77.3; 4 more
        # replies arrive before it, and their requesters evaluate after it
        sc = scen.build_scenario(antiphase_line_doc(3, horizon_time=77.3))
        assert engine.run(sc).summary.counters["measurements"] == 64
        assert ThreeEventExchange(sc).run().summary.counters["measurements"] == 64


def swapped_rates_doc() -> dict:
    """Two clocks whose rates 1 and 1.01 swap at t = 7.37, between grid
    points and with no event near: their gap peaks at 0.0737 there."""
    edge = {"fwd_delay": 0.5, "bwd_delay": 0.5, "jitter": 0.0, "eps_d": 0.498,
            "eps_m": 0.001, "length": 1.0}
    return {
        "graph": {"nodes": 2, "d_max": 1.5, "edges": [{"u": 0, "v": 1, **edge}]},
        "clocks": {"theta": 1.01, "mu": 0.1, "nodes": [
            {"generator": "scripted", "segments": [[0.0, 1.0], [7.37, 1.01]]},
            {"generator": "scripted", "segments": [[0.0, 1.01], [7.37, 1.0]]},
        ]},
        "gcs": {"T": 3.5, "T_stab": 1.5, "p_max": 0.2, "enabled": False},
        "sim": {"horizon_time": 20.0, "sample_dt": 1.0, "master_seed": 1, "metrics": "full"},
    }


class TestRateBreakpoints:
    def test_extremum_at_an_off_grid_rate_switch_is_recorded(self):
        res = engine.run(scen.build_scenario(swapped_rates_doc()))
        assert 7.37 in res.trace.times
        assert res.summary.bound_report["max_observed_local"] == pytest.approx(0.0737, abs=1e-12)
        assert float(res.trace.local_skew.max()) == pytest.approx(0.0737, abs=1e-12)

    def test_skew_only_records_it_too(self):
        doc = swapped_rates_doc()
        doc["sim"]["metrics"] = "skew_only"
        res = engine.run(scen.build_scenario(doc))
        assert res.summary.bound_report["max_observed_local"] == pytest.approx(0.0737, abs=1e-12)


class TestGlobalBoundCrossing:
    @pytest.mark.parametrize("chunk_values", [metrics._CHUNK_VALUES, 3])
    def test_crossing_is_exact_between_samples(self, monkeypatch, chunk_values):
        # GCS off: nodes 0 and 2 run at rate 1, node 1 at 1.001, so the
        # global skew is (1.001 - 1) t.  It exceeds the bound by the check
        # tolerance at (bound + tol) / 0.001, strictly inside the piece
        # between two samples (and two ticks).  With one row per chunk the
        # piece starts in the previous chunk.
        monkeypatch.setattr(metrics, "_CHUNK_VALUES", chunk_values)
        doc = antiphase_line_doc(n_nodes=3, horizon_time=3000.0, enabled=False)
        res = run_both_modes(doc)
        assert_modes_agree(res)
        assert not res["full"].summary.bound_report["global_satisfied"]
        sc = scen.build_scenario(doc)
        exact = (sc.global_bound + engine._TOL) / (1.001 - 1.0)
        t_cross = res["full"].summary.first_global_bound_exceed_time
        assert t_cross == pytest.approx(exact, abs=1e-9)
        times = res["full"].trace.times
        i = int(np.searchsorted(times, t_cross))
        assert times[i - 1] < t_cross < times[i]
        dt = sc.sample_dt
        assert (exact // dt) * dt < exact < (exact // dt + 1) * dt

    def test_skew_within_the_tolerance_is_no_crossing(self):
        # the run ends with the global skew above the bound by half the
        # tolerance: the bound counts as met, and so it is not crossed
        doc = antiphase_line_doc(n_nodes=3, horizon_time=3000.0, enabled=False)
        bound = scen.build_scenario(doc).global_bound
        doc["sim"]["horizon_time"] = (bound + engine._TOL / 2) / (1.001 - 1.0)
        res = run_both_modes(doc)
        assert_modes_agree(res)
        report = res["full"].summary.bound_report
        assert bound < report["max_observed_global"] <= bound + engine._TOL
        assert report["global_satisfied"]
        assert res["full"].summary.first_global_bound_exceed_time is None


class DecisionLog:
    """Records the real time of every wakeup, with its cycle, and of every
    evaluation batch, over the loop it is mixed into."""

    def __init__(self, sc):
        super().__init__(sc)
        self.wakeups: list[tuple[float, int]] = []
        self.evaluations: list[float] = []

    def _on_wakeups(self, t, group):
        self.wakeups.extend((t, k) for _, k, _ in group)
        super()._on_wakeups(t, group)

    def _on_evaluate(self, t, batch):
        self.evaluations.append(t)
        super()._on_evaluate(t, batch)


class EngineDecisions(DecisionLog, engine._Simulation):
    pass


class TwinDecisions(DecisionLog, Recording):
    pass


def run_recording_mode_decisions(doc, cls=TwinDecisions):
    """Run ``doc`` on ``cls`` and return the scenario, the simulation, its
    result and the real time of every wakeup and evaluation."""
    sc = scen.build_scenario(doc)
    sim = cls(sc)
    res = sim.run()
    return sc, sim, res, [t for t, _ in sim.wakeups] + sim.evaluations


def grid_ticks(sc, end: float) -> set:
    """The sampling grid up to ``end``, each tick the previous plus
    ``sample_dt``, as the loop pushes them."""
    ticks, t = set(), sc.sample_dt
    while t <= end:
        ticks.add(t)
        t += sc.sample_dt
    return ticks


def off_grid_end_doc() -> dict:
    """``swapped_rates_doc`` ending halfway between two grid ticks."""
    doc = swapped_rates_doc()
    doc["sim"]["horizon_time"] = 19.5
    return doc


SPARSE_DOCS = {
    "flipping": flipping_antiphase_doc,  # horizon_cycles
    "random_walk": lambda: random_suite_doc(2),  # horizon_cycles
    "swapped_rates": swapped_rates_doc,  # horizon_time
    "off_grid_end": off_grid_end_doc,  # horizon_time after the last event
}


class TestSparseSampling:
    """The engine's loop samples every event instant, each of which can
    change a slope or is a grid tick, and the end of the run.  The twin's
    loop also has message legs as events, and samples none of their
    instants.  Nothing is lost either way."""

    @pytest.mark.parametrize("name", sorted(SPARSE_DOCS))
    def test_every_sample_can_change_a_slope(self, name):
        # the twin's loop: its samples are a subset of the instants that
        # can change a slope, and some message instants are left out
        sc, sim, res, decisions = run_recording_mode_decisions(SPARSE_DOCS[name]())
        times = res.trace.times
        breakpoints = {b for _, starts, _ in sc.hardware for b in starts[1:]}
        allowed = set(decisions) | grid_ticks(sc, times[-1]) | breakpoints | {sc.horizon_time}
        assert set(times.tolist()) <= allowed
        arrivals = {m.record.completed_at_real for m in sim.measurements}
        assert arrivals - allowed  # some message instants are not samples

    @pytest.mark.parametrize("name", sorted(SPARSE_DOCS))
    def test_engine_samples_every_event_instant(self, name):
        # the engine's loop: every wakeup, evaluation, grid tick and rate
        # breakpoint up to the end is a sample, and so is the end, which is
        # the horizon time or the wakeup at which the last node reaches the
        # horizon cycle
        sc, sim, res, decisions = run_recording_mode_decisions(SPARSE_DOCS[name](), EngineDecisions)
        if sc.horizon_time is not None:
            end = sc.horizon_time
        else:
            end = max(t for t, k in sim.wakeups if k == sc.horizon_cycles)
        breakpoints = {b for _, starts, _ in sc.hardware for b in starts[1:]}
        instants = set(decisions) | grid_ticks(sc, end) | breakpoints | {end}
        expected = sorted(t for t in instants if 0.0 <= t <= end)
        assert res.trace.times.tolist() == expected

    def test_end_is_sampled_when_only_a_reply_arrives_there(self):
        # requests leave at 0, replies arrive at exactly 2.0, the horizon
        doc = zero_drift_doc(symmetric=True)
        doc["gcs"]["p_max"] = 0.0
        doc["sim"].pop("horizon_cycles")
        doc["sim"].update(horizon_time=2.0, sample_dt=5.0)
        res, measurements = recorded_run(scen.build_scenario(doc))
        assert {m.record.completed_at_real for m in measurements} == {2.0}
        assert res.trace.times.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("name", sorted(SPARSE_DOCS))
    def test_dropped_instants_exceed_no_recorded_maximum(self, name):
        _, sim, res, _ = run_recording_mode_decisions(SPARSE_DOCS[name]())
        report = res.summary.bound_report
        dropped = sorted(
            {m.sent_real for m in sim.measurements}
            | {m.record.completed_at_real for m in sim.measurements}
        )
        L, _, _ = sample_clocks(sim.table, np.array(dropped))
        assert float((L.max(axis=1) - L.min(axis=1)).max()) <= report["max_observed_global"] + 1e-12
        for rec in report["per_edge"]:
            gap = float(np.abs(L[:, rec["u"]] - L[:, rec["v"]]).max())
            assert gap <= rec["max_observed"] + 1e-12, (rec["u"], rec["v"])


class TestChunkRows:
    """Full mode also bounds the trace oracles' (rows, n, K) temporaries,
    n^2 per row when the skew ball holds every pair, by 256 * _CHUNK_VALUES
    values; that rule cuts a chunk short only above n = 256."""

    @pytest.mark.parametrize("n, mode, rows", [(256, "full", 32), (264, "full", 31), (264, "skew_only", 32)])
    def test_rows_per_chunk(self, monkeypatch, n, mode, rows):
        sim = engine._Simulation(scen.build_scenario(random_template_doc(n, metrics=mode)))
        sampled, oracle_rows = [], []
        sample, oracles = metrics.sample_clocks, metrics.trace_oracles
        monkeypatch.setattr(metrics, "sample_clocks", lambda c, t: (sampled.append(len(t)), sample(c, t))[1])
        monkeypatch.setattr(metrics, "trace_oracles", lambda t, *a: (oracle_rows.append(len(t)), oracles(t, *a))[1])
        for t in range(3 * rows):
            sim.oracle.sample(float(t))
        assert sampled == [rows] * 3 and rows > 0
        assert oracle_rows == (sampled if mode == "full" else [])


class TestValidationGate:
    def test_initial_synchronisation_gate(self):
        doc = zero_drift_doc(True)
        doc["clocks"]["overrides"] = {"2": {"initial_value": 50.0}}
        with pytest.raises(ScenarioValidationError) as err:
            scen.build_scenario(doc)
        assert any("initial synchronisation" in p for p in err.value.problems)

    @pytest.mark.parametrize("block", [None, 1, 10])
    def test_gate_messages_match_pair_loop(self, monkeypatch, block):
        # several violating pairs, gated in one block, one row a block and
        # two rows a block; an integer initial value is read as a float
        if block is not None:
            monkeypatch.setattr(scen, "_GATE_BLOCK", block)
        init = [0.0, 50, 0.01, 7.25, 0.03]
        doc = zero_drift_doc(True)
        doc["graph"]["edges"] += [{**doc["graph"]["edges"][0], "u": 2, "v": 3},
                                  {**doc["graph"]["edges"][0], "u": 3, "v": 4}]
        doc["clocks"]["overrides"] = {str(i): {"initial_value": v} for i, v in enumerate(init)}
        doc["graph"]["nodes"] = len(init)
        with pytest.raises(ScenarioValidationError) as err:
            scen.build_scenario(doc)
        doc["clocks"]["overrides"] = {}
        dist = scen.build_scenario(doc).dist
        expected = boot_up_gate([float(v) for v in init], dist)
        assert len(expected) >= 3
        assert err.value.problems == expected
        assert not any("np." in p for p in err.value.problems)

    @pytest.mark.parametrize("cap", [0, 1, 3])
    @pytest.mark.parametrize("block", [None, 1, 10])
    def test_gate_names_the_first_pairs_and_counts_the_rest(self, monkeypatch, block, cap):
        # the cap falls in the first block, one row a block, or across blocks
        monkeypatch.setattr(scen, "_GATE_PAIRS", cap)
        if block is not None:
            monkeypatch.setattr(scen, "_GATE_BLOCK", block)
        init = [0.0, 50, 0.01, 7.25, 0.03]
        doc = zero_drift_doc(True)
        doc["graph"]["edges"] += [{**doc["graph"]["edges"][0], "u": 2, "v": 3},
                                  {**doc["graph"]["edges"][0], "u": 3, "v": 4}]
        doc["graph"]["nodes"] = len(init)
        dist = scen.build_scenario(doc).dist
        doc["clocks"]["overrides"] = {str(i): {"initial_value": v} for i, v in enumerate(init)}
        with pytest.raises(ScenarioValidationError) as err:
            scen.build_scenario(doc)
        every = boot_up_gate([float(v) for v in init], dist)
        assert len(every) > cap
        assert err.value.problems == every[:cap] + [
            f"initial synchronisation violated for {len(every) - cap} more pairs"
        ]

    @pytest.mark.parametrize("mode", ["full", "skew_only"])
    def test_gate_shortcut_is_tight(self, mode):
        # the path's kappa is 0.04 on both links: a spread up to
        # fl(0.04 + 1e-12) passes without reading a row, one float more fails
        # on both links, as the pairwise comparison says
        doc = zero_drift_doc(True)
        doc["sim"]["metrics"] = mode
        dist = scen.build_scenario({**doc, "sim": {**doc["sim"], "metrics": "full"}}).dist
        threshold = 0.04 + 1e-12
        for spread in (0.04, threshold, float(np.nextafter(threshold, np.inf))):
            init = [0.0, spread, 0.0]
            read = []
            problems = scen._boot_up_problems(init, lambda s: (read.append(s.tolist()), dist[s])[1], 0.04)
            assert problems == boot_up_gate(init, dist)
            doc["clocks"]["overrides"] = {"1": {"initial_value": spread}}
            if spread <= threshold:
                assert read == [] and problems == []
                scen.build_scenario(doc)
            else:
                assert read == [[0, 1, 2]] and len(problems) == 2
                with pytest.raises(ScenarioValidationError) as err:
                    scen.build_scenario(doc)
                assert err.value.problems == problems

    @given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 1.5), min_size=24, max_size=24),
           st.sampled_from([None, 1, 40]), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_skew_only_gate_matches_full(self, n, seed, init, block, cap):
        # skew_only reads the kernel's rows where full reads the matrix's: the
        # same messages, in any block size, under any cap, and those of the
        # pairwise loop
        def template(mode, values):
            doc = random_template_doc(n, 2, mode)
            doc["graph"]["template"].update(seed=seed, extra_edges=min(n // 2, (n - 1) * (n - 2) // 2))
            for v in range(n):
                doc["clocks"]["overrides"].setdefault(str(v), {})["initial_value"] = values[v]
            return doc

        problems = {}
        with mock.patch.object(scen, "_GATE_PAIRS", cap), mock.patch.object(
                scen, "_GATE_BLOCK", block or scen._GATE_BLOCK):
            for mode in ("full", "skew_only"):
                try:
                    problems[mode] = (scen.build_scenario(template(mode, init)).diameter, [])
                except ScenarioValidationError as err:
                    problems[mode] = (None, err.problems)
        assert problems["full"] == problems["skew_only"]
        every = boot_up_gate(init[:n], scen.build_scenario(template("full", [0.0] * n)).dist)
        expected = every[:cap] + [f"initial synchronisation violated for {len(every) - cap} more pairs"]
        assert problems["full"][1] == (expected if len(every) > cap else every)

    def test_T_below_timeout_rejected(self):
        doc = zero_drift_doc(True)
        doc["gcs"]["T"] = 1.0
        with pytest.raises(ScenarioValidationError) as err:
            scen.build_scenario(doc)
        assert any("timeout window" in p for p in err.value.problems)

    def test_unknown_keys_rejected(self):
        doc = zero_drift_doc(True)
        doc["gcs"]["tsab"] = 1.0
        with pytest.raises(ScenarioValidationError) as err:
            scen.build_scenario(doc)
        assert any("unknown keys" in p for p in err.value.problems)

    def test_zero_kappa_edges_rejected(self):
        doc = zero_drift_doc(True)
        for rec in doc["graph"]["edges"]:
            rec["eps_m"] = 0.0
        with pytest.raises(ScenarioValidationError) as err:
            scen.build_scenario(doc)
        assert any("kappa" in p for p in err.value.problems)

    def test_s_max_required_without_drift(self):
        doc = zero_drift_doc(True)
        del doc["gcs"]["s_max"]
        with pytest.raises(ScenarioValidationError) as err:
            scen.build_scenario(doc)
        assert any("s_max" in p for p in err.value.problems)
