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

    @given(pairs=TestSeededStreams.PAIRS.filter(bool), width=st.integers(1, 40))
    @example(pairs=TestSeededStreams.EDGE_PAIRS, width=33)
    @settings(max_examples=40, deadline=None)
    def test_random_is_the_kernels_row(self, pairs, width):
        S = len(pairs)
        rows = engine.PcgStreams(pairs, width).uniforms(np.arange(S), np.zeros(S, dtype=np.intp))
        for stream, row in zip(PcgStream.seeded(pairs), rows, strict=True):
            assert [stream.random() for _ in range(width)] == row.tolist()

    @pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**32 + 1)])
    def test_integers_refuses_a_range_off_the_32_bit_path(self, low, high):
        with pytest.raises(ValueError, match="range of 1 to 2\\^32 values"):
            PcgStream.seeded([(1, "topology")])[0].integers(low, high)


class TestPcgStreams:
    """``engine.PcgStreams`` draws what each pair's own generator draws."""

    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from(TestSeededStreams.EDGE_SEEDS) | st.integers(0, 2**64 - 1), st.text()),
            min_size=1, max_size=6,
        ),
        width=st.integers(1, 40),
        chunk=st.integers(1, 64),
        refills=st.lists(st.lists(st.none() | st.integers(0, 40), min_size=6, max_size=6), min_size=3, max_size=3),
    )
    @example(
        pairs=TestSeededStreams.EDGE_PAIRS, width=33, chunk=40, refills=[[33] * 6, [None, 1, 16, 17, 32, 0], [0, 33, None, 2, 16, 17]],
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_are_each_streams_next_doubles(self, pairs, width, chunk, refills):
        # chunk: uint64 values per array of the kernel's column chunks, so
        # that a row of up to 40 columns crosses several of them.  After the
        # first rows, three refills: in each, stream s skips the values
        # refills[r][s % 6] says (at most a row) or, at None, is not refilled
        want = [reference.seeded_stream(seed, label).random(4 * width) for seed, label in pairs]
        at = [0] * len(pairs)
        steps = [[0] * len(pairs)] + [[r[s % 6] for s in range(len(pairs))] for r in refills]
        with mock.patch.object(engine, "_KERNEL_VALUES", chunk):
            streams = engine.PcgStreams(pairs, width)
            for step in steps:
                picked = [s for s, k in enumerate(step) if k is not None]
                skip = [min(step[s], width) for s in picked]
                rows = streams.uniforms(np.array(picked, dtype=np.intp), np.array(skip, dtype=np.intp))
                assert rows.shape == (len(picked), width)
                for s, k, row in zip(picked, skip, rows):
                    at[s] += k
                    assert row.tolist() == want[s][at[s] : at[s] + width].tolist()


def two_node_sim(p_max: float = 0.0, **edge) -> engine._Simulation:
    """The engine, not yet run, on two nodes joined by one edge: delays 1.0
    forward and 1.2 backward unless ``edge`` says otherwise, d_max 2."""
    e = {"fwd_delay": 1.0, "bwd_delay": 1.2, "jitter": 0.0, "eps_d": 0.5, "eps_m": 0.05, **edge}
    doc = {
        "graph": {"nodes": 2, "d_max": 2.0, "edges": [{"u": 0, "v": 1, **e}]},
        "clocks": {"theta": 1.01, "mu": 0.1, "default": {"generator": "constant", "rate": 1.0}},
        "gcs": {"T": 5.0, "T_stab": 1.5, "p_max": p_max, "s_max": 1},
        "sim": {"horizon_cycles": 3, "sample_dt": 1.0, "master_seed": 5, "metrics": "full"},
    }
    return engine._Simulation(scen.build_scenario(doc))


def direction(sim: engine._Simulation, a: int, b: int) -> int:
    """The engine's index of the link direction a->b, which is also that
    of its delay stream."""
    return int(np.flatnonzero((sim._src == a) & (sim._dst == b))[0])


class TestLinkDelays:
    """Each link direction's parameters and the delays its streams draw:
    a wakeup at 0.0, in cycle 0, records its request's delay as the
    arrival instant and, with p_max > 0, adds the responder's processing
    time to it as the reply's emission instant."""

    def test_zero_jitter_is_base(self):
        sim = two_node_sim()
        for v, d, delay in ((0, direction(sim, 0, 1), 1.0), (1, direction(sim, 1, 0), 1.2)):
            sim._on_wakeups(0.0, [(v, 0, 0)])
            assert sim._ex[engine._ARRIVAL, d] == delay
        assert sim._draws(np.array([direction(sim, 1, 0)])).tolist() == [1.2]

    def test_samples_within_jitter_band(self):
        sim = two_node_sim(bwd_delay=1.0, jitter=0.5)
        d = direction(sim, 0, 1)
        for _ in range(500):  # rows of 8 values: the wakeups refill them
            sim._on_wakeups(0.0, [(0, 0, 0)])
            assert 1.0 <= sim._ex[engine._ARRIVAL, d] <= 1.5
            assert 1.0 <= sim._draws(np.array([d]))[0] <= 1.5

    @pytest.mark.parametrize("p_max", [0.0, 0.1])
    def test_records_draw_from_their_labelled_streams(self, p_max):
        sim = two_node_sim(p_max, jitter=0.5)
        fwd, bwd = direction(sim, 0, 1), direction(sim, 1, 0)
        assert sorted(zip(sim._src.tolist(), sim._dst.tolist())) == [(0, 1), (1, 0)]
        assert sim._rev.tolist()[fwd] == bwd and sim._rev.tolist()[bwd] == fwd
        sim._on_wakeups(0.0, [(1, 0, 0)])
        assert sim._ex[engine._ARRIVAL, bwd] == 1.2 + 0.5 * reference.seeded_stream(5, "delay:1->0").random()
        if p_max:  # the proc streams follow the delay streams
            assert len(sim._blocks) == 4
            sim._on_wakeups(0.0, [(0, 0, 1)])
            delay = 1.0 + 0.5 * reference.seeded_stream(5, "delay:0->1").random()
            assert sim._ex[engine._ARRIVAL, fwd] == delay
            assert sim._ex[engine._EMIT, fwd] == delay + 0.1 * reference.seeded_stream(5, "proc:0->1").random()
        else:
            assert len(sim._blocks) == 2
        kappa = sim.sc.kappa[(0, 1)]
        for d in (fwd, bwd):
            assert (sim._ex[engine._EPS_D, d], sim._ex[engine._EPS_M, d], sim._kappa[d]) == (0.5, 0.05, kappa)

    def test_delay_reaching_d_max_is_an_internal_error(self):
        sim = two_node_sim()
        sim._base[direction(sim, 0, 1)] = sim.sc.graph.d_max
        with pytest.raises(InternalError, match=r"reached d_max on 0->1"):
            sim.run()


class DrawLog(engine._Simulation):
    """The engine, logging every value each stream draws, in draw order,
    counting the streams a wakeup draws from twice, and counting each
    stream's row fills.

    A wakeup entry draws inline, so the log reads what it took from the
    table: each stream's values from its ``_next`` before the entry up to
    its ``_next`` after it, taken before a refill in the entry replaces the
    rows.  Each stream a member v draws from is one of v's own, delay:v->w
    or proc:v->w, and the exchange records of each member must hold
    exactly the values its streams gave: the request's delay, the
    processing time and the reply's delay.  No later member of the entry
    writes them: w's wakeup rewrites the reply v drew on w->v, but that
    exchange is open only until w's evaluation, which comes before w's
    next wakeup."""

    def __init__(self, sc):
        super().__init__(sc)
        self.drawn: dict[int, list[float]] = {}
        self.mark: np.ndarray | None = None  # each stream's _next when the wakeup's log was last taken
        self.in_wakeup: dict[int, list[float]] = {}
        self.twice = 0
        self.fills = np.zeros(len(self._blocks), dtype=int)
        uniforms = self._streams.uniforms

        def counted(streams, skip):
            self.fills[streams] += 1
            return uniforms(streams, skip)

        self._streams.uniforms = counted

    def take(self):
        """Log the values each stream drew since ``mark``."""
        for s in np.flatnonzero(self._next != self.mark).tolist():
            values = self._flat[self.mark[s] : self._next[s]].tolist()
            self.drawn.setdefault(s, []).extend(values)
            self.in_wakeup.setdefault(s, []).extend(values)

    def _refill(self):
        if self.mark is not None:
            self.take()
        super()._refill()
        if self.mark is not None:
            self.mark = self._next.copy()

    def _on_wakeups(self, t, group):
        self.mark, self.in_wakeup = self._next.copy(), {}
        super()._on_wakeups(t, group)
        self.take()
        self.mark = None
        self.twice += sum(len(values) - 1 for values in self.in_wakeup.values())
        ex, D = self._ex, len(self._src)
        for v, k, _ in group:
            for d in self._out[v].tolist() if self.sc.horizon_cycles is None or k < self.sc.horizon_cycles else []:
                *reply, request = self.in_wakeup.pop(d)
                assert ex[engine._ARRIVAL, d] == t + request
                if reply:
                    r = self._rev[d]
                    assert ex[engine._REPLY, r] == ex[engine._EMIT, r] + reply[0]
                proc = self.in_wakeup.pop(D + d) if self._proc else [0.0]
                assert ex[engine._EMIT, d] == ex[engine._ARRIVAL, d] + proc[0] and len(proc) == 1
        assert not self.in_wakeup  # no other stream drew

    def _draws(self, s):
        x = super()._draws(s)
        for k, value in zip(s.tolist(), x.tolist()):
            self.drawn.setdefault(k, []).append(value)
        return x


def stream_label(sim: engine._Simulation, s: int) -> str:
    """The label of the engine's stream s: delay:a->b for a direction's
    index, proc:a->b for it plus the number of directions."""
    D = len(sim._src)
    return f"{'delay' if s < D else 'proc'}:{sim._src[s % D]}->{sim._dst[s % D]}"


class TestStreamTable:
    """Every link stream draws its values from rows of one table, filled by
    ``engine.PcgStreams``, and each is what the stream's own generator,
    seeded on its own, draws with ``Generator.random()``, bit for bit,
    across refills."""

    @staticmethod
    def uniform_sim() -> engine._Simulation:
        sim = engine._Simulation(scen.build_scenario(random_suite_doc(3)))
        sim._scale[:], sim._base[:] = 1.0, 0.0  # the table keeps the uniforms themselves
        return sim

    def test_blocks_hold_the_streams_uniforms(self):
        sim = self.uniform_sim()
        width, seed = sim._width, sim.sc.master_seed
        refs = [reference.seeded_stream(seed, stream_label(sim, s)) for s in range(len(sim._blocks))]
        for _ in range(3):
            sim._refill()
            for s, ref in enumerate(refs):
                assert sim._blocks[s, :width].tolist() == ref.random(width).tolist()
                assert sim._blocks[s, width] == np.inf
            assert sim._next.tolist() == sim._row0.tolist()
            sim._next[:] = sim._row0 + width  # every row read out

    def test_a_refill_takes_the_streams_past_the_middle_of_their_rows(self):
        sim = self.uniform_sim()
        width, seed, S = sim._width, sim.sc.master_seed, len(sim._blocks)
        sim._refill()
        before = sim._blocks.copy()
        read = np.arange(S) * width // (S - 1)  # from none of its row's values to all of them
        assert 0 < np.count_nonzero(read > width // 2) < S
        sim._next[:] = sim._row0 + read
        sim._refill()
        for s in range(S):
            values = reference.seeded_stream(seed, stream_label(sim, s)).random(2 * width)
            if read[s] > width // 2:
                assert sim._blocks[s, :width].tolist() == values[read[s] : read[s] + width].tolist()
                assert sim._next[s] == sim._row0[s]
            else:
                assert sim._blocks[s].tolist() == before[s].tolist()
                assert sim._next[s] == sim._row0[s] + read[s]

    @staticmethod
    def assert_every_draw_is_its_streams_next_value(min_fills: int) -> None:
        # wakeup_tie_doc: nodes 1 and 2 wake 2 and 1 time units after node
        # 0, so some of their wakeups owe a reply on the stream of the
        # request they send next, and a delay stream draws 80 values
        sim = DrawLog(scen.build_scenario(wakeup_tie_doc()))
        sim.run()
        assert sim.twice > 0
        assert max(map(len, sim.drawn.values())) == 80
        assert sim.fills.min() >= min_fills
        for s, values in sim.drawn.items():
            ref = reference.seeded_stream(sim.sc.master_seed, stream_label(sim, s))
            base, scale = float(sim._base[s]), float(sim._scale[s])
            assert values == [base + scale * ref.random() for _ in values], stream_label(sim, s)

    def test_every_draw_of_a_run_is_its_streams_next_value(self):
        self.assert_every_draw_is_its_streams_next_value(1)

    # 64 and 8 values across the run's 8 streams: rows of 8 and of 1, so
    # every stream refills its row at least 3 times
    @pytest.mark.parametrize("budget", [64, 8])
    def test_every_draw_of_a_run_that_refills_is_its_streams_next_value(self, budget, monkeypatch):
        monkeypatch.setattr(engine, "_STREAM_VALUES", budget)
        self.assert_every_draw_is_its_streams_next_value(4)


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
    0's send or 1 after node 2's leaves at node 1's wakeup.  Node 1
    scheduled that wakeup at its evaluation 1.5 earlier: after node 0's
    send, so that reply goes first, and before node 2's."""
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


class DyadicStream:
    """A stand-in for the twin's ``Generator`` whose ``random`` cycles
    through ``values``."""

    def __init__(self, values):
        self.values = itertools.cycle(values)

    def random(self):
        return next(self.values)


class DyadicStreams:
    """A stand-in for the engine's ``PcgStreams``: stream s cycles through
    ``values[s]``, from its first value on."""

    def __init__(self, values, width):
        self.values, self.width, self.at = values, width, [0] * len(values)

    def uniforms(self, streams, skip):
        rows = []
        for s, k in zip(streams.tolist(), skip.tolist()):
            self.at[s] += k
            cycle = self.values[s]
            rows.append([cycle[(self.at[s] + j) % len(cycle)] for j in range(self.width)])
        return np.array(rows)


def stub_dyadic_draws(sim):
    """Each link stream of ``sim`` draws its own cycle of dyadic values, so
    the values a draw gets depend on its place in its stream's order: the
    engine's streams, and the twin's own (its ``links`` records)."""
    delays, procs = [0.0, 1.0, 0.5, 1.0, 0.25], [0.0, 1.0]
    D = len(sim._src)
    sim._streams = DyadicStreams([delays if s < D else procs for s in range(len(sim._blocks))], sim._width)
    for key, (base, jitter, _, proc, *rest) in list(getattr(sim, "links", {}).items()):
        sim.links[key] = (base, jitter, DyadicStream(delays), DyadicStream(procs) if proc else None, *rest)
    return sim


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
    """The engine, counting the sends that meet, on the stream they draw
    from, a reply emitted at the same instant, by which goes first.  Each
    member of a wakeup entry is counted with its own heap key, before the
    entry runs: the exchange w->v whose reply member v's send meets stays
    open and unsent by w until w's evaluation, so no earlier member of the
    entry changes it (w wakes only after it evaluates)."""

    def __init__(self, sc):
        super().__init__(sc)
        self.ties = {"reply first": 0, "request first": 0}

    def _on_wakeups(self, t, group):
        for v, k, seq in group:
            if k < self.sc.horizon_cycles:  # the wakeup sends: v->w meets w's request to v
                for d in self._out[v].tolist():
                    r = int(self._rev[d])
                    if self._open[r] and self._ex[engine._EMIT, r] == t:
                        self.ties["reply first" if int(self._eseq[r]) < seq else "request first"] += 1
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

    def test_reply_emissions_on_the_responders_wakeups_match_the_twin(self):
        # The engine draws a reply's delay off the heap, from the stream
        # that also serves its responder's requests, so where the reply
        # leaves at the responder's own wakeup instant the two draws must
        # keep the heap's (time, seq) order.  Dyadic link draws and phases
        # put emissions exactly on such wakeups, in both orders.
        sc = scen.build_scenario(wakeup_tie_doc())
        sim, twin = (stub_dyadic_draws(cls(sc)) for cls in (TieCounting, ThreeEventExchange))
        rows, twin_rows = reply_rows(sim), reply_rows(twin)
        res, ref = sim.run(), twin.run()
        assert sim.ties["reply first"] >= 3 and sim.ties["request first"] >= 3
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
