"""Node events travel in groups: one heap entry per run of same-instant
wakeups or evaluations that one handler schedules, on a heap that holds
nothing else.

The engine's outputs must equal, byte for byte, those of
``reference.PerEventLoop``, its twin with one heap entry per node event,
the grid ticks and rate breakpoints on its heap and no evaluation plans,
and the (time, seq) keys of the members of the engine's entries, in the
order it runs them, must be exactly the keys the twin pops, less the seqs
its ticks and breakpoints take.  That checks the ordering argument above
``engine._Simulation.run`` directly: no other event's key falls between
two members of one entry, and dropping the forced events' seqs keeps the
order of the others.  Instants one ulp apart must not share an entry:
grouping compares floats with ==.  The forced samples must fall on the
twin's instants, and a plan must hold what a fresh build would.

A full grid4x4 run pins how much the grouping saves, as counts of entries
and of the node events they hold.
"""
import heapq
import json
import math
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import cli, engine
from gcsim import scenario as scen

from reference import PerEventLoop
from scenario_gen import (
    UNIT_EDGE,
    antiphase_line_doc,
    distinct_rate_doc,
    line_doc,
    offset_template_doc,
    random_suite_doc,
    random_template_doc,
)
from test_golden import FILES, bundled_doc, random_walk_doc


class KeyedEngine(engine._Simulation):
    """The engine, listing in ``keys`` the (time, seq) of every member of
    the node-event entries it runs, in the order it runs them."""

    def __init__(self, sc):
        super().__init__(sc)
        self.keys: list[tuple[float, int]] = []

    def _on_wakeups(self, t, group):
        self.keys.extend((t, seq) for _, _, seq in group)
        super()._on_wakeups(t, group)

    def _on_evaluate(self, t, batch):
        self.keys.extend((t, seq) for _, _, seq in batch)
        super()._on_evaluate(t, batch)


def cli_run(tmp_path, doc: dict, cls) -> tuple[dict, engine._Simulation]:
    """The bytes of FILES that ``gcsim run`` writes for ``doc`` with ``cls``
    as the engine's simulation, and the simulation."""
    sims = []

    class Kept(cls):
        def __init__(self, sc):
            super().__init__(sc)
            sims.append(self)

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / cls.__name__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_Simulation", Kept)
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    (sim,) = sims
    return {f: (out / f).read_bytes() for f in FILES}, sim


def assert_matches_the_per_event_loop(tmp_path, doc: dict) -> None:
    files, sim = cli_run(tmp_path, doc, KeyedEngine)
    twin_files, twin = cli_run(tmp_path, doc, PerEventLoop)
    for f in FILES:
        assert files[f] == twin_files[f], f
    assert sim.keys == twin.node_keys()


DOCS = {
    **{f"{name}-{mode}": lambda name=name, mode=mode: bundled_doc(name, mode, 60)
       for name in scen.bundled_names() for mode in ("full", "skew_only")},
    "random_template-64": lambda: random_template_doc(64),
    "distinct_rate-16": lambda: distinct_rate_doc(16),
    "antiphase-3": lambda: antiphase_line_doc(3),
    # near-equal instants, which an entry must not group
    "offset_template-16": lambda: offset_template_doc(16),
    **{f"random_walk-{variant}": lambda variant=variant: random_walk_doc(variant)
       for variant in ("master seed", "node seed")},
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_engine_writes_what_the_per_event_loop_writes(tmp_path, name):
    assert_matches_the_per_event_loop(tmp_path, DOCS[name]())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_random_suite_matches_the_per_event_loop(tmp_path_factory, seed):
    assert_matches_the_per_event_loop(tmp_path_factory.mktemp("suite"), random_suite_doc(seed))


class Stop(Exception):
    pass


class UlpApart(engine._Simulation):
    """The engine, stopped after its first decision batch of two or more
    members, in which every second member wakes one ulp later than its
    clock step says.  It keeps each member's step wake in ``raw``, the
    wakes the batch scheduled in ``wakes``, and the seq before the batch
    in ``seq0``."""

    def _decide(self, t, batch, *args):
        if len(batch) < 2:
            return super()._decide(t, batch, *args)
        step, self.raw, self.wakes, self.seq0 = self.table.step, [], [], self.seq

        def ulp_apart(*a):
            value, wake = step(*a)
            self.raw.append(wake)
            if len(self.raw) % 2 == 0:
                wake = math.nextafter(wake, math.inf)
            self.wakes.append(wake)
            return value, wake

        self.table.step = ulp_apart
        super()._decide(t, batch, *args)
        raise Stop


def test_decisions_group_wakeups_by_float_equality():
    # one rate group, GCS off: the batch's members all step to one wake
    # instant, and moving every second one by an ulp must split the run
    doc = random_template_doc(16)
    doc["gcs"]["enabled"] = False
    sim = UlpApart(scen.build_scenario(doc))
    with pytest.raises(Stop):
        sim.run()
    assert len(set(sim.raw)) == 1 and len(sim.wakes) >= 2
    entries = sorted((e for e in sim.heap if e[2] == engine.K_WAKEUP and e[1] >= sim.seq0), key=lambda e: e[1])
    assert [(t, seq, len(members)) for t, seq, _, members in entries] == [
        (w, sim.seq0 + i, 1) for i, w in enumerate(sim.wakes)
    ]


def test_full_grid4x4_run_pops_grouped_entries(monkeypatch):
    # the entries the loop pops, by kind, and the node events they hold;
    # the metrics mode changes no event, so the faster one runs
    popped, held = Counter(), Counter()

    def counted(heap):
        entry = heapq.heappop(heap)
        popped[entry[2]] += 1
        if entry[2] in (engine.K_WAKEUP, engine.K_EVALUATE):
            held[entry[2]] += len(entry[3])
        return entry

    monkeypatch.setattr(engine, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=counted))
    doc = scen.load_document("grid4x4")
    doc["sim"]["metrics"] = "skew_only"
    engine.run(scen.build_scenario(doc))
    assert (popped[engine.K_WAKEUP], held[engine.K_WAKEUP]) == (1210, 9616)
    assert (popped[engine.K_EVALUATE], held[engine.K_EVALUATE]) == (1220, 9600)
    assert sum(popped.values()) == 2430  # no entry of another kind


def sampled(sim) -> list[float]:
    """The instants ``sim`` hands its oracle as samples, in a list that
    fills as it runs."""
    times, sample = [], sim.oracle.sample
    sim.oracle.sample = lambda t: (times.append(t), sample(t))[1]
    return times


def test_forced_samples_fall_on_the_twins_instants():
    # ticks every 0.1, whose addition chain drifts off k * 0.1; node 1's
    # rate breakpoint on the tenth tick, node 0's on its first evaluation,
    # and the horizon on the 600th tick
    dt, chain = 0.1, [0.1]
    while len(chain) < 600:
        chain.append(chain[-1] + dt)
    assert chain[9] != 10 * dt
    doc = line_doc(3, UNIT_EDGE, {
        "theta": 1.001, "mu": 0.01,
        "nodes": [
            {"generator": "scripted", "segments": [[0.0, 1.0], [3.5, 1.001]]},
            {"generator": "scripted", "segments": [[0.0, 1.001], [chain[9], 1.0]]},
            {"generator": "constant", "rate": 1.0005},
        ],
    }, {"T": 3.5, "T_stab": 1.5, "p_max": 0.2}, {"horizon_time": chain[-1], "sample_dt": dt, "master_seed": 3})
    sc = scen.build_scenario(doc)
    sim, twin = KeyedEngine(sc), PerEventLoop(sc)
    samples, twin_samples = sampled(sim), sampled(twin)
    sim.run()
    twin.run()
    assert 3.5 in {t for t, _ in sim.keys}  # node 0's first evaluation
    assert {3.5, chain[9], chain[-1]} <= set(samples)
    assert samples[-1] == chain[-1] and samples.count(chain[-1]) == 1
    assert samples == twin_samples


class PlanCounting(engine._Simulation):
    """The engine, keeping in ``most`` the most plans it has held."""

    most = 0

    def _on_evaluate(self, t, batch):
        super()._on_evaluate(t, batch)
        self.most = max(self.most, len(self._plans))


@pytest.mark.parametrize("name", ["distinct_rate-16", "random_walk-master seed", "random_walk-node seed"])
def test_plans_stay_within_one_per_node(name):
    sim = PlanCounting(scen.build_scenario(DOCS[name]()))
    sim.run()
    assert 0 < sim.most <= sim.sc.graph.n


class Unplanned(engine._Simulation):
    """The engine, dropping its plans after every instant's evaluations."""

    def _on_evaluate(self, t, batch):
        super()._on_evaluate(t, batch)
        self._plans.clear()


@pytest.mark.parametrize("name", ["grid4x4-full", "distinct_rate-16", "random_walk-node seed"])
def test_plans_kept_write_what_plans_rebuilt_write(tmp_path, name):
    files, _ = cli_run(tmp_path, DOCS[name](), engine._Simulation)
    rebuilt, _ = cli_run(tmp_path, DOCS[name](), Unplanned)
    for f in FILES:
        assert files[f] == rebuilt[f], f
