"""The engine's ground-truth checks, made per chunk, against the same checks
made one event at a time (``reference.PerEventChecks``, on the engine's
three-event twin).

Untampered runs record no sandwich or condition violation, so the runs
here are tampered until every check fires: some estimates are shifted off
the sandwich, and the trigger drops some levels at which its condition
holds.  The engine must then report the violations and counters the
per-event form reports, whatever the chunk size and metrics mode, and an
aborted run the violations found up to the abort.
"""
import math
from collections import Counter

import numpy as np
import pytest

from gcsim import engine, gcs
from gcsim import scenario as scen
from gcsim.errors import RunAborted

from reference import PerEventChecks, Recording
from scenario_gen import fc_lag_doc, random_suite_doc

CHECKED = ("estimate_sandwich", "condition_without_trigger")
COUNTERS = ("estimate_uses", "sc_instances", "fc_instances")
DOCS = {"fc_lag": fc_lag_doc, "random_suite": lambda: random_suite_doc(0)}
# the conditions that hold without their trigger in each tampered run
FIRING = {"fc_lag": {"slow", "fast"}, "random_suite": {"slow"}}


def key(v):
    return (v.time, v.kind, v.detail)


def tamper(monkeypatch, kappa: float) -> None:
    """Shift the offset of some estimates by +kappa (the estimate then
    overstates the neighbour) or -2 kappa (it understates it by more than
    the error bound), and drop the lowest slow or fast level the trigger
    finds on some evaluations.  Which ones follows from the responder's
    arrival stamp and from the estimated leads, which the engine and its
    twin compute alike, so both tamper the same ones."""
    compute = engine.compute_estimates

    def shifted(t1, t2, t3, t4, eps_d, eps_m, theta):
        d_avg, offset, deduction = compute(t1, t2, t3, t4, eps_d, eps_m, theta)
        key = np.floor(1e6 * t2) % 4
        return d_avg, offset + np.select([key == 0, key == 1], [kappa, -2.0 * kappa], 0.0), deduction

    levels = gcs.trigger_levels

    def dropping(lead, thresholds, starts):
        slow, fast = levels(lead, thresholds, starts)
        key = np.floor(1e6 * np.add.reduceat(np.abs(lead), starts)) % 3
        for k, fired in enumerate((slow, fast)):
            rows = np.flatnonzero((key == k) & fired.any(axis=1))
            fired[rows, fired[rows].argmax(axis=1)] = False
        return slow, fast

    monkeypatch.setattr(engine, "compute_estimates", shifted)
    monkeypatch.setattr(gcs, "trigger_levels", dropping)


def checked_sim(monkeypatch, doc_name: str, mode: str, chunk_values: int, tampered: bool = True):
    monkeypatch.setattr(engine, "_CHUNK_VALUES", chunk_values)
    doc = DOCS[doc_name]()
    doc["sim"]["metrics"] = mode
    sc = scen.build_scenario(doc)
    if tampered:
        tamper(monkeypatch, max(sc.kappa.values()))
    return PerEventChecks(sc)


@pytest.mark.parametrize("chunk_values", [engine._CHUNK_VALUES, 1, 50])
@pytest.mark.parametrize("mode", ["full", "skew_only"])
@pytest.mark.parametrize("doc_name", sorted(DOCS))
def test_tampered_run_reports_what_per_event_checks_report(monkeypatch, doc_name, mode, chunk_values):
    sim = checked_sim(monkeypatch, doc_name, mode, chunk_values)
    res = sim.run()
    got = [v for v in res.violations if v.kind in CHECKED]
    assert got == sorted(sim.ref_violations, key=key)
    assert {k: res.summary.counters[k] for k in COUNTERS} == sim.ref_counters
    # the engine, with its one-event exchanges and batched evaluations, reports the same
    ran = engine._Simulation(sim.sc).run()
    assert [v for v in ran.violations if v.kind in CHECKED] == got
    assert {k: ran.summary.counters[k] for k in COUNTERS} == sim.ref_counters
    # every check fired
    assert Counter(v.kind for v in got).keys() == set(CHECKED)
    fired = {v.detail.split()[2] for v in got if v.kind == "condition_without_trigger"}
    assert fired == FIRING[doc_name]


@pytest.mark.parametrize("mode", ["full", "skew_only"])
@pytest.mark.parametrize("doc_name", sorted(DOCS))
def test_untampered_run_is_clean_on_both_forms(monkeypatch, doc_name, mode):
    sim = checked_sim(monkeypatch, doc_name, mode, engine._CHUNK_VALUES, tampered=False)
    res = sim.run()
    assert sim.ref_violations == []
    assert not [v for v in res.violations if v.kind in CHECKED]
    assert {k: res.summary.counters[k] for k in COUNTERS} == sim.ref_counters


def abort_after(sim, t_abort: float, kind: str) -> None:
    """Make the run abort on a genuine integrity check right after the first
    reply or evaluation at ``t_abort`` that the per-event checks flag with
    ``kind``: that handler schedules an event one time unit in the past,
    and the loop stops at it."""
    for name in ("_on_reply_arrival", "_on_evaluate"):
        handler = getattr(sim, name)

        def wrapped(t, *args, _h=handler):
            seen = len(sim.ref_violations)
            _h(t, *args)
            if t == t_abort and any(v.kind == kind for v in sim.ref_violations[seen:]):
                sim.push(t - 1.0, engine.K_TICK, None)

        setattr(sim, name, wrapped)


@pytest.mark.parametrize("chunk_values", [engine._CHUNK_VALUES, 1, 50])
@pytest.mark.parametrize("kind", CHECKED)
def test_abort_carries_every_violation_up_to_it(monkeypatch, chunk_values, kind):
    whole = checked_sim(monkeypatch, "fc_lag", "skew_only", chunk_values)
    whole.run()
    times = [v.time for v in sorted(whole.ref_violations, key=key) if v.kind == kind]
    t_abort = times[len(times) // 4]

    sim = PerEventChecks(whole.sc)
    abort_after(sim, t_abort, kind)
    with pytest.raises(RunAborted, match="event time regressed") as exc:
        sim.run()
    reported = exc.value.violations
    assert reported == sorted(reported, key=key)
    want = sorted(sim.ref_violations, key=key)
    assert [v for v in reported if v.kind in CHECKED] == want
    assert want[-1].time == t_abort
    assert len(want) < len(whole.ref_violations)


@pytest.mark.parametrize("chunk_values", [engine._CHUNK_VALUES, 1])
@pytest.mark.parametrize("mode", ["full", "skew_only"])
def test_drift_abort_carries_every_violation_up_to_it(monkeypatch, mode, chunk_values):
    # a hardware reading jumps at an evaluation that breaks a condition: the
    # drift check aborts the run only after its chunk's other checks
    whole = checked_sim(monkeypatch, "fc_lag", mode, chunk_values)
    whole.run()
    times = [v.time for v in sorted(whole.ref_violations, key=key) if v.kind == "condition_without_trigger"]
    t_bad = times[len(times) // 4]
    sample = engine.sample_clocks

    def tampered(table, t):
        L, H, anchors = sample(table, t)
        H[t == t_bad, 0] += 0.5
        return L, H, anchors

    monkeypatch.setattr(engine, "sample_clocks", tampered)
    sim = PerEventChecks(whole.sc)
    with pytest.raises(RunAborted, match="hardware clock violated its drift envelope") as exc:
        sim.run()
    reported = exc.value.violations
    assert reported == sorted(reported, key=key)
    want = sorted(sim.ref_violations, key=key)
    assert [v for v in reported if v.kind in CHECKED] == want
    assert t_bad in [v.time for v in want]
    if chunk_values == 1:  # aborted at the chunk of the tampered sample
        assert want[-1].time == t_bad
        assert len(want) < len(whole.ref_violations)


def tampered_fc_lag(monkeypatch, chunk_values: int):
    """The tampered fc_lag scenario and the engine's whole run of it."""
    monkeypatch.setattr(engine, "_CHUNK_VALUES", chunk_values)
    sc = scen.build_scenario(fc_lag_doc())
    tamper(monkeypatch, max(sc.kappa.values()))
    return sc, engine.run(sc)


def checked_before(res, t_abort: float, skip=lambda v: False) -> list:
    """The checked violations of the whole run ``res`` before ``t_abort``."""
    return [v for v in res.violations if v.kind in CHECKED and v.time < t_abort and not skip(v)]


@pytest.mark.parametrize("chunk_values", [engine._CHUNK_VALUES, 1])
def test_timeout_abort_reports_every_reply_before_it(monkeypatch, chunk_values):
    # a timeout window that some round trip exceeds, but none whose reply
    # arrives in the first quarter of the run: the run ends at the first
    # evaluation that completes such an exchange, with the checks of every
    # reply that arrived before, evaluated or not
    sc, whole = tampered_fc_lag(monkeypatch, chunk_values)
    recording = Recording(sc)
    recording.run()
    trips = [(m.record.completed_at_real, m.record.l_v_t4 - m.record.l_v_t1) for m in recording.measurements]
    t_from = trips[len(trips) // 4][0]
    sc.timeout = max(trip for t, trip in trips if t <= t_from)
    sim = engine._Simulation(sc)
    with pytest.raises(RunAborted, match="exceeded the timeout window") as exc:
        sim.run()
    t_abort = sim.current
    assert t_abort > t_from
    # each reply that arrived is completed once
    assert sim.counters["measurements"] == sum(t <= t_abort for t, _ in trips)
    reported = exc.value.violations
    assert reported == sorted(reported, key=key)
    want = checked_before(whole, t_abort)
    assert [v for v in reported if v.kind in CHECKED] == want
    assert {v.kind for v in want} == set(CHECKED)
    assert len(want) < len([v for v in whole.violations if v.kind in CHECKED])


@pytest.mark.parametrize("chunk_values", [engine._CHUNK_VALUES, 1])
def test_timeout_abort_at_the_end_reports_every_reply_before_it(monkeypatch, chunk_values):
    # the run ends at a reply that breaks the sandwich, before its requester
    # evaluates, and the run's end finds a round trip over the timeout
    # window: the abort still reports that reply's check and those of the
    # other replies that arrived after the last evaluation
    sc, whole = tampered_fc_lag(monkeypatch, chunk_values)
    recording = Recording(sc)
    recording.run()
    replies = [m.record.completed_at_real for m in recording.measurements]
    t_from = 0.75 * sc.horizon_cycles * sc.params.cycle_length
    sc.horizon_time = min(
        v.time for v in whole.violations if v.kind == "estimate_sandwich" and v.time > t_from and v.time in replies
    )
    sim = engine._Simulation(sc)
    settle = sim._settle

    def timing_out(limit, check_timeout):
        if check_timeout:
            sc.timeout = 0.0
        settle(limit, check_timeout)

    sim._settle = timing_out
    with pytest.raises(RunAborted, match="exceeded the timeout window") as exc:
        sim.run()
    assert sim.current < sc.horizon_time
    assert sim.counters["measurements"] == sum(t <= sc.horizon_time for t in replies)
    reported = exc.value.violations
    assert reported == sorted(reported, key=key)
    want = [v for v in whole.violations if v.kind in CHECKED and v.time <= sc.horizon_time]
    assert [v for v in reported if v.kind in CHECKED] == want


@pytest.mark.parametrize("chunk_values", [engine._CHUNK_VALUES, 1])
def test_incomplete_views_abort_reports_every_reply_before_it(monkeypatch, chunk_values):
    # one reply, emitted after the first quarter of the run, arrives long
    # after its requester evaluates: that evaluation ends the run, with the
    # checks of every other reply that arrived before
    sc, whole = tampered_fc_lag(monkeypatch, chunk_values)
    t_from = 0.25 * sc.horizon_cycles * sc.params.cycle_length
    sim = engine._Simulation(sc)
    draw, delayed = sim._draw_replies, []

    def late(dirs, ex, before=None):
        emit, reply = ex[engine._EMIT], ex[engine._REPLY]
        undrawn = reply == math.inf
        draw(dirs, ex, before)
        for i in np.flatnonzero(undrawn & (emit > t_from) & (reply < math.inf))[:1].tolist():  # drawn now, emitted after t_from
            if not delayed:
                delayed.append((int(sim._src[dirs[i]]), int(sim._dst[dirs[i]]), float(reply[i])))
                reply[i] += sc.params.cycle_length
                sim._ex[engine._REPLY, dirs[i]] = reply[i]

    sim._draw_replies = late
    with pytest.raises(RunAborted) as exc:
        sim.run()
    (v, w, arrival), = delayed
    t_abort = sim.current
    k = sim.cycle[v]
    assert str(exc.value) == f"node {v} evaluating cycle {k} with incomplete views (missing [{w}])"
    assert arrival < t_abort
    reported = exc.value.violations
    assert reported == sorted(reported, key=key)
    # the delayed reply is not checked: it has not arrived
    unchecked = lambda x: x.time == arrival and x.detail.startswith(f"estimate of {w} at {v} ")
    want = checked_before(whole, t_abort, unchecked)
    assert [x for x in reported if x.kind in CHECKED] == want
    assert {x.kind for x in want} == set(CHECKED)
    assert len(want) < len([x for x in whole.violations if x.kind in CHECKED])
