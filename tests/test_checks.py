"""The engine's ground-truth checks, made per chunk, against the same checks
made one event at a time (``reference.PerEventChecks``).

Untampered runs record no sandwich or condition violation, so the runs
here are tampered until every check fires: some estimates are shifted off
the sandwich, and the trigger drops some levels at which its condition
holds.  The engine must then report the violations and counters the
per-event form reports, whatever the chunk size and metrics mode.
"""
import dataclasses
from collections import Counter

import pytest

from gcsim import engine, gcs
from gcsim import scenario as scen
from gcsim.errors import RunAborted

from reference import PerEventChecks
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
    finds on some cycles."""
    compute = engine.compute_estimates

    def shifted(rec, eps_d, eps_m, theta, valid_cycle=-1):
        est = compute(rec, eps_d, eps_m, theta, valid_cycle)
        shift = {0: kappa, 1: -2.0 * kappa}.get((rec.neighbor + valid_cycle) % 4, 0.0)
        return dataclasses.replace(est, offset=est.offset + shift)

    levels = gcs.trigger_levels

    def dropping(node, *args, **kwargs):
        st, ft = levels(node, *args, **kwargs)
        if (node.id + node.cycle_index) % 3 == 0:
            st = st[1:]
        if (node.id + node.cycle_index) % 3 == 1:
            ft = ft[1:]
        return st, ft

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

    def tampered(clocks, t):
        L, H = sample(clocks, t)
        H[t == t_bad, 0] += 0.5
        return L, H

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
