"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import filecmp
import math
import time

import numpy as np
import pytest

from gcsim import cli, engine, metrics
from gcsim import scenario as scen
from reference import level_potential, recorded_run
from scenario_gen import antiphase_line_doc, fc_lag_doc, random_suite_doc, zero_drift_doc

PINNED = ("line8", "ring12", "grid4x4")


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def _kinds(violations) -> dict:
    out = {}
    for v in violations:
        out[v.kind] = out.get(v.kind, 0) + 1
    return out


@pytest.fixture(scope="session")
def line8_cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("line8_run")
    t0 = time.perf_counter()
    rc = cli.main(["run", "--scenario", "line8", "--out", str(out)])
    wall = time.perf_counter() - t0
    assert rc == cli.EXIT_OK
    return {"out": out, "wall": wall}


@pytest.fixture(scope="session")
def pinned_runs(line8_cli_run):
    """The three bound scenarios, run through the library."""
    runs = {}
    for name in PINNED:
        sc = scen.load_scenario(name)
        assert sc.params.theta == 1.001 and sc.params.mu == 0.01
        assert len(set(round(k, 12) for k in sc.kappa.values())) == 1  # kappa-uniform
        doc = scen.load_document(name)
        assert doc["sim"]["horizon_cycles"] >= 200
        t0 = time.perf_counter()
        res = engine.run(sc)
        runs[name] = {"sc": sc, "res": res, "wall": time.perf_counter() - t0}
    return runs


@pytest.fixture(scope="session")
def random_suite():
    """50 randomized scenarios plus two lag-regime ones, >= 100 cycles each."""
    t0 = time.perf_counter()
    results = []
    for seed in range(50):
        sc = scen.build_scenario(random_suite_doc(seed))
        results.append(engine.run(sc))
    for seed in (5, 6):
        results.append(engine.run(scen.build_scenario(fc_lag_doc(seed))))
    wall = time.perf_counter() - t0
    counters = {}
    kinds = {}
    for res in results:
        for k, v in res.summary.counters.items():
            counters[k] = counters.get(k, 0) + v
        for k, v in _kinds(res.violations).items():
            kinds[k] = kinds.get(k, 0) + v
    return {"results": results, "counters": counters, "kinds": kinds, "wall": wall,
            "scenarios": 52}


def test_criterion_01_trigger_mutual_exclusion(random_suite, pinned_runs):
    assert random_suite["scenarios"] >= 50
    evals = random_suite["counters"]["trigger_evaluations"]
    for run in pinned_runs.values():
        evals += run["res"].summary.counters["trigger_evaluations"]
    assert evals >= 100_000
    assert random_suite["kinds"].get("trigger_coexistence", 0) == 0
    for run in pinned_runs.values():
        assert _kinds(run["res"].violations).get("trigger_coexistence", 0) == 0
    assert random_suite["wall"] < 60.0
    print(f"  [{evals} trigger evaluations in {random_suite['wall']:.1f}s]")
    _report(1, "trigger mutual exclusion")


def test_criterion_02_conditions_imply_triggers(random_suite, pinned_runs):
    assert random_suite["kinds"].get("condition_without_trigger", 0) == 0
    for run in pinned_runs.values():
        assert _kinds(run["res"].violations).get("condition_without_trigger", 0) == 0
    # the implication was exercised on both sides, not vacuously satisfied
    assert random_suite["counters"]["sc_instances"] > 0
    assert random_suite["counters"]["fc_instances"] > 0
    print(f"  [sc={random_suite['counters']['sc_instances']} "
          f"fc={random_suite['counters']['fc_instances']} instances]")
    _report(2, "conditions imply triggers")


def test_criterion_03_estimate_sandwich(random_suite, pinned_runs):
    uses = random_suite["counters"]["estimate_uses"]
    assert random_suite["kinds"].get("estimate_sandwich", 0) == 0
    for run in pinned_runs.values():
        uses += run["res"].summary.counters["estimate_uses"]
        assert _kinds(run["res"].violations).get("estimate_sandwich", 0) == 0
    assert uses > 100_000
    print(f"  [{uses} estimate uses checked at 1e-9 tolerance]")
    _report(3, "estimate sandwich")


def test_criterion_04_local_skew_bound(pinned_runs):
    for name, run in pinned_runs.items():
        report = run["res"].summary.bound_report
        assert report["local_satisfied"], name
        assert _kinds(run["res"].violations).get("bound_local", 0) == 0
        assert all(rec["satisfied"] for rec in report["per_edge"]), name
        assert run["wall"] < 10.0, f"{name} took {run['wall']:.1f}s"
        print(f"  [{name}: max local {report['max_observed_local']:.4f} "
              f"<= {report['local_bound']:.4f} in {run['wall']:.1f}s]")
    _report(4, "local skew bound")


def test_criterion_05_global_skew_bound(pinned_runs):
    for name, run in pinned_runs.items():
        report = run["res"].summary.bound_report
        assert report["global_satisfied"], name
        assert _kinds(run["res"].violations).get("bound_global", 0) == 0
        print(f"  [{name}: max global {report['max_observed_global']:.4f} "
              f"<= {report['global_bound']:.4f}]")
    _report(5, "global skew bound")


def test_criterion_06_potential_growth(pinned_runs):
    for name, run in pinned_runs.items():
        trace = run["res"].trace
        assert _kinds(run["res"].violations).get("corollary1", 0) == 0
        assert metrics.corollary1_check_all(trace, run["sc"].params.theta) == []
    # negative control: an artificial clock jump must be caught
    trace = pinned_runs["line8"]["res"].trace
    corrupted = metrics.corollary1_check  # same checker, corrupted copy
    saved = trace.logical
    trace.logical = saved.copy()
    trace.logical[len(trace) // 2, 0] += 0.5
    flagged = corrupted(trace, 1, theta=1.001)
    trace.logical = saved
    assert flagged, "corrupted fixture must be flagged"
    _report(6, "potential growth envelope")


def test_criterion_07_two_way_algebra():
    _, measurements = recorded_run(scen.build_scenario(zero_drift_doc(True, horizon_cycles=25)))
    assert measurements
    for m in measurements:
        true_mean = 0.5 * (m.fwd_delay_actual + m.bwd_delay_actual)
        assert abs(m.estimate.d_avg - true_mean) <= 1e-12
        assert abs(m.estimate.offset - m.true_offset_mid) <= 1e-12
    _, measurements = recorded_run(scen.build_scenario(zero_drift_doc(False, horizon_cycles=25)))
    cap = abs(1.0 - 1.4) / 2 + 0.05
    for m in measurements:
        assert abs(m.estimate.offset - m.true_offset_mid) <= cap + 1e-12
    _report(7, "two-way algebra exactness")


def _boot_doc(initial_values):
    e = {"fwd_delay": 1.0, "bwd_delay": 1.0, "jitter": 0.0, "eps_d": 0.0,
         "eps_m": 0.5, "length": 1.0}  # kappa exactly 1.0 at theta=1
    n = len(initial_values)
    return {
        "graph": {"nodes": n, "d_max": 1.5,
                  "edges": [{"u": i, "v": i + 1, **e} for i in range(n - 1)]},
        "clocks": {"theta": 1.0, "mu": 0.01,
                   "default": {"generator": "constant", "rate": 1.0},
                   "overrides": {str(i): {"initial_value": v}
                                  for i, v in enumerate(initial_values)}},
        "gcs": {"T": 4.0, "T_stab": 2.0, "p_max": 0.2, "s_max": 3},
        "sim": {"horizon_cycles": 2, "sample_dt": 2.0, "master_seed": 1,
                "metrics": "full"},
    }


def test_criterion_08_boot_up_zero_potential():
    for initial in ([0.0, 0.5, 1.5, 1.5, 2.25], [0.0, 1.0, 2.0], [3.0, 3.0]):
        sc = scen.build_scenario(_boot_doc(initial))
        dist = sc.dist
        for s in range(1, sc.params.s_max + 1):
            val, _ = level_potential(initial, dist, s)
            assert val == 0.0
        res = engine.run(sc)
        assert res.trace.times[0] == 0.0
        assert np.all(res.trace.psi_levels[0] == 0.0)
    # sanity: per-edge skew above kappa does give positive potential
    sc = scen.build_scenario(_boot_doc([0.0, 1.0]))
    val, _ = level_potential([0.0, 1.2], sc.dist, 1)
    assert val > 0.0
    _report(8, "boot-up zero potential")


def test_criterion_09_algorithm_effect():
    doc_off = antiphase_line_doc(n_nodes=3, horizon_time=4444.0, enabled=False)
    sc_off = scen.build_scenario(doc_off)
    bound = sc_off.global_bound
    deadline = 2.0 * bound / (sc_off.params.theta - 1.0)
    assert deadline >= 4444.0
    res_off = engine.run(sc_off)
    t_cross = res_off.summary.first_global_bound_exceed_time
    assert t_cross is not None and t_cross < deadline
    doc_on = antiphase_line_doc(n_nodes=3, horizon_time=44440.0, enabled=True)
    res_on = engine.run(scen.build_scenario(doc_on))
    assert res_on.summary.first_global_bound_exceed_time is None
    assert res_on.summary.bound_report["max_observed_global"] <= bound
    print(f"  [disabled crosses {bound:.3f} at t={t_cross:.0f}s < {deadline:.0f}s; "
          f"enabled max {res_on.summary.bound_report['max_observed_global']:.3f} "
          f"over 10x horizon]")
    _report(9, "algorithm effect demonstration")


def test_criterion_10_determinism(line8_cli_run, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("line8_rerun")
    rc = cli.main(["run", "--scenario", "line8", "--out", str(out2)])
    assert rc == cli.EXIT_OK
    for fname in ("trace.csv", "summary.json"):
        a = line8_cli_run["out"] / fname
        b = out2 / fname
        assert filecmp.cmp(a, b, shallow=False), f"{fname} differs between reruns"
    _report(10, "determinism (byte-identical reruns)")


def test_criterion_11_static_formula_cross_check():
    sc = scen.load_scenario("line8")
    report = scen.static_report(sc)
    close = lambda a, b: math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    assert close(report["sigma"], 10.0)
    assert close(report["global_bound"], 80.0 / 9.0)
    assert close(report["local_bound"], 2.0)
    assert close(report["timeout_window"], (2 * 1.5 + 0.2 + 0.001) * 1.001)
    assert close(report["kappa_diameter"], 8.0)
    for rec in report["kappa_per_edge"]:
        assert close(rec["kappa"], 1.0)
    _report(11, "static formula cross-check")
