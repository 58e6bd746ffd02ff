"""Scenario builders shared by the unit and acceptance tests.

The randomized suite keeps every draw inside envelopes where the estimate
sandwich provably holds with margin: the measurement-uncertainty floor is
raised until the worst-case extrapolation drift over one measuring window
stays well below both sandwich margins.
"""
from __future__ import annotations

import numpy as np

UNIT_EDGE = {
    "fwd_delay": 1.0,
    "bwd_delay": 1.0,
    "jitter": 0.0,
    "eps_d": 0.498,
    "eps_m": 0.001,
    "length": 1.0,
}


def line_doc(n_nodes, edge, clocks, gcs, sim):
    edges = [{"u": i, "v": i + 1, **edge} for i in range(n_nodes - 1)]
    return {
        "graph": {"nodes": n_nodes, "d_max": 1.5, "edges": edges},
        "clocks": clocks,
        "gcs": gcs,
        "sim": sim,
    }


def antiphase_line_doc(n_nodes=3, horizon_time=None, horizon_cycles=None, enabled=True,
                       metrics="skew_only", seed=11):
    sim = {"sample_dt": 2.0, "master_seed": seed, "metrics": metrics}
    if horizon_time is not None:
        sim["horizon_time"] = horizon_time
    else:
        sim["horizon_cycles"] = horizon_cycles or 100
    return line_doc(
        n_nodes,
        UNIT_EDGE,
        {
            "theta": 1.001,
            "mu": 0.01,
            "default": {"generator": "constant", "rate": 1.0, "initial_value": 0.0},
            "overrides": {str(i): {"rate": 1.001} for i in range(1, n_nodes, 2)},
        },
        {"T": 3.5, "T_stab": 1.5, "p_max": 0.2, "enabled": enabled},
        sim,
    )


def zero_drift_doc(symmetric=True, horizon_cycles=30, seed=9):
    e = {
        "fwd_delay": 1.0,
        "bwd_delay": 1.0 if symmetric else 1.4,
        "jitter": 0.0 if symmetric else 0.05,
        "eps_d": 0.0 if symmetric else 0.35,
        "eps_m": 0.02,
        "length": 1.0,
    }
    return {
        "graph": {"nodes": 3, "d_max": 2.0,
                  "edges": [{"u": 0, "v": 1, **e}, {"u": 1, "v": 2, **e}]},
        "clocks": {"theta": 1.0, "mu": 0.01,
                   "default": {"generator": "constant", "rate": 1.0, "initial_value": 0.0}},
        "gcs": {"T": 5.0, "T_stab": 2.0, "p_max": 0.5, "s_max": 2},
        "sim": {"horizon_cycles": horizon_cycles, "sample_dt": 2.0, "master_seed": seed,
                "metrics": "full"},
    }


def fc_lag_doc(seed=5):
    """Long stabilisation windows let true gaps jump past the fast-condition
    threshold between evaluations, so the condition oracles fire."""
    e = {"fwd_delay": 1.0, "bwd_delay": 1.0, "jitter": 0.0, "eps_d": 0.0,
         "eps_m": 0.1, "length": 1.0}
    return {
        "graph": {"nodes": 3, "d_max": 1.3,
                  "edges": [{"u": 0, "v": 1, **e}, {"u": 1, "v": 2, **e}]},
        "clocks": {"theta": 1.0005, "mu": 0.001,
                   "default": {"generator": "constant", "rate": 1.0, "initial_value": 0.0},
                   "overrides": {"1": {"rate": 1.0005}}},
        "gcs": {"T": 3.1, "T_stab": 450.0, "p_max": 0.1, "s_max": 2},
        "sim": {"horizon_cycles": 110, "sample_dt": 150.0, "master_seed": seed,
                "metrics": "skew_only"},
    }


def random_suite_doc(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    theta = 1.0 + float(rng.uniform(2e-4, 1.2e-3))
    sigma = float(rng.uniform(3.0, 12.0))
    mu = sigma * (theta - 1.0)
    d = float(rng.uniform(0.5, 2.0))
    eps_d = float(rng.uniform(0.0, 0.25))
    budget = 0.6 * eps_d * d
    delta = float(rng.uniform(0.0, 0.7)) * budget
    jitter = float(rng.uniform(0.0, max(0.0, budget - delta)))
    fwd, bwd = d, d + delta
    max_bound = bwd + jitter
    d_max = max_bound * 1.3
    p_max = float(rng.uniform(0.0, 0.3))
    eps_m = float(rng.uniform(0.02, 0.15))
    for _ in range(4):
        timeout = (2 * d_max + p_max + eps_m) * theta
        T = timeout * 1.1
        window = T + 2 * d_max + p_max
        need = max(2.5 * (theta - 1) * window, 2.5 * (mu + theta - 1) * window)
        if eps_m >= need:
            break
        eps_m = need
    timeout = (2 * d_max + p_max + eps_m) * theta
    T = timeout * 1.1
    T_stab = T * float(rng.uniform(0.4, 1.0))
    kappa = 2 * (max_bound * (theta - 1 + eps_d) + eps_m)

    kind = ["antiphase", "alternating", "random_walk"][seed % 3]
    default = {"generator": "constant", "rate": 1.0, "initial_value": 0.0}
    overrides: dict = {}
    if kind == "antiphase":
        for i in range(1, n, 2):
            overrides[str(i)] = {"rate": theta}
    elif kind == "alternating":
        dwell = float(rng.uniform(2, 5)) * (T + T_stab)
        default = {"generator": "alternating", "dwell": dwell, "start_high": False,
                   "initial_value": 0.0}
        for i in range(1, n, 2):
            overrides[str(i)] = {"start_high": True}
    else:
        default = {"generator": "random_walk", "dwell": float(rng.uniform(0.5, 2)) * T,
                   "step": (theta - 1) * 0.5, "initial_value": 0.0}
    # parity offsets inside the per-edge budget kick the triggers awake early
    for i in range(1, n, 2):
        overrides.setdefault(str(i), {})["initial_value"] = 0.9 * kappa
    return {
        "graph": {
            "template": {
                "kind": "random", "n": n, "extra_edges": int(rng.integers(0, 3)),
                "seed": seed,
                "edge": {"fwd_delay": fwd, "bwd_delay": bwd, "jitter": jitter,
                         "eps_d": eps_d, "eps_m": eps_m, "length": 1.0},
            },
            "d_max": d_max,
        },
        "clocks": {"theta": theta, "mu": mu, "default": default, "overrides": overrides},
        "gcs": {"T": T, "T_stab": T_stab, "p_max": p_max, "s_max": 2},
        "sim": {"horizon_cycles": 110, "sample_dt": (T + T_stab) / 3.0,
                "master_seed": seed, "metrics": "full"},
    }


# Nodes whose alternating clock starts at rate theta in corollary1_doc.
_COROLLARY1_FAST_START = {0, 1, 2, 3, 6, 10, 12, 13, 14, 16, 17, 19, 20, 22, 26, 27, 30,
                          35, 38, 39, 40, 42, 45, 46, 50, 56, 59, 60, 61, 63}


def corollary1_doc() -> dict:
    """A valid random-template run (n = 64, eps_d 0.1, zero offsets) on
    which a node's potential psi_1 rises faster than theta - 1: node 23's
    neighbour 15 runs fast on [48.36, 49.73] while node 23 runs at rate 1.
    The document is the n = 64 row of the benchmark's sweep generator at
    seed 43 with eps_d 0.1 and master seed 0."""
    edge = {"fwd_delay": 1.0, "bwd_delay": 1.0, "jitter": 0.05, "eps_d": 0.1,
            "eps_m": 0.001, "length": 1.0}
    return {
        "graph": {"d_max": 1.5, "template": {"kind": "random", "n": 64, "extra_edges": 16,
                                             "seed": 127143873, "edge": edge}},
        "clocks": {
            "theta": 1.01,
            "mu": 0.1,
            "default": {"generator": "alternating", "dwell": 1000.0, "start_high": False},
            "overrides": {str(i): {"start_high": i in _COROLLARY1_FAST_START, "initial_value": 0.0}
                          for i in range(64)},
        },
        "gcs": {"T": 3.5, "T_stab": 1.5, "p_max": 0.2, "s_max": 3},
        "sim": {"horizon_cycles": 12, "sample_dt": 1.0, "master_seed": 0, "metrics": "full"},
    }


def random_template_doc(n: int, horizon_cycles: int = 12, metrics: str = "full") -> dict:
    """The random-template document of the README's full-mode "Scale" runs:
    n/2 extra edges, kappa 0.338, 3 levels, even nodes starting at rate
    theta and odd nodes at rate 1."""
    edge = {"fwd_delay": 1.0, "bwd_delay": 1.0, "jitter": 0.05, "eps_d": 0.15,
            "eps_m": 0.001, "length": 1.0}
    return {
        "graph": {"d_max": 1.5, "template": {"kind": "random", "n": n, "extra_edges": n // 2,
                                             "seed": 7, "edge": edge}},
        "clocks": {"theta": 1.01, "mu": 0.1,
                   "default": {"generator": "alternating", "dwell": 1000.0, "start_high": False},
                   "overrides": {str(i): {"start_high": True} for i in range(0, n, 2)}},
        "gcs": {"T": 3.5, "T_stab": 1.5, "p_max": 0.2, "s_max": 3},
        "sim": {"horizon_cycles": horizon_cycles, "sample_dt": 1.0, "master_seed": 1,
                "metrics": metrics},
    }


def distinct_rate_doc(n: int, horizon_cycles: int = 12, metrics: str = "full") -> dict:
    """:func:`random_template_doc` with each node at its own constant rate,
    drawn uniformly in [1, theta] from a fixed seed (node i's rate is the
    i-th draw at every n).  Where the template's two rate groups put a
    cycle's evaluations on about a dozen instants, these fall on about 2n,
    so a full run samples about 2n rows per cycle."""
    doc = random_template_doc(n, horizon_cycles, metrics)
    rates = np.random.default_rng(16).uniform(1.0, doc["clocks"]["theta"], size=n)
    doc["clocks"]["default"] = {"generator": "constant", "rate": 1.0}
    doc["clocks"]["overrides"] = {str(i): {"rate": float(r)} for i, r in enumerate(rates)}
    return doc
