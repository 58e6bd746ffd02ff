"""Seeded input generation for the three benchmark workloads.

Every workload writes plain scenario (and grid) JSON files into a fresh
directory; the program under test only ever sees those files.  The same
seed gives byte-identical files.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from checks import edge_kappa

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "gcsim" / "scenarios"

# Link parameters of the generated random-template scenarios.  The
# resulting uniform kappa is 2 * (1.05 * (theta - 1 + 0.1) + 0.001) = 0.233.
RANDOM_EDGE = {
    "fwd_delay": 1.0,
    "bwd_delay": 1.0,
    "jitter": 0.05,
    "eps_d": 0.1,
    "eps_m": 0.001,
    "length": 1.0,
}
THETA = 1.01
MU = 0.1
DWELL = 1000.0
SWEEP_NS = (16, 32, 64)
SWEEP_MAX_N = max(SWEEP_NS)
SWEEP_EXTRA_EDGES = 16
SWEEP_CYCLES = 12
SWEEP_OFFSET_FRAC = 0.0
# The sweep's links have eps_d 0.15 (kappa 0.338).  With the 0.1 of
# RANDOM_EDGE the n = 64 row reports corollary1 violations on some seeds
# (97 at seed 43), so a run would fail or not depending on its seed.  At
# 0.15 seeds 0-150 ran clean on every row, with 4-62 mode changes per row.
SWEEP_EDGE = {**RANDOM_EDGE, "eps_d": 0.15}
# At n = 64 the derived level cap is 2 or 3 depending on the drawn graph's
# diameter; a fixed cap keeps the oracle work per sample the same for every
# seed.  At n = 256 the derived cap is 3 for every seed tried (1-40), so
# that workload keeps the derivation, which costs one all-pairs build.
SWEEP_S_MAX = 3
SKEW_N = 256
SKEW_EXTRA_EDGES = 128
SKEW_CYCLES = 6
SKEW_OFFSET_FRAC = 0.9


def _random_doc(
    rng: random.Random, n: int, extra_edges: int, cycles: int, metrics: str, offset_frac: float,
    gcs_extra: dict, edge: dict = RANDOM_EDGE,
) -> dict:
    """Random-template scenario with seeded phases and initial offsets.

    Offsets lie in [0, offset_frac * kappa) with offset_frac < 1: every
    pair is at least one edge (kappa) apart, so the boot-up gate holds by
    construction whatever graph the template draws.
    """
    kappa = edge_kappa(edge, THETA)
    overrides = {
        str(i): {
            "start_high": rng.random() < 0.5,
            "initial_value": round(rng.uniform(0.0, offset_frac * kappa), 6),
        }
        for i in range(n)
    }
    return {
        "graph": {
            "d_max": 1.5,
            "template": {
                "kind": "random",
                "n": n,
                "extra_edges": extra_edges,
                "seed": rng.randrange(1 << 30),
                "edge": dict(edge),
            },
        },
        "clocks": {
            "theta": THETA,
            "mu": MU,
            "default": {"generator": "alternating", "dwell": DWELL, "start_high": False},
            "overrides": overrides,
        },
        "gcs": {"T": 3.5, "T_stab": 1.5, "p_max": 0.2, **gcs_extra},
        "sim": {
            "horizon_cycles": cycles,
            "sample_dt": 1.0,
            "master_seed": rng.randrange(1 << 30),
            "metrics": metrics,
        },
    }


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the inputs of one workload into ``out_dir``.

    Returns ``argv`` (the gcsim arguments, without ``--out``), ``docs``
    (one scenario document per scenario run, as the program will build
    it), ``kind`` (``run`` or ``sweep``) and ``setup_reps``: set-up
    replays per worker, enough for a median of millisecond set-ups, few
    where one set-up takes half a second.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "run_grid4x4":
        doc = json.loads((BUNDLED / "grid4x4.json").read_text(encoding="utf-8"))
        doc["sim"]["master_seed"] = rng.randrange(1 << 30)
        path = _write(out_dir / "grid4x4.json", doc)
        return {"argv": ["run", "--scenario", path], "docs": [doc], "kind": "run", "setup_reps": 20}
    if workload == "sweep_ladder_full":
        doc = _random_doc(rng, SWEEP_MAX_N, SWEEP_EXTRA_EDGES, SWEEP_CYCLES, "full", SWEEP_OFFSET_FRAC,
                          {"s_max": SWEEP_S_MAX}, SWEEP_EDGE)
        path = _write(out_dir / "ladder.json", doc)
        grid = _write(out_dir / "grid.json", {"n": list(SWEEP_NS)})
        docs = []
        for n in SWEEP_NS:
            row = json.loads(json.dumps(doc))
            row["graph"]["template"]["n"] = n
            row["sim"]["master_seed"] = 0  # a one-seed sweep overrides the seed with 0
            docs.append(row)
        return {
            "argv": ["sweep", "--scenario", path, "--grid", grid, "--seeds", "1", "--workers", "1"],
            "docs": docs,
            "kind": "sweep",
            "setup_reps": 10,
        }
    if workload == "run_random256_skew":
        doc = _random_doc(rng, SKEW_N, SKEW_EXTRA_EDGES, SKEW_CYCLES, "skew_only", SKEW_OFFSET_FRAC, {})
        path = _write(out_dir / "random256.json", doc)
        return {"argv": ["run", "--scenario", path], "docs": [doc], "kind": "run", "setup_reps": 2}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("run_grid4x4", "sweep_ladder_full", "run_random256_skew")
