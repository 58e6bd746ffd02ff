"""Output checks computed apart from the program.

Nothing here imports gcsim.  Static bounds come from the scenario document
alone: kappa from the SCHEMA formula, all-pairs shortest paths by
Floyd-Warshall, and the Theorem 2/3 formulas.  Trace checks read
``trace.csv`` alone.  Every check returns a list of problems; an empty
list means the output is correct.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9  # static bounds vs recomputation
ABS_TOL = 1e-9  # recomputed trace columns and slope envelopes


def edge_kappa(rec: dict, theta: float) -> float:
    """SCHEMA: kappa = 2 * (max_direction_bound * (theta - 1 + eps_d) + eps_m)."""
    bound = max(rec["fwd_delay"], rec["bwd_delay"]) + rec.get("jitter", 0.0)
    return 2.0 * (bound * (theta - 1.0 + rec.get("eps_d", 0.0)) + rec.get("eps_m", 0.0))


def _label_stream(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & (2**64 - 1)] + words)))


def random_template_edges(tpl: dict) -> tuple[int, list[tuple[int, int]]]:
    """The documented ``random`` template: a seeded random tree (node i
    attaches to a uniform earlier node) plus ``extra_edges`` distinct
    extra links, drawn from the seed's ``topology`` stream."""
    n = int(tpl["n"])
    rng = _label_stream(int(tpl.get("seed", 0)), "topology")
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    have = set(edges)
    extra, attempts = int(tpl.get("extra_edges", 0)), 0
    while extra > 0 and attempts < 100 * n:
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        key = (min(a, b), max(a, b))
        if a != b and key not in have:
            have.add(key)
            edges.append(key)
            extra -= 1
        attempts += 1
    return n, sorted(have)


def graph_of(doc: dict) -> tuple[int, list[tuple[int, int, dict]]]:
    graph = doc["graph"]
    if "template" in graph:
        tpl = graph["template"]
        if tpl["kind"] != "random":
            raise ValueError(f"unsupported template kind {tpl['kind']!r}")
        n, pairs = random_template_edges(tpl)
        return n, [(u, v, tpl.get("edge", {})) for u, v in pairs]
    return graph["nodes"], [
        (min(r["u"], r["v"]), max(r["u"], r["v"]), r) for r in graph["edges"]
    ]


def all_pairs(n: int, weights: dict) -> np.ndarray:
    """Floyd-Warshall over undirected weighted edges."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in weights.items():
        d[u, v] = d[v, u] = min(d[u, v], w)
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def _levels(ratio: float, sigma: float) -> int:
    return max(1, math.ceil(math.log(ratio) / math.log(sigma) - 1e-9))


def static_bounds(doc: dict) -> dict:
    """Theorem 3 global bound, Theorem 2 local and per-edge bounds."""
    theta, mu = float(doc["clocks"]["theta"]), float(doc["clocks"]["mu"])
    n, edges = graph_of(doc)
    kappa = {(u, v): edge_kappa(rec, theta) for u, v, rec in edges}
    dist = all_pairs(n, kappa)
    sigma = mu / (theta - 1.0)
    diameter = float(dist.max())
    g_bound = (1.0 + 1.0 / (sigma - 1.0)) * diameter
    k_max = max(kappa.values())
    return {
        "n": n,
        "theta": theta,
        "mu": mu,
        "sigma": sigma,
        "kappa": kappa,
        "max_delay_bound": {
            (u, v): max(rec["fwd_delay"], rec["bwd_delay"]) + rec.get("jitter", 0.0)
            for u, v, rec in edges
        },
        "dist": dist,
        "kappa_diameter": diameter,
        "global_bound": g_bound,
        "local_bound": 2.0 * k_max * _levels(g_bound / k_max, sigma),
        "edge_bound": {e: 2.0 * k * _levels(g_bound / k, sigma) for e, k in kappa.items()},
        "horizon_cycles": doc["sim"]["horizon_cycles"],
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check_bound_report(report: dict, sb: dict) -> list[str]:
    """Static bounds equal the recomputation; observed maxima stay below."""
    out = []
    for key in ("sigma", "local_bound", "global_bound"):
        if not _close(report[key], sb[key]):
            out.append(f"bound_report.{key} {report[key]!r} != recomputed {sb[key]!r}")
    edges = {(r["u"], r["v"]): r for r in report["per_edge"]}
    if set(edges) != set(sb["kappa"]):
        out.append("bound_report.per_edge edges differ from the scenario's edges")
        return out
    for e, rec in edges.items():
        if not _close(rec["kappa"], sb["kappa"][e]):
            out.append(f"kappa{e} {rec['kappa']!r} != recomputed {sb['kappa'][e]!r}")
        if not _close(rec["bound"], sb["edge_bound"][e]):
            out.append(f"edge bound{e} {rec['bound']!r} != recomputed {sb['edge_bound'][e]!r}")
        if rec["max_observed"] > rec["bound"]:
            out.append(f"edge {e}: observed {rec['max_observed']!r} above bound {rec['bound']!r}")
    if report["max_observed_local"] > report["local_bound"]:
        out.append("max_observed_local above local_bound")
    if report["max_observed_global"] > report["global_bound"]:
        out.append("max_observed_global above global_bound")
    largest_edge = max(r["max_observed"] for r in report["per_edge"])
    if largest_edge != report["max_observed_local"]:
        out.append(f"largest per-edge maximum {largest_edge!r} != max_observed_local")
    if report["max_observed_local"] > report["max_observed_global"]:
        out.append("max_observed_local above max_observed_global")
    return out


def check_summary(summary: dict, sb: dict) -> list[str]:
    out = []
    if summary["cycles_completed"] != sb["horizon_cycles"]:
        out.append(f"cycles_completed {summary['cycles_completed']} != {sb['horizon_cycles']}")
    if summary["violation_count"] != 0:
        out.append(f"violation_count {summary['violation_count']}")
    changes = sum(len(tl) - 1 for tl in summary["mode_timelines"].values())
    if changes <= 0:
        out.append("no mode changes: the GCS correction never engaged")
    return out + check_bound_report(summary["bound_report"], sb)


def read_trace_csv(path: Path) -> tuple[list[str], np.ndarray]:
    text = Path(path).read_text(encoding="utf-8")
    head, _, body = text.partition("\n")
    cols = head.split(",")
    flat = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    if flat.size % len(cols):
        raise ValueError("trace.csv rows have unequal lengths")
    return cols, flat.reshape(-1, len(cols))


def check_trace(cols: list[str], data: np.ndarray, summary: dict, sb: dict, chunk: int = 2048) -> list[str]:
    """Recompute every derived column of ``trace.csv`` from its L columns."""
    out = []
    col = {c: i for i, c in enumerate(cols)}
    n = sb["n"]
    t = data[:, col["t_real"]]
    L = data[:, [col[f"node_{i}_L"] for i in range(n)]]
    H = data[:, [col[f"node_{i}_H"] for i in range(n)]]
    if not np.all(np.diff(t) > 0):
        out.append("t_real does not strictly increase")
    dt = np.diff(t)[:, None]
    theta, mu = sb["theta"], sb["mu"]
    dH, dL = np.diff(H, axis=0), np.diff(L, axis=0)
    if np.any(dH < dt - ABS_TOL) or np.any(dH > theta * dt + ABS_TOL):
        out.append("an H slope leaves [1, theta]")
    if np.any(dL < dt - ABS_TOL) or np.any(dL > theta * (1.0 + mu) * dt + ABS_TOL):
        out.append("an L slope leaves [1, theta(1+mu)]")

    eu = np.array([u for u, _ in sb["kappa"]])
    ev = np.array([v for _, v in sb["kappa"]])
    local = np.abs(L[:, eu] - L[:, ev]).max(axis=1)
    glob = L.max(axis=1) - L.min(axis=1)
    if np.max(np.abs(local - data[:, col["local_skew"]])) > ABS_TOL:
        out.append("local_skew differs from the L columns")
    if np.max(np.abs(glob - data[:, col["global_skew"]])) > ABS_TOL:
        out.append("global_skew differs from the L columns")
    psi_cols = sorted((c for c in cols if c.startswith("psi_s")), key=lambda c: int(c[5:]))
    dist = sb["dist"]
    for lo in range(0, len(t), chunk):
        Lc = L[lo : lo + chunk]
        diff = Lc[:, None, :] - Lc[:, :, None]  # diff[t, a, b] = L_b - L_a
        for c in psi_cols:
            s = int(c[5:])
            psi = (diff - (2 * s - 1) * dist[None]).max(axis=(1, 2))
            if np.max(np.abs(psi - data[lo : lo + chunk, col[c]])) > ABS_TOL:
                out.append(f"{c} differs from the L columns near row {lo}")
    report = summary["bound_report"]
    if report["max_observed_local"] != data[:, col["local_skew"]].max():
        out.append("max_observed_local != max of the local_skew column")
    if report["max_observed_global"] != data[:, col["global_skew"]].max():
        out.append("max_observed_global != max of the global_skew column")
    for key in ("bound_local", "bound_global"):
        want = sb["local_bound" if key == "bound_local" else "global_bound"]
        if not all(_close(x, want) for x in np.unique(data[:, col[key]])):
            out.append(f"{key} column differs from the recomputed bound")
    return out


def check_run(out_dir: Path, sb: dict, full_trace: bool) -> list[str]:
    """A ``gcsim run`` output directory; ``full_trace`` checks trace.csv."""
    out = []
    violations = json.loads((out_dir / "violations.json").read_text(encoding="utf-8"))
    if violations:
        out.append(f"{len(violations)} violations, first: {violations[0]}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    out += check_summary(summary, sb)
    if full_trace:
        cols, data = read_trace_csv(out_dir / "trace.csv")
        out += check_trace(cols, data, summary, sb)
    return out


def read_sweep(out_dir: Path) -> list[dict]:
    with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep_row(row: dict, sb: dict, mode_changes: int) -> list[str]:
    """One ``status=ok`` row of ``sweep.csv`` without violations."""
    out = []
    if int(row["n"]) != sb["n"]:
        out.append(f"row n {row['n']} != {sb['n']}")
    if int(row["cycles"]) != sb["horizon_cycles"]:
        out.append(f"row n={row['n']}: cycles {row['cycles']} != {sb['horizon_cycles']}")
    if mode_changes <= 0:
        out.append(f"row n={row['n']}: no mode changes")
    for key in ("local_bound", "global_bound"):
        if not _close(float(row[key]), sb[key]):
            out.append(f"row n={row['n']}: {key} {row[key]} != recomputed {sb[key]!r}")
    if float(row["max_local"]) > float(row["local_bound"]):
        out.append(f"row n={row['n']}: max_local above local_bound")
    if float(row["max_global"]) > float(row["global_bound"]):
        out.append(f"row n={row['n']}: max_global above global_bound")
    ratio = max(sb["kappa"][e] / sb["max_delay_bound"][e] for e in sb["kappa"])
    if not _close(float(row["delta_over_d"]), ratio):
        out.append(f"row n={row['n']}: delta_over_d {row['delta_over_d']} != recomputed {ratio!r}")
    return out


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
