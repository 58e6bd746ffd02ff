"""Scenario files: parsing, template expansion, validation, runtime build.

A scenario is one JSON document with four sections: ``graph``, ``clocks``,
``gcs``, ``sim``.  Unknown keys are rejected everywhere so a typo in a
physics parameter fails loudly instead of silently using a default.  See
SCHEMA.md at the repository root for the full field reference.
"""
from __future__ import annotations

import copy
import json
import math
import struct
import sys
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .engine import PcgStream, sha256
from .errors import ScenarioParseError, ScenarioValidationError
from .gcs import GcsParams
from .metrics import theorem2_bound, theorem2_levels, theorem3_bound
from .topology import (
    EdgeParams,
    NetworkGraph,
    kappa_diameter,
    kappa_distance_matrix,
    kappa_row_reader,
    kappa_weights,
    validate_graph,
)
from .twoway import timeout_window

__all__ = [
    "Scenario",
    "load_document",
    "expand_document",
    "section_problems",
    "validate_document",
    "build_scenario",
    "load_scenario",
    "static_report",
    "bundled_names",
]


@dataclass
class Scenario:
    """Validated runtime scenario; build one with :func:`build_scenario`.  Only
    ``full`` mode keeps ``dist``: ``skew_only`` needs just its ``diameter``."""

    graph: NetworkGraph
    params: GcsParams
    hardware: list  # each node's validated rate schedule, (initial value, starts, rates)
    p_max: float
    sample_dt: float
    master_seed: int
    kappa: dict
    dist: np.ndarray | None  # all-pairs kappa-weighted distances, None in skew_only
    diameter: float  # kappa-weighted diameter: the largest distance, taken once at validation
    timeout: float  # round-trip budget in local time, see twoway.timeout_window
    horizon_cycles: int | None = None
    horizon_time: float | None = None
    gcs_enabled: bool = True
    metrics_mode: str = "full"
    scenario_hash: str = ""

    @property
    def sigma(self) -> float:
        return self.params.sigma

    @property
    def global_bound(self) -> float:
        return theorem3_bound(self.diameter, self.sigma)

    @property
    def local_bound(self) -> float:
        return theorem2_bound(max(self.kappa.values()), self.global_bound, self.sigma)


_TOP_KEYS = {"graph", "clocks", "gcs", "sim"}
_GRAPH_KEYS = {"nodes", "edges", "d_max", "template"}
# numeric edge fields and their defaults; fwd_delay/bwd_delay are required
_EDGE_NUMS = {"fwd_delay": 0.0, "bwd_delay": 0.0, "jitter": 0.0, "eps_d": 0.0, "eps_m": 0.0,
              "length": 1.0}
_EDGE_DEFAULTS = tuple(_EDGE_NUMS.values())
# the bits of a record's numeric fields as doubles; struct.error for a field
# that is no number, OverflowError for an int beyond the doubles
_edge_bits = struct.Struct(f"<{len(_EDGE_NUMS)}d").pack
_EDGE_KEYS = {"u", "v", *_EDGE_NUMS}
_EDGE_REQUIRED = {"u", "v", "fwd_delay", "bwd_delay"}
_TEMPLATE_KEYS = {"kind", "n", "rows", "cols", "extra_edges", "seed", "edge"}
_CLOCK_KEYS = {"theta", "mu", "default", "overrides", "nodes"}
_GCS_KEYS = {"T", "T_stab", "s_max", "p_max", "enabled"}
_SIM_KEYS = {"horizon_cycles", "horizon_time", "sample_dt", "master_seed", "metrics"}
_GEN_KEYS = {
    "constant": {"rate"},
    "alternating": {"dwell", "start_high", "low", "high"},
    "random_walk": {"dwell", "step", "start_rate", "seed"},
    "scripted": {"segments"},
}
_NODE_COMMON_KEYS = {"generator", "initial_value"}
# every seed lies in [0, 2^64), the range _seed_states uses whole, so two
# different seeds never draw the same streams
_SEED = {"low": 0, "high": 1 << 64}
_INT_KINDS = {
    (None, None): "an integer",
    (1, None): "a positive integer",
    (0, 1 << 64): "an integer in [0, 2^64)",
}
# the largest node count, checked before anything of that size is built;
# a full run's n x n float64 distance matrix is 2 GiB at this size
_MAX_NODES = 1 << 14
# pairs compared per block of the boot-up gate (the temporaries are a few
# of these as float64)
_GATE_BLOCK = 1 << 16
# violating pairs the boot-up gate names; it counts the rest in one line, so
# its report stays small when most of n^2 / 2 pairs violate
_GATE_PAIRS = 100
# rate segments of all clocks together up to the horizon, checked before any
# schedule is built: each is a clock segment, a heap event and a sample of
# the run, and a tiny dwell would otherwise allocate until memory runs out
_MAX_RATE_SEGMENTS = 1 << 20
# sampling ticks up to the same horizon: each is a heap event and a sample
# of the run, like a rate segment
_MAX_SAMPLE_TICKS = 1 << 20
# the limit on the engine's trigger threshold table, 4 * 2m * s_max float64
# for m edges, one row per link direction, checked for a given and a derived
# s_max alike
_MAX_LEVEL_TABLE = 1 << 24


def bundled_names() -> list[str]:
    """Names of the scenario files shipped inside the package."""
    root = resources.files("gcsim") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_document(source) -> dict:
    """Parse a scenario JSON document from a path, bundled name, or dict."""
    if isinstance(source, dict):
        return copy.deepcopy(source)
    text = None
    path = str(source)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        bundled = resources.files("gcsim") / "scenarios" / f"{path}.json"
        if bundled.is_file():
            text = bundled.read_text(encoding="utf-8")
        else:
            raise ScenarioParseError(f"scenario not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        )
    except RecursionError:
        raise ScenarioParseError("JSON nested too deeply")
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    return doc


def _is_number(v) -> bool:
    """A finite JSON number; booleans are not numbers."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _num(section: dict, key: str, problems: list[str], where: str, required=False, default=None):
    if key not in section:
        if required:
            problems.append(f"{where}.{key}: missing")
        return default
    v = section[key]
    if not _is_number(v):
        problems.append(f"{where}.{key}: must be a number")
        return default
    return float(v)


def _int(section: dict, key: str, problems: list[str], where: str, required=False, default=None,
         low: int | None = None, high: int | None = None):
    """An integer field (booleans excluded) in [low, high)."""
    if key not in section and not required:
        return default
    v = section.get(key)
    if (isinstance(v, bool) or not isinstance(v, int) or (low is not None and v < low)
            or (high is not None and v >= high)):
        problems.append(f"{where}.{key}: must be {_INT_KINDS[low, high]}")
        return default
    return v


def _expand_graph_template(tpl: dict, problems: list[str]) -> tuple[int, list[dict]]:
    kind = tpl.get("kind")
    edge = tpl.get("edge", {})
    before = len(problems)
    where = "graph.template"
    n = _int(tpl, "n", problems, where, default=3 if kind == "ring" else 2)
    rows = _int(tpl, "rows", problems, where, default=2)
    cols = _int(tpl, "cols", problems, where, default=2)
    extra = _int(tpl, "extra_edges", problems, where, default=0)
    seed = _int(tpl, "seed", problems, where, default=0, **_SEED)
    if not isinstance(edge, dict):
        problems.append(f"{where}.edge: must be an object")
    if len(problems) > before:
        return 0, []
    if kind == "grid":
        n = rows * cols
    if n > _MAX_NODES:
        problems.append(f"{where}: {n} nodes exceed the limit of {_MAX_NODES}")
        return 0, []
    # the links a graph of n nodes has beyond a spanning tree, at most 4n:
    # the random template tries up to 100n of them, and expansion and
    # validation time grow with the edges drawn
    room = min((n - 1) * (n - 2) // 2, 4 * n)
    if not 0 <= extra <= room:
        problems.append(f"{where}.extra_edges: must be an integer in [0, {room}]")
        return 0, []
    edges: list[tuple[int, int]] = []
    if kind == "line":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "grid":
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((r * cols + c, r * cols + c + 1))
                if r + 1 < rows:
                    edges.append((r * cols + c, (r + 1) * cols + c))
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "random":
        (rng,) = PcgStream.seeded([(seed, "topology")])
        for i in range(1, n):
            edges.append((rng.integers(0, i), i))
        have = set(edges)
        attempts = 0
        while extra > 0 and attempts < 100 * n:
            a, b = rng.integers(0, n), rng.integers(0, n)
            if a != b and (min(a, b), max(a, b)) not in have:
                have.add((min(a, b), max(a, b)))
                edges.append((min(a, b), max(a, b)))
                extra -= 1
            attempts += 1
    else:
        problems.append(f"graph.template.kind: unknown kind {kind!r}")
        return 0, []
    out = []
    for u, v in sorted((min(a, b), max(a, b)) for a, b in edges):
        rec = {"u": u, "v": v}
        rec.update(edge)
        out.append(rec)
    return n, out


def expand_document(doc: dict) -> tuple[dict, list[str]]:
    """Expand graph templates and clock defaults into explicit form.

    ``doc`` is left as it is.  The result is a new top-level dict, with new
    ``graph`` and ``clocks`` sections where it expands them and new edge
    records and node specs in them; every value it does not rewrite (the
    other sections, a template's edge fields, the fields of a clock default
    or override) is shared with ``doc``.  Validation only reads them.
    """
    problems: list[str] = []
    doc = dict(doc)
    graph = doc.get("graph")
    if isinstance(graph, dict) and "template" in graph:
        graph = doc["graph"] = dict(graph)
        tpl = graph["template"]
        if not isinstance(tpl, dict):
            problems.append("graph.template must be an object")
        else:
            unknown = set(tpl) - _TEMPLATE_KEYS
            if unknown:
                problems.append(f"graph.template: unknown keys {sorted(unknown)}")
            n, edges = _expand_graph_template(tpl, problems)
            graph.pop("template")
            graph["nodes"] = n
            graph["edges"] = edges
    clocks = doc.get("clocks")
    if isinstance(clocks, dict) and "nodes" not in clocks:
        clocks = doc["clocks"] = dict(clocks)
        n = graph.get("nodes") if isinstance(graph, dict) else None
        default = clocks.pop("default", {"generator": "constant", "rate": 1.0})
        overrides = clocks.pop("overrides", {})
        if not (isinstance(default, dict) and isinstance(overrides, dict)
                and all(isinstance(o, dict) for o in overrides.values())):
            problems.append("clocks: default and every override must be objects")
        elif isinstance(n, int):
            if 0 < n <= _MAX_NODES:  # validation rejects any other count
                clocks["nodes"] = [{**default, **overrides.get(str(i), {})} for i in range(n)]
                problems.extend(f"clocks.overrides[{key!r}]: not a node id in 0..{n - 1}"
                                for key in sorted(set(overrides) - {str(i) for i in range(n)}))
        else:
            problems.append("clocks: cannot expand default/overrides without graph.nodes")
    return doc, problems


def _rate(spec: dict, key: str, problems: list[str], where: str, theta: float, default: float) -> float:
    """Rate field ``key``, which must lie in [1, theta] if given."""
    r = _num(spec, key, problems, where)
    if r is None:
        return default
    if not (1.0 <= r <= theta + 1e-15):
        problems.append(f"{where}.{key}: must lie in [1, theta]")
    return r


def _check_clock_spec(spec, theta: float, problems: list[str], where: str) -> tuple:
    """Check one per-node clock spec.  Returns (initial value, generator,
    its parameters with their defaults filled in), which ``_hardware_clocks``
    builds once the horizon and the master seed are known."""
    if not isinstance(spec, dict):
        problems.append(f"{where}: must be an object")
        return 0.0, "constant", (1.0,)
    gen = spec.get("generator", "constant")
    if not isinstance(gen, str) or gen not in _GEN_KEYS:
        problems.append(f"{where}.generator: unknown generator {gen!r}")
        return 0.0, "constant", (1.0,)
    unknown = set(spec) - _GEN_KEYS[gen] - _NODE_COMMON_KEYS
    if unknown:
        problems.append(f"{where}: unknown keys {sorted(unknown)} for generator {gen!r}")
    iv = spec.get("initial_value", 0.0)
    if not _is_number(iv) or iv < 0:
        problems.append(f"{where}.initial_value: must be a non-negative number")
        iv = 0.0
    if gen == "constant":
        return float(iv), gen, (_rate(spec, "rate", problems, where, theta, 1.0),)
    if gen == "scripted":
        segs = spec.get("segments")
        if not isinstance(segs, list) or not segs:
            problems.append(f"{where}.segments: must be a non-empty list")
            segs = []
        starts, rates = [], []
        for j, seg in enumerate(segs):
            if not (isinstance(seg, list) and len(seg) == 2 and all(map(_is_number, seg))):
                problems.append(f"{where}.segments[{j}]: must be [start, rate]")
                continue
            t0, r = float(seg[0]), float(seg[1])
            if j == 0 and t0 != 0.0:
                problems.append(f"{where}.segments: first segment must start at 0")
            if starts and t0 <= starts[-1]:
                problems.append(f"{where}.segments: start times must increase")
            if not (1.0 <= r <= theta + 1e-15):
                problems.append(f"{where}.segments[{j}]: rate outside [1, theta]")
            starts.append(t0)
            rates.append(r)
        return float(iv), gen, (starts, rates)
    dwell = _num(spec, "dwell", problems, where, required=True, default=0.0)
    if dwell <= 0:
        problems.append(f"{where}.dwell: must be positive")
    if gen == "alternating":
        start_high = spec.get("start_high", False)
        if not isinstance(start_high, bool):
            problems.append(f"{where}.start_high: must be a boolean")
        low = _rate(spec, "low", problems, where, theta, 1.0)
        high = _rate(spec, "high", problems, where, theta, theta)
        return float(iv), gen, (dwell, start_high, low, high)
    # random_walk; its draws are uniform in [-step, step], a finite range
    step = _num(spec, "step", problems, where)
    if step is None:
        step = (theta - 1.0) / 4.0
    elif not 0.0 <= step <= sys.float_info.max / 2:
        problems.append(f"{where}.step: must be non-negative, and finite when doubled")
    start_rate = _num(spec, "start_rate", problems, where, default=(1.0 + theta) / 2.0)
    seed = _int(spec, "seed", problems, where, **_SEED)
    return float(iv), gen, (dwell, step, min(max(start_rate, 1.0), theta), seed)


def _segment_count(gen: str, args: tuple, horizon: float) -> float:
    """Rate segments of a checked clock spec up to ``horizon``, known
    before its schedule is built (inf where horizon / dwell overflows)."""
    if gen in ("alternating", "random_walk"):
        return horizon / args[0] + 1.0
    return float(len(args[0])) if gen == "scripted" else 1.0


def _hardware_clock(spec: tuple, theta: float, horizon: float, rng: PcgStream | None) -> tuple:
    """A node's hardware clock from its checked spec: (initial value,
    starts, rates), a rate schedule covering [0, horizon].  A random walk
    draws its steps from ``rng``."""
    iv, gen, args = spec
    if gen == "constant":
        return iv, (0.0,), args
    if gen == "scripted":
        return iv, *args
    starts, t = [], 0.0
    while t <= horizon:
        starts.append(t)
        t += args[0]
    if gen == "alternating":
        _, start_high, low, high = args
        rates = [high if (k % 2 == 0) == start_high else low for k in range(len(starts))]
    else:
        _, step, rate, _ = args
        rates = [rate]
        for _ in range(len(starts) - 1):
            rate = min(max(rate + rng.uniform(-step, step), 1.0), theta)
            rates.append(rate)
    return iv, starts, rates


def _hardware_clocks(specs: list[tuple], theta: float, horizon: float, master_seed: int) -> list[tuple]:
    """Every node's hardware clock.  Random walk i draws from stream
    ``clock:<i>`` of its spec's own seed, or else of the master seed; all
    these streams are seeded in one batch."""
    walks = {i: args[3] for i, (_, gen, args) in enumerate(specs) if gen == "random_walk"}  # node: own seed
    pairs = [(master_seed if seed is None else seed, f"clock:{i}") for i, seed in walks.items()]
    rngs = dict(zip(walks, PcgStream.seeded(pairs)))
    return [_hardware_clock(spec, theta, horizon, rngs.get(i)) for i, spec in enumerate(specs)]


def section_problems(doc: dict) -> list[str]:
    """Unknown top-level sections, and required ones missing or not objects."""
    problems: list[str] = []
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level sections {sorted(unknown)}")
    for key in sorted(_TOP_KEYS):
        if key not in doc or not isinstance(doc[key], dict):
            problems.append(f"section {key!r} missing or not an object")
    return problems


def _boot_up_problems(init: list, rows, min_kappa: float) -> list[str]:
    """Boot-up gate: every pair of clocks must start within its path error
    budget, |init_v - init_w| <= d(v, w).  One message per violating pair
    v < w, in row-major order, for the first _GATE_PAIRS of them, then one
    line with the count of the others; compared as float64 a block of rows
    at a time, each block of d read by ``rows(sources)``.

    A row v can hold a violation only if its widest gap, fl(init_v - min) or
    fl(max - init_v), exceeds fl(min_kappa + 1e-12).  Every other row
    passes, exactly, and is not read: rounded subtraction is monotone, so
    each of its gaps is at most its widest, and each d(v, w), v != w, is a
    rounded sum of positive kappa, at least the first edge's kappa and so at
    least ``min_kappa``, so by monotone rounding fl(d(v, w) + 1e-12) is at
    least the threshold."""
    n = len(init)
    values = np.array(init, dtype=float)
    lo, hi = values.min(), values.max()
    wide = np.flatnonzero(np.maximum(values - lo, hi - values) > min_kappa + 1e-12)
    rows_per = max(1, _GATE_BLOCK // n)
    problems, more = [], 0
    for r0 in range(0, len(wide), rows_per):
        block = wide[r0 : r0 + rows_per]
        dist = rows(block)
        bad = np.abs(values[block, None] - values) > dist + 1e-12
        bad &= np.arange(n) > block[:, None]
        count = int(np.count_nonzero(bad))
        named = min(count, _GATE_PAIRS - len(problems))  # no pair is looked up past the cap
        more += count - named
        for i, w in (np.argwhere(bad)[:named].tolist() if named else []):
            v = int(block[i])
            problems.append(
                f"initial synchronisation violated for pair ({v},{w}): "
                f"|{init[v]!r} - {init[w]!r}| > {float(dist[i, w])!r}"
            )
    if more:
        problems.append(f"initial synchronisation violated for {more} more pairs")
    return problems


def validate_document(doc: dict, seed_override: int | None = None) -> tuple[dict, list[str]]:
    """Check and convert an expanded document in one pass.

    Returns the keyword arguments of :class:`Scenario` other
    than the hash, built from the checked values, and every problem found.
    The arguments are complete only when the problem list is empty.  The
    hardware clocks are built last, from ``seed_override`` in place of the
    document's master seed when given.
    """
    problems = section_problems(doc)
    if problems:
        return {}, problems

    graph_sec = doc["graph"]
    unknown = set(graph_sec) - _GRAPH_KEYS
    if unknown:
        problems.append(f"graph: unknown keys {sorted(unknown)}")
    n = _int(graph_sec, "nodes", problems, "graph", required=True, low=1)
    if n is not None and n > _MAX_NODES:
        problems.append(f"graph.nodes: {n} nodes exceed the limit of {_MAX_NODES}")
        n = None
    if n is None:
        return {}, problems
    d_max = _num(graph_sec, "d_max", problems, "graph", required=True)
    edges_raw = graph_sec.get("edges")
    if not isinstance(edges_raw, list) or not edges_raw:
        problems.append("graph.edges: must be a non-empty list")
        return {}, problems
    edges = []
    passed: dict[tuple, EdgeParams] = {}  # checked params by their record's numeric types and bits
    for i, rec in enumerate(edges_raw):
        where = f"graph.edges[{i}]"
        if not isinstance(rec, dict):
            problems.append(f"{where}: must be an object")
            continue
        unknown = set(rec) - _EDGE_KEYS
        if unknown:
            problems.append(f"{where}: unknown keys {sorted(unknown)}")
        missing = _EDGE_REQUIRED - set(rec)
        if missing:
            problems.append(f"{where}: missing keys {sorted(missing)}")
            continue
        u, v = rec["u"], rec["v"]
        if not all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n for x in (u, v)):
            problems.append(f"{where}: u and v must be node ids in 0..{n - 1}")
            continue
        if u == v:
            problems.append(f"{where}: self-loop at node {u}")
            continue
        # links mostly repeat one edge (a template writes its edge into
        # every link), so a record whose numeric fields have the types and
        # the bits of a record that passed takes its params: the types tell
        # True from 1, the bits -0.0 from 0.0, and an absent field is its
        # default, as _num reads it.  Any other record, and each one with a
        # field that has no bits, is checked, and reported, on its own
        values = tuple(map(rec.get, _EDGE_NUMS, _EDGE_DEFAULTS))
        try:
            key = (*map(type, values), _edge_bits(*values))
        except (struct.error, OverflowError):
            key = None
        params = passed.get(key)
        if params is None:
            before = len(problems)
            params = EdgeParams(**{name: _num(rec, name, problems, where, default=d) for name, d in _EDGE_NUMS.items()})
            if len(problems) == before:
                passed[key] = params
        edges.append((u, v, params))
    if problems:
        return {}, problems
    g = NetworkGraph.build(n, edges, d_max)
    problems.extend(validate_graph(g))

    clocks_sec = doc["clocks"]
    unknown = set(clocks_sec) - _CLOCK_KEYS
    if unknown:
        problems.append(f"clocks: unknown keys {sorted(unknown)}")
    theta = _num(clocks_sec, "theta", problems, "clocks", required=True, default=1.0)
    mu = _num(clocks_sec, "mu", problems, "clocks", required=True, default=0.0)
    node_specs = clocks_sec.get("nodes")
    if not isinstance(node_specs, list) or len(node_specs) != n:
        problems.append(f"clocks.nodes: must list exactly {n} per-node entries")
        node_specs = []
    hw_specs = [_check_clock_spec(spec, theta, problems, f"clocks.nodes[{i}]")
                for i, spec in enumerate(node_specs)]

    gcs_sec = doc["gcs"]
    unknown = set(gcs_sec) - _GCS_KEYS
    if unknown:
        problems.append(f"gcs: unknown keys {sorted(unknown)}")
    p_max = _num(gcs_sec, "p_max", problems, "gcs", default=0.0)
    if p_max < 0:
        problems.append("gcs.p_max: must be non-negative")
    enabled = gcs_sec.get("enabled", True)
    if not isinstance(enabled, bool):
        problems.append("gcs.enabled: must be a boolean")
    s_max = _int(gcs_sec, "s_max", problems, "gcs")
    # a derived s_max replaces the placeholder 1 once the distances exist
    params = GcsParams(
        theta=theta,
        mu=mu,
        T=_num(gcs_sec, "T", problems, "gcs", required=True, default=0.0),
        T_stab=_num(gcs_sec, "T_stab", problems, "gcs", required=True, default=0.0),
        s_max=1 if s_max is None else s_max,
    )
    problems.extend(params.validate())

    sim_sec = doc["sim"]
    unknown = set(sim_sec) - _SIM_KEYS
    if unknown:
        problems.append(f"sim: unknown keys {sorted(unknown)}")
    if ("horizon_cycles" in sim_sec) == ("horizon_time" in sim_sec):
        problems.append("sim: exactly one of horizon_cycles / horizon_time is required")
    horizon_cycles = _int(sim_sec, "horizon_cycles", problems, "sim", low=1)
    horizon_time = _num(sim_sec, "horizon_time", problems, "sim")
    if horizon_time is not None and horizon_time <= 0:
        problems.append("sim.horizon_time: must be positive")
    sample_dt = _num(sim_sec, "sample_dt", problems, "sim", required=True, default=0.0)
    if sample_dt <= 0:
        problems.append("sim.sample_dt: must be positive")
    master_seed = _int(sim_sec, "master_seed", problems, "sim", required=True, **_SEED)
    metrics_mode = sim_sec.get("metrics", "full")
    if metrics_mode not in ("full", "skew_only"):
        problems.append("sim.metrics: must be 'full' or 'skew_only'")
    if problems:
        return {}, problems

    kappa = kappa_weights(g, theta)
    for (u, v), k_e in kappa.items():
        if k_e <= 0:
            problems.append(
                f"edge ({u},{v}): kappa weight is zero; needs drift, asymmetry or "
                f"measurement uncertainty"
            )
        elif math.isinf(k_e):
            problems.append(f"edge ({u},{v}): kappa weight overflows")
    if s_max is None and theta <= 1.0:
        problems.append("gcs.s_max: required when theta == 1 (level count is undefined)")
    timeout = timeout_window(d_max, p_max, max(p.eps_m for _, _, p in g.edges), theta)
    if params.T < timeout:
        problems.append(
            f"gcs.T: measurement window {params.T!r} is below the timeout window {timeout!r}"
        )
    # the rate schedules have breakpoints up to the horizon plus one cycle
    cycle = params.cycle_length
    horizon = (horizon_time if horizon_time is not None else horizon_cycles * cycle) + cycle
    segments = sum(_segment_count(gen, args, horizon) for _, gen, args in hw_specs)
    if segments > _MAX_RATE_SEGMENTS:
        problems.append(
            f"clocks.nodes: {segments:.6g} rate segments up to the horizon exceed the limit of "
            f"{_MAX_RATE_SEGMENTS}; raise dwell or shorten the horizon"
        )
    if horizon / sample_dt > _MAX_SAMPLE_TICKS:
        problems.append(
            f"sim.sample_dt: {horizon / sample_dt:.6g} sampling ticks up to the horizon exceed the "
            f"limit of {_MAX_SAMPLE_TICKS}; raise sample_dt or shorten the horizon"
        )
    if problems:
        return {}, problems

    # full mode keeps the matrix for its oracles, and its largest entry is
    # one pass; skew_only reads the few rows the gate and the diameter need
    # from the row kernel, and the diameter equals that entry bit for bit
    if metrics_mode == "full":
        dist = kappa_distance_matrix(g, kappa)
        rows, diameter = dist.__getitem__, float(dist.max())
    else:
        dist, rows = None, kappa_row_reader(g, kappa)
        diameter = kappa_diameter(g, rows)
    least = min(kappa.values())
    problems.extend(_boot_up_problems([iv for iv, _, _ in hw_specs], rows, least))
    if s_max is None:
        g_bound = theorem3_bound(diameter, params.sigma)
        levels = theorem2_levels(least, g_bound, params.sigma)
        params = replace(params, s_max=max(1, levels) + 1)
    table = 4 * 2 * len(g.edges) * params.s_max
    if table > _MAX_LEVEL_TABLE:
        problems.append(
            f"gcs.s_max: {params.s_max} {'levels' if s_max is not None else 'derived levels'} make a "
            f"trigger threshold table of {table} values, above the limit of {_MAX_LEVEL_TABLE}"
        )
    if problems:
        return {}, problems
    if seed_override is not None:
        master_seed = int(seed_override)
    return dict(
        graph=g,
        params=params,
        hardware=_hardware_clocks(hw_specs, theta, horizon, master_seed),
        p_max=p_max,
        sample_dt=sample_dt,
        master_seed=master_seed,
        kappa=kappa,
        dist=dist,
        diameter=diameter,
        timeout=timeout,
        horizon_cycles=horizon_cycles,
        horizon_time=horizon_time,
        gcs_enabled=enabled,
        metrics_mode=metrics_mode,
    ), problems


def build_scenario(doc: dict, seed_override: int | None = None) -> Scenario:
    """Expand and validate a document, then assemble the runtime scenario."""
    doc, problems = expand_document(doc)
    fields: dict = {}
    if not problems:
        fields, problems = validate_document(doc, seed_override)
    if problems:
        raise ScenarioValidationError(problems)
    if seed_override is not None:
        doc["sim"] = {**doc["sim"], "master_seed": fields["master_seed"]}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = sha256(canonical.encode("utf-8")).hexdigest()
    return Scenario(**fields, scenario_hash=digest)


def load_scenario(source, seed_override: int | None = None) -> Scenario:
    return build_scenario(load_document(source), seed_override=seed_override)


def static_report(sc: Scenario) -> dict:
    """Formula-level facts about a scenario, no simulation involved."""
    if sc.params.theta <= 1.0:
        raise ScenarioValidationError(
            ["sigma undefined: theta == 1 means mu/(theta-1) has no value; "
             "the static bound report requires theta > 1"]
        )
    return {
        "sigma": sc.sigma,
        "s_max": sc.params.s_max,
        "timeout_window": sc.timeout,
        "kappa_per_edge": [
            {"u": u, "v": v, "kappa": sc.kappa[(u, v)]} for u, v, _ in sc.graph.edges
        ],
        "kappa_diameter": sc.diameter,
        "local_bound": sc.local_bound,
        "global_bound": sc.global_bound,
    }
