"""Scalar reference forms of the ground-truth metrics.

Plain-Python, one-instant versions of what the engine computes vectorized
(clock samples, skews, potentials, the trailing-node test, the slow and
fast conditions) or per pair of samples (the hardware drift envelope), the
engine's ground-truth checks made one event at a time, the row-by-row
trace writer, the per-source Dijkstra behind the kappa distance matrix and
the pair-by-pair boot-up gate.  Tests check the engine against them; the
package itself does not use them.  ``Recording`` keeps the per-measurement
ground truth that the engine does not keep.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from gcsim import engine, gcs
from gcsim.clocks import OWN_RATE, HardwareClock, LogicalClock
from gcsim.errors import ParameterError
from gcsim.trace import Trace, Violation
from gcsim.twoway import MeasurementRecord, NeighborEstimate, estimate_value

_TIE_TOL = 1e-12


def local_skew(values, edges) -> float:
    """Largest absolute logical gap across any single edge."""
    return max((abs(values[u] - values[v]) for u, v in edges), default=0.0)


def global_skew(values) -> float:
    """Largest logical gap across the whole network."""
    return max(values) - min(values)


def potential(values, dist: np.ndarray, v: int, s: int) -> float:
    """Maximum lead any node holds over v, discounted by (2s-1) x distance.

    The v term itself contributes zero, so the result is never negative.
    """
    if s < 1:
        raise ParameterError(f"skew level must be positive, got {s!r}")
    c = 2 * s - 1
    return max(values[w] - values[v] - c * dist[v, w] for w in range(len(values)))


def level_potential(values, dist: np.ndarray, s: int) -> tuple[float, int]:
    """Network-wide potential at level s and its argmax node (lowest id on ties)."""
    best_val, best_node = None, None
    for v in range(len(values)):
        p = potential(values, dist, v, s)
        if best_val is None or p > best_val + _TIE_TOL:
            best_val, best_node = p, v
    return best_val, best_node


def trailing_node(values, dist: np.ndarray, w: int, s_max: int) -> bool:
    """w realizes some node's maximal discounted deficit at some level."""
    n = len(values)
    for s in range(1, s_max + 1):
        c = 2 * s
        for v in range(n):
            row = [values[v] - values[x] - c * dist[v, x] for x in range(n)]
            mx = max(row)
            if mx > 0 and row[w] >= mx - _TIE_TOL:
                return True
    return False


def slow_condition(values, g, kappa, v: int, s: int) -> bool:
    """v leads some neighbour by (2s-1) kappa or more and no neighbour leads v by more."""
    c = 2 * s - 1
    k = lambda w: kappa[(min(v, w), max(v, w))]
    nbrs = g.neighbors(v)
    return any(values[v] - values[x] >= c * k(x) for x in nbrs) and all(
        values[y] - values[v] <= c * k(y) for y in nbrs
    )


def fast_condition(values, g, kappa, v: int, s: int) -> bool:
    """Some neighbour leads v by 2s kappa or more and v leads no neighbour by more."""
    c = 2 * s
    k = lambda w: kappa[(min(v, w), max(v, w))]
    nbrs = g.neighbors(v)
    return any(values[x] - values[v] >= c * k(x) for x in nbrs) and all(
        values[v] - values[y] <= c * k(y) for y in nbrs
    )


@dataclass(frozen=True)
class Measurement:
    """One completed exchange: the requester's record and estimate, the real
    times of its legs, and the responder's true clock less the requester's
    at the middle of the exchange."""

    requester: int
    responder: int
    cycle: int
    record: MeasurementRecord
    estimate: NeighborEstimate
    sent_real: float
    fwd_delay_actual: float
    processing_real: float
    bwd_delay_actual: float
    true_offset_mid: float


class Recording(engine._Simulation):
    """The engine, recording every completed measurement in
    ``measurements``.  The real send, request arrival and emit times of an
    exchange are the times of the handlers that see it: the requester's
    wakeup, the request's arrival and the responder's emit.  The true offset
    is read at the reply, a past instant, which is exact."""

    def __init__(self, sc):
        super().__init__(sc)
        self.measurements: list[Measurement] = []
        self._legs: dict[tuple[int, int], list[float]] = {}  # real times of an exchange in flight

    def _on_wakeup(self, t: float, v: int, k: int) -> None:
        super()._on_wakeup(t, v, k)
        for w in self.pending[v]:  # the requests sent now; none after the last cycle
            self._legs[(v, w)] = [t]

    def _on_request_arrival(self, t: float, v: int, w: int, t1: float) -> None:
        self._legs[(v, w)].append(t)
        super()._on_request_arrival(t, v, w, t1)

    def _on_emit(self, t: float, v: int, w: int, t1: float, t2: float) -> None:
        self._legs[(v, w)].append(t)
        super()._on_emit(t, v, w, t1, t2)

    def _on_reply_arrival(self, t: float, v: int, reply) -> None:
        w = reply.responder
        t1 = self.pending[v].get(w)
        super()._on_reply_arrival(t, v, reply)
        sent, arrived, emitted = self._legs.pop((v, w))
        node, peer = self.nodes[v].logical, self.nodes[w].logical
        rec = MeasurementRecord(w, t1, reply.l_w_t2, reply.l_w_t3, node.value(t), t)
        mid = 0.5 * (sent + t)
        self.measurements.append(Measurement(
            v, w, self.nodes[v].cycle_index, rec, self.nodes[v].views[w],
            sent, arrived - sent, emitted - arrived, t - emitted, peer.value(mid) - node.value(mid),
        ))


def recorded_run(sc) -> tuple[engine.RunResult, list[Measurement]]:
    """Run ``sc`` and return its result and its measurements."""
    sim = Recording(sc)
    return sim.run(), sim.measurements


class PerEventChecks(engine._Simulation):
    """The engine, with its ground-truth checks also made one event at a
    time: each clock is read at the event's own time, before the event
    changes any mode.  The estimate sandwich runs at every reply arrival and
    evaluation, the slow and fast conditions at every evaluation.  Findings
    go to ``ref_violations`` and ``ref_counters``; the engine's own are
    untouched, so one run gives both."""

    def __init__(self, sc):
        super().__init__(sc)
        self.ref_violations: list[Violation] = []
        self.ref_counters = {"estimate_uses": 0, "sc_instances": 0, "fc_instances": 0}

    def _ref_sandwich(self, t: float, v: int, w: int, est_val: float) -> None:
        self.ref_counters["estimate_uses"] += 1
        err = self.nodes[w].logical.value(t) - est_val
        delta_max = self.kappa_nb[v][w]
        if err < -engine._TOL or err > delta_max + engine._TOL:
            self.ref_violations.append(Violation(
                t, "estimate_sandwich",
                f"estimate of {w} at {v} off by {err:.3e} (allowed [0, {delta_max:.3e}])",
            ))

    def _on_reply_arrival(self, t: float, v: int, reply) -> None:
        super()._on_reply_arrival(t, v, reply)
        w = reply.responder
        node = self.nodes[v]
        t4 = node.logical.value(t)
        self._ref_sandwich(t, v, w, estimate_value(node.views[w], t4, cycle=node.cycle_index))

    def _on_evaluate(self, t: float, v: int, k: int) -> None:
        sc = self.sc
        node = self.nodes[v]
        nbrs = sc.graph.neighbors(v)
        if node.cycle_index == k and node.phase == gcs.MEASURING and len(node.views) == len(nbrs):
            kappa_nb = self.kappa_nb[v]
            st, ft = gcs.trigger_levels(node, kappa_nb, kappa_nb, t, sc.params.s_max, sc.params.hysteresis)
            vals = {w: self.nodes[w].logical.value(t) for w in nbrs}
            l_v = vals[v] = node.logical.value(t)
            for w in nbrs:
                self._ref_sandwich(t, v, w, estimate_value(node.views[w], l_v, cycle=k))
            for s in range(1, sc.params.s_max + 1):
                for name, held, fired in (
                    ("slow", slow_condition(vals, sc.graph, sc.kappa, v, s), st),
                    ("fast", fast_condition(vals, sc.graph, sc.kappa, v, s), ft),
                ):
                    if not held:
                        continue
                    self.ref_counters[f"{name[0]}c_instances"] += 1
                    if s not in fired:
                        self.ref_violations.append(Violation(
                            t, "condition_without_trigger",
                            f"node {v}: {name} condition at level {s} without {name} trigger",
                        ))
        super()._on_evaluate(t, v, k)


def check_lipschitz(c: HardwareClock, t1: float, t2: float, theta: float, tol: float = 1e-9) -> bool:
    """True iff the clock advanced within [dt, theta*dt] over (t1, t2]."""
    if t2 <= t1 or t1 < 0:
        raise ParameterError("need t2 > t1 >= 0")
    dt = t2 - t1
    dh = c.value(t2) - c.value(t1)
    return dt - tol <= dh <= theta * dt + tol


def value_pair(c: LogicalClock, t: float) -> tuple[float, float]:
    """(logical, hardware) of ``c`` at one instant, evaluating the hardware clock once."""
    h = c.hardware.value(t)
    i = c._segment(t)
    dh = h - c._hw_at[i]
    if c._modes[i] == OWN_RATE:
        return c._values[i] + dh, h
    if c.semantics == "multiplicative":
        return c._values[i] + (1.0 + c.mu) * dh, h
    return c._values[i] + dh + c.mu * (t - c._times[i]), h


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: Trace, path) -> None:
    """trace.csv written one row, and one formatted value, at a time."""
    n = trace.n
    s_max = trace.s_max
    cols = ["t_real"]
    for i in range(n):
        cols += [f"node_{i}_L", f"node_{i}_H", f"node_{i}_mode"]
    cols += ["local_skew", "global_skew"]
    cols += [f"psi_s{s}" for s in range(1, s_max + 1)]
    cols += ["bound_local", "bound_global"]
    bl = _fmt(trace.bound_local)
    bg = _fmt(trace.bound_global)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(trace)):
            row = [_fmt(trace.times[i])]
            for j in range(n):
                row += [
                    _fmt(trace.logical[i, j]),
                    _fmt(trace.hardware[i, j]),
                    str(int(trace.modes[i, j])),
                ]
            row += [_fmt(trace.local_skew[i]), _fmt(trace.global_skew[i])]
            row += [_fmt(trace.psi_levels[i, s]) for s in range(s_max)]
            row += [bl, bg]
            fh.write(",".join(row) + "\n")


def dijkstra(g, kappa: dict[tuple[int, int], float], src: int) -> list[float]:
    """kappa distances from ``src``, each accumulated as d(src, u) + kappa(u, v)."""
    dist = [float("inf")] * g.n
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = [False] * g.n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for w in g.neighbors(v):
            nd = d + kappa[(min(v, w), max(v, w))]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def dijkstra_matrix(g, kappa: dict[tuple[int, int], float]) -> np.ndarray:
    """All-pairs kappa distances, one Dijkstra per source row."""
    return np.array([dijkstra(g, kappa, src) for src in range(g.n)], dtype=float)


def boot_up_gate(init, dist: np.ndarray) -> list[str]:
    """Initial-synchronisation messages, one per violating pair (v < w), row-major."""
    n = len(init)
    problems = []
    for v in range(n):
        for w in range(v + 1, n):
            if abs(init[v] - init[w]) > dist[v, w] + 1e-12:
                problems.append(
                    f"initial synchronisation violated for pair ({v},{w}): "
                    f"|{init[v]!r} - {init[w]!r}| > {float(dist[v, w])!r}"
                )
    return problems
