"""Run outputs: sampled trace, violations, summary, and their file formats.

The trace samples every event instant of the run, each a wakeup, an
evaluation, a hardware rate breakpoint or a tick of a fixed real-time grid,
and the end of the run; messages are no events, since they only carry
readings.  A logical clock changes slope only at a rate breakpoint or at a
mode change, which happens at a wakeup or an evaluation, so every clock is
linear between two samples and every pairwise difference attains its
extrema at sampled points: the recorded extrema are exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Violation",
    "Trace",
    "RunSummary",
    "write_trace_csv",
    "write_summary_json",
    "write_violations_json",
]


@dataclass(frozen=True)
class Violation:
    time: float
    kind: str
    detail: str

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(eq=False)
class Trace:
    """Time-ordered run record.

    Arrays are row-per-sample: ``logical``/``hardware`` are (S, n),
    ``modes`` (S, n) of 0/1, ``psi_levels`` (S, s_max) level potentials;
    a skew-only run has no rows.  The kappa-distance matrix the
    potentials use is the scenario's, ``Scenario.dist``.
    """

    times: np.ndarray
    logical: np.ndarray
    hardware: np.ndarray
    modes: np.ndarray
    edges: tuple[tuple[int, int], ...]
    local_skew: np.ndarray
    global_skew: np.ndarray
    psi_levels: np.ndarray
    bound_local: float
    bound_global: float

    @property
    def n(self) -> int:
        return self.logical.shape[1]

    @property
    def s_max(self) -> int:
        return self.psi_levels.shape[1] if self.psi_levels.size else 0

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class RunSummary:
    """Per-run report; serialized without the wall time so reruns with the
    same seed produce byte-identical files."""

    scenario_hash: str
    seed: int
    cycles_completed: int
    bound_report: dict
    violation_count: int
    counters: dict = field(default_factory=dict)
    mode_timelines: dict = field(default_factory=dict)
    first_global_bound_exceed_time: float | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "wall_time_s"}


# Rows formatted at once by write_trace_csv; bounds the strings held in memory.
_CSV_BLOCK_ROWS = 2048


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace block by block; within a block, each column is
    formatted with one ``repr`` pass over its ``tolist()``."""
    n = trace.n
    s_max = trace.s_max
    cols = ["t_real"]
    for i in range(n):
        cols += [f"node_{i}_L", f"node_{i}_H", f"node_{i}_mode"]
    cols += ["local_skew", "global_skew"]
    cols += [f"psi_s{s}" for s in range(1, s_max + 1)]
    cols += ["bound_local", "bound_global"]
    tail = f",{float(trace.bound_local)!r},{float(trace.bound_global)!r}\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, len(trace), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            block = [trace.times[rows]]
            for j in range(n):
                block += [trace.logical[rows, j], trace.hardware[rows, j], trace.modes[rows, j]]
            block += [trace.local_skew[rows], trace.global_skew[rows]]
            block += [trace.psi_levels[rows, s] for s in range(s_max)]
            text = zip(*(map(repr, col.tolist()) for col in block))
            fh.write("".join(",".join(row) + tail for row in text))


def write_summary_json(summary: RunSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_violations_json(violations: list[Violation], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([v.to_dict() for v in violations], fh, indent=2, sort_keys=True)
        fh.write("\n")
