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
    "RunResult",
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


def _column(i: int) -> property:
    """Array i of every record, as one array of the whole trace."""

    def get(self: Trace) -> np.ndarray:
        return self._joined()[i]

    def set_(self: Trace, value: np.ndarray) -> None:
        record = list(self._joined())
        record[i] = value
        self.records = [tuple(record)]

    return property(get, set_, doc=_column.__doc__)


@dataclass(eq=False)
class Trace:
    """Time-ordered run record.

    The rows are held once, as the run's oracle made them: ``records`` is
    a list of consecutive row blocks, each the tuple (times, logical,
    hardware, modes, local_skew, global_skew, psi_levels) of one block's rows, whose
    whole-trace arrays are the attributes of those names: ``times`` (S,),
    ``logical``/``hardware`` (S, n), ``modes`` (S, n) of 0/1,
    ``local_skew``/``global_skew`` (S,) and ``psi_levels`` (S, s_max)
    level potentials.  The first record sets the shapes and may have no
    rows; a skew-only run has no others, and a trace built from whole
    arrays is one record.  :func:`write_trace_csv` walks the records.
    Reading or setting such an attribute, as tests and
    :func:`metrics.corollary1_check_all` do, first joins the records into
    one, which replaces them: a caller that asks for a whole (S, n) array
    makes one copy of the rows, not a second.  The kappa-distance matrix
    the potentials use is the scenario's, ``Scenario.dist``.
    """

    records: list[tuple[np.ndarray, ...]]
    edges: tuple[tuple[int, int], ...]
    bound_local: float
    bound_global: float

    times = _column(0)
    logical = _column(1)
    hardware = _column(2)
    modes = _column(3)
    local_skew = _column(4)
    global_skew = _column(5)
    psi_levels = _column(6)

    def _joined(self) -> tuple[np.ndarray, ...]:
        if len(self.records) > 1:
            self.records = [tuple(np.concatenate(parts) for parts in zip(*self.records))]
        return self.records[0]

    @property
    def n(self) -> int:
        return self.records[0][1].shape[1]

    @property
    def s_max(self) -> int:
        return self.records[0][6].shape[1] if len(self) else 0

    def __len__(self) -> int:
        return sum(len(record[0]) for record in self.records)


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


@dataclass
class RunResult:
    trace: Trace
    summary: RunSummary
    violations: list


# Cells (rows times formatted columns) that write_trace_csv formats at once;
# bounds the arrays and strings a block holds, about 150 bytes a cell, at
# any n.  On a 2-core Xeon, 2^15 cells wrote grid4x4's trace.csv in 23 ms and
# distinct-rate n = 256's (773 columns) in 1.35 s, against 27 ms and 1.74 s
# for blocks of 2048 rows, whose strings alone held about 165 MB at n = 256.
_CSV_BLOCK_CELLS = 2**15


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace block by block, each block of at most
    ``_CSV_BLOCK_CELLS`` cells (at least one row) formatting each distinct
    value once.

    The blocks walk ``trace.records``, splitting a record that holds more
    rows than a block and joining records that hold fewer, so the writer
    holds the stored rows once and one block's copies and strings beside
    them, and a block's rows are the same whichever records they came
    from.

    GCS drives neighbours into shared modes, so nodes with one rate and one
    mode history carry identical L and H columns, and a block holds few
    distinct values: in grid4x4, 8 distinct columns among its 37 float
    columns, and one distinct value per ten float cells.  A block is
    therefore formatted in four steps:

    1. its columns are keyed by (dtype, bytes), and only the distinct ones
       go on;
    2. per dtype, their values are viewed as unsigned integers of the same
       width, and ``np.unique`` over those keeps one of each bit pattern,
       which is formatted with one ``repr``;
    3. one take from the table of those strings, through the inverse,
       gives every cell its string;
    4. each row is one ``",".join`` of its cells plus the constant tail of
       the two bounds.

    The bytes cannot change: a cell's string is the ``repr`` of the Python
    float or int that its own ``tolist()`` element would be, since values
    with equal bit patterns are the same double or int, and the take puts
    each string back at its cell's row and column.  Keying by bit pattern,
    not by ``==``, keeps ``0.0`` and ``-0.0`` apart, which compare equal but
    print differently, and needs no rule for NaN, which equals nothing.
    """
    n = trace.n
    s_max = trace.s_max
    cols = ["t_real"]
    for i in range(n):
        cols += [f"node_{i}_L", f"node_{i}_H", f"node_{i}_mode"]
    cols += ["local_skew", "global_skew"]
    cols += [f"psi_s{s}" for s in range(1, s_max + 1)]
    cols += ["bound_local", "bound_global"]
    tail = f",{float(trace.bound_local)!r},{float(trace.bound_global)!r}\n"
    rows = max(1, _CSV_BLOCK_CELLS // (len(cols) - 2))  # the bounds are the constant tail
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for parts in _row_blocks(trace.records, rows):
            times, L, H, modes, local, glob, psi = (
                part[0] if len(parts) == 1 else np.concatenate(part) for part in zip(*parts)
            )
            block = [times]
            for j in range(n):
                block += [L[:, j], H[:, j], modes[:, j]]
            block += [local, glob]
            block += [psi[:, s] for s in range(s_max)]
            cells = _block_cells(block)
            fh.write("".join([",".join(row) + tail for row in cells.tolist()]))


def _row_blocks(records: list[tuple[np.ndarray, ...]], rows: int):
    """The rows of ``records`` in consecutive blocks of ``rows`` rows, the
    last possibly shorter, each block the list of record slices that make
    it up, in order."""
    parts, held = [], 0
    for record in records:
        start, size = 0, len(record[0])
        while start < size:
            stop = min(size, start + rows - held)
            parts.append(tuple(array[start:stop] for array in record))
            held += stop - start
            start = stop
            if held == rows:
                yield parts
                parts, held = [], 0
    if parts:
        yield parts


def _block_cells(block: list[np.ndarray]) -> np.ndarray:
    """The (rows, columns) object array of the strings of the equal-length
    columns ``block``, each distinct bit pattern of each dtype formatted
    once with ``repr``."""
    keys = [(col.dtype, col.tobytes()) for col in block]
    by_dtype: dict[np.dtype, list[bytes]] = {}
    for dtype, data in dict.fromkeys(keys):
        by_dtype.setdefault(dtype, []).append(data)
    rows = len(block[0])
    strings: list[str] = []
    index = {}  # key -> the column's rows in ``strings``
    for dtype, columns in by_dtype.items():
        values = np.frombuffer(b"".join(columns), dtype=dtype)
        bits, inverse = np.unique(values.view(f"u{dtype.itemsize}"), return_inverse=True)
        # one row of indices into ``strings`` per column; the input is 1-D,
        # whose inverse numpy 1.x and 2.x both return 1-D
        inverse = inverse.reshape(len(columns), rows) + len(strings)
        strings += map(repr, bits.view(dtype).tolist())
        index.update(((dtype, data), at) for data, at in zip(columns, inverse))
    return np.array(strings, dtype=object).take(np.stack([index[key] for key in keys], axis=1))


def _write_json(obj, path) -> None:
    """``obj`` as indented JSON with sorted keys, in one write: ``json.dump``
    would write each of its thousands of tokens on its own."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_summary_json(summary: RunSummary, path) -> None:
    _write_json(summary.to_dict(), path)


def write_violations_json(violations: list[Violation], path) -> None:
    _write_json([v.to_dict() for v in violations], path)
