import math
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import engine
from gcsim import scenario as scen
from gcsim import trace as trace_mod
from gcsim.trace import Trace, write_trace_csv

import reference


def _copy(trace: Trace) -> Trace:
    """The same rows in the same records: reading a column joins a trace's
    records, so each writer gets its own list of them."""
    return Trace(list(trace.records), trace.edges, trace.bound_local, trace.bound_global)


def _width(trace: Trace) -> int:
    """The cells of one row that the writer formats (the bounds are a constant tail)."""
    return 3 * trace.n + 3 + trace.s_max


@pytest.mark.parametrize("name", scen.bundled_names())
def test_blocked_writer_matches_row_writer(name, tmp_path, monkeypatch):
    doc = scen.load_document(name)
    doc["sim"]["horizon_cycles"] = 60
    trace = engine.run(scen.build_scenario(doc)).trace
    sizes = [len(record[0]) for record in trace.records]
    reference.write_trace_csv(_copy(trace), tmp_path / "rows.csv")
    expected = (tmp_path / "rows.csv").read_bytes()
    # one row a block, whatever the budget below one row; 97 rows, which
    # split the chunk records and end inside one; blocks that join several
    # records where the run made several; one block holding every row
    budgets = {
        "one row": 1,
        "split": 97 * _width(trace) + _width(trace) - 1,
        "join": (2 * max(sizes) + 3) * _width(trace),
        "whole": len(trace) * _width(trace),
    }
    assert 97 < max(sizes) and len(trace) % 97
    for case, cells in budgets.items():
        monkeypatch.setattr(trace_mod, "_CSV_BLOCK_CELLS", cells)
        write_trace_csv(_copy(trace), tmp_path / f"{case}.csv")
        assert (tmp_path / f"{case}.csv").read_bytes() == expected, case


def test_empty_trace_writes_the_header_only(tmp_path):
    doc = scen.load_document("line8")
    doc["sim"]["horizon_cycles"] = 3
    doc["sim"]["metrics"] = "skew_only"
    trace = engine.run(scen.build_scenario(doc)).trace
    write_trace_csv(trace, tmp_path / "blocked.csv")
    reference.write_trace_csv(trace, tmp_path / "rows.csv")
    text = (tmp_path / "blocked.csv").read_text()
    assert text == (tmp_path / "rows.csv").read_text()
    assert text.count("\n") == 1


def _bits(word: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", word))[0]


# Values whose strings a deduplicating writer could confuse: 0.0 and -0.0
# compare equal, NaNs with other payloads or signs print alike but never
# compare equal, subnormals, and both sides of the points where repr
# switches to exponent notation (1e16 and 1e-4).
POOL = [
    0.0, -0.0, 1.0, -1.5, 0.1, math.inf, -math.inf, math.nan, _bits(0x7FF8000000000001), _bits(0xFFF8000000000000),
    5e-324, -2.5e-310, 1e16, 9999999999999998.0, 1e-5, 1e-4, 1.0000000000000002,
]
MODES = [0, 1, -128, 127]


@st.composite
def synthetic_traces(draw) -> Trace:
    """A trace whose values come from a small pool, and whose columns from a
    few templates, so that both values and whole columns repeat; its rows
    are split into records at drawn cuts, some records possibly empty."""
    n, s_max, rows = draw(st.integers(1, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 30))
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=5))
    if draw(st.booleans()):
        pool += [0.0, -0.0]  # equal, so only a writer keyed by bit pattern tells them apart

    def columns(values, dtype, count):
        templates = draw(st.lists(st.lists(st.sampled_from(values), min_size=rows, max_size=rows), min_size=1, max_size=3))
        picked = [draw(st.sampled_from(templates)) for _ in range(count)]
        return np.array(picked, dtype=dtype).reshape(count, rows).T

    floats = columns(pool, np.float64, 3 + 2 * n + s_max)
    bound_local, bound_global = (draw(st.sampled_from(pool)) for _ in range(2))
    record = (
        floats[:, 0], floats[:, 3 : 3 + n], floats[:, 3 + n : 3 + 2 * n], columns(MODES, np.int8, n),
        floats[:, 1], floats[:, 2], floats[:, 3 + 2 * n :],
    )
    cuts = [0, *sorted(draw(st.lists(st.integers(0, rows), max_size=4))), rows]
    records = [tuple(array[a:b] for array in record) for a, b in zip(cuts, cuts[1:])]
    return Trace(records, edges=(), bound_local=bound_local, bound_global=bound_global)


@settings(max_examples=150, deadline=None)
@given(synthetic_traces(), st.integers(1, 8), st.integers(-1, 1))
def test_deduplicated_writer_matches_row_writer_on_synthetic_traces(trace, block_rows, spare):
    # a budget of block_rows rows, give or take a cell: blocks split and join the records
    cells = block_rows * _width(trace) + spare
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(trace_mod, "_CSV_BLOCK_CELLS", cells):
        write_trace_csv(_copy(trace), Path(tmp) / "blocked.csv")
        reference.write_trace_csv(trace, Path(tmp) / "rows.csv")
        assert (Path(tmp) / "blocked.csv").read_bytes() == (Path(tmp) / "rows.csv").read_bytes()


def test_writer_formats_each_distinct_bit_pattern_once_per_block(tmp_path, monkeypatch):
    # Counts calls, not time: the writer calls repr at most once per
    # distinct float bit pattern and distinct mode of each block.
    trace = engine.run(scen.build_scenario(scen.load_document("grid4x4"))).trace
    calls = 0

    def counting_repr(x):
        nonlocal calls
        calls += 1
        return repr(x)

    monkeypatch.setattr(trace_mod, "repr", counting_repr, raising=False)
    write_trace_csv(trace, tmp_path / "trace.csv")
    distinct = float_cells = 0
    block = max(1, trace_mod._CSV_BLOCK_CELLS // _width(trace))
    for start in range(0, len(trace), block):
        rows = slice(start, start + block)
        floats = np.concatenate([
            trace.times[rows], trace.logical[rows].ravel(), trace.hardware[rows].ravel(),
            trace.local_skew[rows], trace.global_skew[rows], trace.psi_levels[rows].ravel(),
        ])
        float_cells += len(floats)
        distinct += len(np.unique(floats.view(np.uint64))) + len(np.unique(trace.modes[rows]))
    assert 0 < calls <= distinct
    # one call per cell, as a per-cell writer makes, would be several times that
    assert 5 * distinct < float_cells


def test_writer_peak_is_bounded_by_its_cell_budget(tmp_path):
    # 2048 rows x 256 nodes of distinct values (9 MB of arrays, 1.6 M
    # cells), so no value repeats and a block's strings are one per cell.
    # The writer holds one block's copies, strings and rows beside the
    # stored trace: about 150 bytes a cell, under 32 times the budget's
    # float64 bytes.  A writer of 2048-row blocks peaks near 150 MB here.
    rows, n, s_max = 2048, 256, 3
    rng = np.random.default_rng(0)
    record = (
        np.cumsum(rng.random(rows)), rng.random((rows, n)), rng.random((rows, n)),
        rng.integers(0, 2, (rows, n)).astype(np.int8), rng.random(rows), rng.random(rows), rng.random((rows, s_max)),
    )
    trace = Trace([record], edges=(), bound_local=1.0, bound_global=2.0)
    tracemalloc.start()
    try:
        write_trace_csv(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * trace_mod._CSV_BLOCK_CELLS
    assert (tmp_path / "trace.csv").read_text().count("\n") == rows + 1
