import math
import struct
import tempfile
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


@pytest.mark.parametrize("name", scen.bundled_names())
def test_blocked_writer_matches_row_writer(name, tmp_path, monkeypatch):
    doc = scen.load_document(name)
    doc["sim"]["horizon_cycles"] = 60
    trace = engine.run(scen.build_scenario(doc)).trace
    # small blocks, so the trace spans several of them and ends inside one
    monkeypatch.setattr("gcsim.trace._CSV_BLOCK_ROWS", 97)
    assert len(trace) > 97 and len(trace) % 97
    write_trace_csv(trace, tmp_path / "blocked.csv")
    reference.write_trace_csv(trace, tmp_path / "rows.csv")
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


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
    few templates, so that both values and whole columns repeat."""
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
    return Trace(
        times=floats[:, 0], logical=floats[:, 3 : 3 + n], hardware=floats[:, 3 + n : 3 + 2 * n],
        modes=columns(MODES, np.int8, n), edges=(), local_skew=floats[:, 1], global_skew=floats[:, 2],
        psi_levels=floats[:, 3 + 2 * n :], bound_local=bound_local, bound_global=bound_global,
    )


@settings(max_examples=150, deadline=None)
@given(synthetic_traces(), st.integers(1, 8))
def test_deduplicated_writer_matches_row_writer_on_synthetic_traces(trace, block_rows):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(trace_mod, "_CSV_BLOCK_ROWS", block_rows):
        write_trace_csv(trace, Path(tmp) / "blocked.csv")
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
    for start in range(0, len(trace), trace_mod._CSV_BLOCK_ROWS):
        rows = slice(start, start + trace_mod._CSV_BLOCK_ROWS)
        floats = np.concatenate([
            trace.times[rows], trace.logical[rows].ravel(), trace.hardware[rows].ravel(),
            trace.local_skew[rows], trace.global_skew[rows], trace.psi_levels[rows].ravel(),
        ])
        float_cells += len(floats)
        distinct += len(np.unique(floats.view(np.uint64))) + len(np.unique(trace.modes[rows]))
    assert 0 < calls <= distinct
    # one call per cell, as a per-cell writer makes, would be several times that
    assert 5 * distinct < float_cells
