import pytest

from gcsim import engine
from gcsim import scenario as scen
from gcsim.trace import write_trace_csv

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
