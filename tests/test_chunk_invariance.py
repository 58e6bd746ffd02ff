"""A run's output files do not depend on the oracle's chunk budget.

``metrics._CHUNK_VALUES`` decides only where the oracle's chunks end.  A
budget of 1 (one sample a chunk), the default and 2^30 (one chunk for the
whole run) must write the same ``summary.json``, ``violations.json`` and
``trace.csv``, byte for byte: on a bundled scenario, on a run with
``corollary1`` hits, and on an aborted run, which writes only
``violations.json``.
"""
import json

import pytest

from gcsim import cli, metrics

from scenario_gen import corollary1_doc, fc_lag_doc

BUDGETS = (1, metrics._CHUNK_VALUES, 1 << 30)
FILES = ("summary.json", "violations.json", "trace.csv")


def drift_abort_doc(monkeypatch) -> dict:
    """The drift abort of ``test_cli``: node 0 reads 1.0 ahead of its true
    value in (500, 1000], which its neighbour's estimates miss, and its
    hardware reading jumps by 0.5 after t = 1000, which ends the run."""
    sample = metrics.sample_clocks

    def tampered(table, t):
        L, H, anchors = sample(table, t)
        L[(t > 500.0) & (t <= 1000.0), 0] += 1.0
        H[t > 1000.0, 0] += 0.5
        return L, H, anchors

    monkeypatch.setattr(metrics, "sample_clocks", tampered)
    return fc_lag_doc()


# each case: its document (or bundled name), its exit code and the files it writes
CASES = {
    "star6": (lambda monkeypatch: "star6", cli.EXIT_OK, FILES),
    "corollary1": (lambda monkeypatch: corollary1_doc(), cli.EXIT_RUNTIME, FILES),
    "drift_abort": (drift_abort_doc, cli.EXIT_RUNTIME, ("violations.json",)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_files_do_not_depend_on_the_chunk_budget(tmp_path, monkeypatch, case):
    make, exit_code, files = CASES[case]
    scenario = make(monkeypatch)
    if isinstance(scenario, dict):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        scenario = str(path)
    outputs = []
    for budget in BUDGETS:
        monkeypatch.setattr(metrics, "_CHUNK_VALUES", budget)
        out = tmp_path / str(budget)
        assert cli.main(["run", "--scenario", scenario, "--out", str(out)]) == exit_code
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        outputs.append({name: (out / name).read_bytes() for name in files})
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    kinds = [v["kind"] for v in json.loads(outputs[0]["violations.json"])]
    if case == "corollary1":
        assert kinds.count("corollary1") == 25
    elif case == "drift_abort":
        assert kinds[-1] == "aborted" and len(kinds) > 1
    else:
        assert kinds == []
