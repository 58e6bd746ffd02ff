"""Tests of the benchmark's own checkers: ``python3 perfbench/selftest.py``.

Also runs under pytest when named explicitly
(``python3 -m pytest perfbench/selftest.py``).  The checkers must accept a
real gcsim output, reject the same output with one value corrupted, and
reproduce the hand-computed line8 bounds from the README.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def _bundled(name: str) -> dict:
    return json.loads((ROOT / "src" / "gcsim" / "scenarios" / f"{name}.json").read_text())


def _short_line8_run() -> tuple[dict, Path]:
    """line8 cut to 40 cycles, run through the CLI into a scratch directory."""
    from gcsim import cli

    doc = _bundled("line8")
    doc["sim"]["horizon_cycles"] = 40
    out = WORK / "line8"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    path = out / "line8.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    return doc, out


def test_line8_hand_computed_bounds():
    sb = checks.static_bounds(_bundled("line8"))
    assert all(abs(k - 1.0) < 1e-12 for k in sb["kappa"].values())
    assert abs(sb["kappa_diameter"] - 8.0) < 1e-12
    assert abs(sb["local_bound"] - 2.0) < 1e-12
    assert abs(sb["global_bound"] - 80.0 / 9.0) < 1e-12


def test_floyd_warshall_on_a_small_graph():
    # 0-1 (1), 1-2 (2), 0-2 (5): the 0-2 shortest path goes through 1
    d = checks.all_pairs(3, {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 5.0})
    assert d.tolist() == [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]


def test_random_template_matches_the_program_expansion():
    from gcsim import scenario

    for seed, n, extra in ((3, 16, 6), (11, 64, 16), (12345, 256, 128)):
        tpl = {"kind": "random", "n": n, "extra_edges": extra, "seed": seed, "edge": {}}
        doc, problems = scenario.expand_document({"graph": {"template": tpl, "d_max": 1.5}})
        assert not problems
        program = sorted((r["u"], r["v"]) for r in doc["graph"]["edges"])
        assert checks.random_template_edges(tpl) == (n, program)


def test_real_output_passes_and_a_perturbed_L_value_is_rejected():
    doc, out = _short_line8_run()
    sb = checks.static_bounds(doc)
    summary = json.loads((out / "summary.json").read_text())
    cols, data = checks.read_trace_csv(out / "trace.csv")
    assert checks.check_trace(cols, data, summary, sb) == []
    assert checks.check_bound_report(summary["bound_report"], sb) == []

    bad = data.copy()
    bad[len(bad) // 2, cols.index("node_4_L")] += 0.05
    problems = checks.check_trace(cols, bad, summary, sb)
    assert problems, "a perturbed L value must be rejected"
    assert any("local_skew" in p or "psi_s" in p or "slope" in p for p in problems)


def test_a_wrong_kappa_diameter_is_rejected():
    doc, out = _short_line8_run()
    sb = checks.static_bounds(doc)
    report = json.loads((out / "summary.json").read_text())["bound_report"]
    assert checks.check_bound_report(report, sb) == []

    wrong = copy.deepcopy(report)
    # a kappa-diameter of 9 instead of 8 scales the Theorem 3 bound by 9/8
    wrong["global_bound"] = report["global_bound"] * 9.0 / 8.0
    problems = checks.check_bound_report(wrong, sb)
    assert any("global_bound" in p for p in problems)

    wrong = copy.deepcopy(report)
    wrong["per_edge"][0]["kappa"] *= 1.0 + 1e-6
    assert any("kappa" in p for p in checks.check_bound_report(wrong, sb))


def test_benchmark_json_declares_the_reported_units():
    from run import E2E_UNITS
    from worker import layer_unit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert all(m["unit"] == layer_unit(m["name"]) for m in spec["per_layer"])


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for t in tests:
        try:
            t()
            print(f"PASS {t.__name__}")
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {t.__name__}: {exc!r}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
