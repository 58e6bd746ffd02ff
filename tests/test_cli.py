import csv
import json
import logging
import time

import numpy as np
import pytest

from gcsim import cli, engine
from gcsim import scenario as scen

from scenario_gen import fc_lag_doc, random_template_doc, zero_drift_doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sweepable_line_doc(n=4):
    return {
        "graph": {"template": {"kind": "line", "n": n,
                                "edge": {"fwd_delay": 1.0, "bwd_delay": 1.0, "jitter": 0.0,
                                         "eps_d": 0.0, "eps_m": 0.2, "length": 1.0}},
                  "d_max": 1.5},
        "clocks": {"theta": 1.001, "mu": 0.01,
                   "default": {"generator": "constant", "rate": 1.0, "initial_value": 0.0},
                   "overrides": {str(i): {"rate": 1.001} for i in range(1, n, 2)}},
        "gcs": {"T": 4.0, "T_stab": 3.0, "p_max": 0.2, "s_max": 2},
        "sim": {"horizon_cycles": 150, "sample_dt": 3.5, "master_seed": 0,
                "metrics": "skew_only"},
    }


def random16_mutant(mutate):
    doc = scen.load_document("random16")
    mutate(doc)
    return doc


def explicit_mutant(mutate, n=16):
    doc = scen.load_document("random16")
    tpl = doc["graph"]["template"]
    # a graph of n nodes has room for (n - 1)(n - 2)/2 extra edges
    tpl.update(n=n, extra_edges=min(tpl["extra_edges"], (n - 1) * (n - 2) // 2))
    doc["clocks"].pop("overrides")
    doc, _ = scen.expand_document(doc)
    mutate(doc)
    return doc


def own_clock(spec):
    def mutate(doc):
        doc["clocks"]["default"] = spec
        doc["clocks"].pop("overrides")
    return mutate


# each mutation of bundled random16, and the field its validation line names
MALFORMED = {
    "alternating high not a number": (
        random16_mutant(lambda d: d["clocks"]["default"].update(high="x")),
        "clocks.nodes[0].high"),
    "theta below one": (
        random16_mutant(lambda d: d["clocks"].update(theta=0.5)), "theta must be >= 1"),
    "template n not a number": (
        random16_mutant(lambda d: d["graph"]["template"].update(n="x")), "graph.template.n"),
    "template n fractional": (
        random16_mutant(lambda d: d["graph"]["template"].update(n=3.5)), "graph.template.n"),
    "template edge not an object": (
        random16_mutant(lambda d: d["graph"]["template"].update(edge=[1])),
        "graph.template.edge"),
    "edge endpoint fractional": (
        explicit_mutant(lambda d: d["graph"]["edges"][0].update(u=0.5)), "graph.edges[0]"),
    "edge endpoint outside the graph": (
        explicit_mutant(lambda d: d["graph"]["edges"][0].update(v=5), n=2), "graph.edges[0]"),
    "scripted segment not a number": (
        random16_mutant(own_clock({"generator": "scripted", "segments": [[0, "x"]]})),
        "clocks.nodes[0].segments[0]"),
    "random walk step not a number": (
        random16_mutant(own_clock({"generator": "random_walk", "dwell": 10.0, "step": "x"})),
        "clocks.nodes[0].step"),
    "random walk step negative": (
        random16_mutant(own_clock({"generator": "random_walk", "dwell": 10.0, "step": -0.01})),
        "clocks.nodes[0].step"),
    "rate schedules too long": (
        random16_mutant(lambda d: (d["clocks"]["default"].update(dwell=1e-300),
                                   d["sim"].update(horizon_cycles=5))),
        "rate segments up to the horizon exceed the limit"),
    "template n one above the node limit": (
        random16_mutant(lambda d: d["graph"]["template"].update(n=scen._MAX_NODES + 1)),
        f"graph.template: {scen._MAX_NODES + 1} nodes exceed the limit"),
    "grid template above the node limit": (
        random16_mutant(lambda d: d["graph"].update(template={"kind": "grid", "rows": 10**5, "cols": 10**5})),
        "graph.template: 10000000000 nodes exceed the limit"),
    "master seed negative": (
        random16_mutant(lambda d: d["sim"].update(master_seed=-1)), "sim.master_seed"),
    "master seed of 2^64": (
        random16_mutant(lambda d: d["sim"].update(master_seed=2**64)), "sim.master_seed"),
    "random walk seed negative": (
        random16_mutant(own_clock({"generator": "random_walk", "dwell": 10.0, "seed": -1})),
        "clocks.nodes[0].seed"),
    "template seed negative": (
        random16_mutant(lambda d: d["graph"]["template"].update(seed=-1)), "graph.template.seed"),
    "override key past the last node": (
        random16_mutant(lambda d: d["clocks"]["overrides"].update({"99": {"start_high": True}})),
        "clocks.overrides['99']"),
    "override key not a node id": (
        random16_mutant(lambda d: d["clocks"]["overrides"].update(x={"start_high": True})),
        "clocks.overrides['x']"),
    "gcs hysteresis": (
        random16_mutant(lambda d: d["gcs"].update(hysteresis=0.0)), "gcs: unknown keys ['hysteresis']"),
    "gcs correction semantics": (
        random16_mutant(lambda d: d["gcs"].update(correction_semantics="multiplicative")),
        "gcs: unknown keys ['correction_semantics']"),
}


def derived_levels_mutant(mu):
    """random16 at 5 cycles with theta 1.001, ``mu`` and a derived s_max."""
    def mutate(doc):
        doc["clocks"].update(theta=1.001, mu=mu)
        doc["gcs"].pop("s_max", None)
        doc["sim"]["horizon_cycles"] = 5
    return random16_mutant(mutate)


# inputs whose size a limit bounds: each mutation, the command it fails,
# and the field its validation line names
OVERSIZED = {
    "extra edges negative": (
        random16_mutant(lambda d: d["graph"]["template"].update(extra_edges=-5)), "check",
        "graph.template.extra_edges: must be an integer in [0, 64]"),
    "a billion extra edges": (
        random16_mutant(lambda d: d["graph"]["template"].update(n=2048, extra_edges=10**9)), "check",
        "graph.template.extra_edges: must be an integer in [0, 8192]"),
    "every extra edge a 1024-node graph has room for": (
        random16_mutant(lambda d: d["graph"]["template"].update(n=1024, extra_edges=1023 * 1022 // 2)),
        "check", "graph.template.extra_edges: must be an integer in [0, 4096]"),
    "a billion levels": (
        random16_mutant(lambda d: d["gcs"].update(s_max=10**9)), "run",
        "gcs.s_max: 1000000000 levels"),
    "177 million derived levels": (
        derived_levels_mutant(0.0010000001), "run", "gcs.s_max: 177275141 derived levels"),
    "thirty million sampling ticks": (
        random16_mutant(lambda d: d["sim"].update(sample_dt=1e-6, horizon_cycles=5)), "run",
        "sim.sample_dt: 3e+07 sampling ticks"),
}


class TestCheck:
    def test_line8_static_values(self, capsys):
        rc = cli.main(["check", "--scenario", "line8"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        for token in ("sigma", "kappa_diameter", "local_bound", "global_bound",
                      "timeout_window", "s_max"):
            assert token in out

    def test_sigma_undefined_when_theta_is_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, zero_drift_doc(True))
        rc = cli.main(["check", "--scenario", path])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert "sigma undefined" in err

    def test_check_matches_library_report(self, capsys):
        sc = scen.load_scenario("line8")
        report = scen.static_report(sc)
        rc = cli.main(["check", "--scenario", "line8"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert repr(report["global_bound"]) in out
        assert repr(report["local_bound"]) in out
        assert repr(report["timeout_window"]) in out

    @pytest.mark.parametrize("label", sorted(MALFORMED))
    def test_malformed_scenario_is_a_validation_failure(self, label, tmp_path, capsys):
        doc, field = MALFORMED[label]
        rc = cli.main(["check", "--scenario", write_doc(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert any(line.startswith("validation: ") and field in line
                   for line in err.splitlines())


# file contents that are not a JSON document, and the parse error each gives
UNPARSABLE = [
    pytest.param(b"\xff\xfe{}", "codec can't decode byte 0xff in position 0", id="undecodable"),
    pytest.param(b"[" * 100_000, "JSON nested too deeply", id="deeply-nested"),
]


def assert_one_error_line(capsys, prefix, text):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and text in err[0]


class TestRun:
    @pytest.mark.parametrize("content, message", UNPARSABLE)
    def test_unparsable_file_is_a_parse_error(self, content, message, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        rc = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_PARSE
        assert_one_error_line(capsys, "parse error: ", message)

    def test_out_that_is_a_file_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main(["run", "--scenario", "line8", "--out", str(out)])
        assert rc == cli.EXIT_PARSE
        assert_one_error_line(capsys, "usage error: ", f"--out {out}: File exists")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"graph": [,]}')
        rc = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_PARSE
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["run", "--scenario", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_PARSE

    def test_validation_failure_lists_problems(self, tmp_path, capsys):
        doc = zero_drift_doc(True)
        doc["clocks"]["overrides"] = {"2": {"initial_value": 50.0}}
        path = write_doc(tmp_path, doc)
        rc = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        assert "initial synchronisation" in capsys.readouterr().err

    def test_clean_run_writes_reports(self, tmp_path):
        doc = zero_drift_doc(True, horizon_cycles=8)
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        rc = cli.main(["run", "--scenario", path, "--out", str(out)])
        assert rc == cli.EXIT_OK
        trace = (out / "trace.csv").read_text().splitlines()
        header = trace[0].split(",")
        assert header[0] == "t_real"
        assert "node_0_L" in header and "node_2_mode" in header
        assert "psi_s1" in header and "bound_local" in header
        assert len(trace) > 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violation_count"] == 0
        assert summary["cycles_completed"] == 8
        assert "wall_time" not in json.dumps(summary)
        assert json.loads((out / "violations.json").read_text()) == []

    def test_unwritable_trace_is_a_usage_error_after_the_reports(self, tmp_path, capsys):
        # trace.csv is a directory: the run's summary and violations are
        # still written, and the failure is one usage-error line
        path = write_doc(tmp_path, zero_drift_doc(True, horizon_cycles=8))
        rc = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "ref")])
        assert rc == cli.EXIT_OK
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        rc = cli.main(["run", "--scenario", path, "--out", str(out)])
        assert rc == cli.EXIT_PARSE
        assert_one_error_line(capsys, "usage error: ", f"--out {out}: {out / 'trace.csv'}: Is a directory")
        for name in ("summary.json", "violations.json"):
            assert (out / name).read_text() == (tmp_path / "ref" / name).read_text()

    def test_unwritable_report_of_an_aborted_run_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scen, "kappa_distance_matrix", lambda g, kappa: np.ones((g.n, g.n)))
        out = tmp_path / "out"
        (out / "violations.json").mkdir(parents=True)
        rc = cli.main(["run", "--scenario", "line8", "--out", str(out)])
        assert rc == cli.EXIT_PARSE
        assert_one_error_line(capsys, "usage error: ", f"--out {out}: {out / 'violations.json'}: Is a directory")

    def test_aborted_run_reports_its_violations_and_the_abort(self, tmp_path, monkeypatch, capsys):
        # node 0 reads 1.0 ahead of its true value in (500, 1000], which its
        # neighbour's estimates at an evaluation there miss, and its hardware
        # reading jumps by 0.5 after t = 1000, which ends the run
        sample = engine.sample_clocks

        def tampered(table, t):
            L, H, anchors = sample(table, t)
            L[(t > 500.0) & (t <= 1000.0), 0] += 1.0
            H[t > 1000.0, 0] += 0.5
            return L, H, anchors

        monkeypatch.setattr(engine, "sample_clocks", tampered)
        out = tmp_path / "out"
        rc = cli.main(["run", "--scenario", write_doc(tmp_path, fc_lag_doc()), "--out", str(out)])
        assert rc == cli.EXIT_RUNTIME
        assert "run aborted: hardware clock violated its drift envelope" in capsys.readouterr().err
        text = (out / "violations.json").read_text(encoding="utf-8")
        report = json.loads(text)
        assert len(report) > 1 and report[0]["kind"] == "estimate_sandwich"
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text.endswith(
            '  {\n    "detail": "hardware clock violated its drift envelope",\n'
            '    "kind": "aborted",\n    "time": null\n  }\n]\n'
        )

    def test_engine_error_is_reported_as_an_abort(self, tmp_path, monkeypatch, capsys):
        # a distance matrix that is not the kappa-metric fails the engine's
        # static check, an InternalError rather than a RunAborted
        build = scen.kappa_distance_matrix

        def tampered(g, kappa):
            dist = build(g, kappa)
            dist[0, 0] = 1e-300
            return dist

        monkeypatch.setattr(scen, "kappa_distance_matrix", tampered)
        out = tmp_path / "out"
        rc = cli.main(["run", "--scenario", "line8", "--out", str(out)])
        assert rc == cli.EXIT_RUNTIME
        assert "run aborted: kappa distance d(0, 0) is 1e-300, not 0" in capsys.readouterr().err
        assert json.loads((out / "violations.json").read_text(encoding="utf-8")) == [
            {"detail": "kappa distance d(0, 0) is 1e-300, not 0", "kind": "aborted", "time": None}
        ]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_usage_error(self, seed, tmp_path, capsys):
        path = write_doc(tmp_path, zero_drift_doc(False, horizon_cycles=5))
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", "--scenario", path, "--seed", seed, "--out", str(tmp_path / "out")])
        assert exited.value.code == cli.EXIT_PARSE
        assert f"--seed: must be an integer in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, tmp_path):
        path = write_doc(tmp_path, zero_drift_doc(False, horizon_cycles=5))
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", path, "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 2**64 - 1

    def test_seed_override_changes_hash(self, tmp_path):
        doc = zero_drift_doc(False, horizon_cycles=5)
        path = write_doc(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--scenario", path, "--seed", "1", "--out", str(out1)]) == 0
        assert cli.main(["run", "--scenario", path, "--seed", "2", "--out", str(out2)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["seed"] == 1 and s2["seed"] == 2
        assert s1["scenario_hash"] != s2["scenario_hash"]


class TestSweep:
    def test_one_point_three_seeds(self, tmp_path):
        path = write_doc(tmp_path, sweepable_line_doc())
        grid = write_doc(tmp_path, {"eps_m": [0.2]}, name="grid.json")
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--scenario", path, "--grid", grid,
                       "--seeds", "3", "--out", str(out)])
        assert rc == cli.EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4
        header = rows[0].split(",")
        assert header[:2] == ["eps_m", "seed"]

    def test_two_workers_write_what_one_writes(self, tmp_path):
        doc = scen.load_document("line8")
        doc["sim"]["horizon_cycles"] = 20
        path = write_doc(tmp_path, doc)
        grid = write_doc(tmp_path, {"theta": [1.001, 1.002]}, name="grid.json")
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            assert cli.main(["sweep", "--scenario", path, "--grid", grid, "--seeds", "2",
                             "--workers", workers, "--out", str(out)]) == cli.EXIT_OK
            texts.append((out / "sweep.csv").read_text())
        assert texts[0] == texts[1]
        rows = list(csv.DictReader(texts[0].splitlines()))
        assert [(r["theta"], r["seed"], r["status"]) for r in rows] == [
            (theta, seed, "ok") for theta in ("1.001", "1.002") for seed in ("0", "1")
        ]

    def test_delta_over_d_identity(self, tmp_path):
        doc = sweepable_line_doc()
        path = write_doc(tmp_path, doc)
        grid = write_doc(tmp_path, {"eps_m": [0.1]}, name="grid.json")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", path, "--grid", grid,
                        "--seeds", "1", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        row = rows[1].split(",")
        got = float(row[header.index("delta_over_d")])
        theta, eps_d, eps_m, d = 1.001, 0.0, 0.1, 1.0
        assert got == pytest.approx(2 * (theta - 1 + eps_d) + 2 * eps_m / d, rel=1e-12)

    def test_skew_shrinks_with_uncertainty(self, tmp_path):
        path = write_doc(tmp_path, sweepable_line_doc())
        grid = write_doc(tmp_path, {"eps_m": [0.2, 0.1, 0.05]}, name="grid.json")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", path, "--grid", grid,
                        "--seeds", "1", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        i_eps = header.index("eps_m")
        i_max = header.index("max_local")
        by_eps = {float(r.split(",")[i_eps]): float(r.split(",")[i_max]) for r in rows[1:]}
        ordered = [by_eps[k] for k in sorted(by_eps, reverse=True)]
        assert ordered[0] > ordered[1] > ordered[2]

    def test_n_override_requires_template(self, tmp_path):
        doc = zero_drift_doc(True, horizon_cycles=5)
        path = write_doc(tmp_path, doc)
        grid = write_doc(tmp_path, {"n": [4]}, name="grid.json")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", path, "--grid", grid,
                        "--seeds", "1", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert "error" in rows[1]

    def test_smaller_n_drops_the_overrides_of_removed_nodes(self, tmp_path):
        # random16 overrides nodes 1, 3, ..., 15
        doc = scen.load_document("random16")
        doc["sim"]["horizon_cycles"] = 5
        path = write_doc(tmp_path, doc)
        grid = write_doc(tmp_path, {"n": [8, 16]}, name="grid.json")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", path, "--grid", grid,
                        "--seeds", "1", "--out", str(out)]) == cli.EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            assert [(r["n"], r["status"]) for r in csv.DictReader(fh)] == [("8", "ok"), ("16", "ok")]

    def test_bad_row_does_not_sink_the_sweep(self, tmp_path):
        doc = scen.load_document("random16")
        doc["sim"]["horizon_cycles"] = 20
        path = write_doc(tmp_path, doc)
        grid = write_doc(tmp_path, {"theta": [0.5, 1.001]}, name="grid.json")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", path, "--grid", grid,
                        "--seeds", "1", "--out", str(out)]) == cli.EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["theta"] == "0.5" and rows[0]["status"].startswith("error: ")
        assert rows[1]["theta"] == "1.001" and rows[1]["status"] == "ok"

    @pytest.mark.parametrize("graph, grid", [
        ({"template": {"kind": "line", "n": 16, "edge": [1]}, "d_max": 1.5}, {"eps_m": [0.1]}),
        ({"nodes": 16, "d_max": 1.5, "edges": 5}, {"jitter": [0.0]}),
        ({"template": 5, "d_max": 1.5}, {"n": [4]}),
    ])
    def test_malformed_base_graph_gives_an_error_row(self, graph, grid, tmp_path):
        doc = scen.load_document("random16")
        doc["graph"] = graph
        path = write_doc(tmp_path, doc)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--scenario", path, "--grid",
                         write_doc(tmp_path, grid, name="grid.json"),
                         "--seeds", "1", "--out", str(out)]) == cli.EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["status"].startswith("error: ")

    @pytest.mark.parametrize("content, message", UNPARSABLE)
    def test_unparsable_grid_is_a_parse_error(self, content, message, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_bytes(content)
        rc = cli.main(["sweep", "--scenario", write_doc(tmp_path, sweepable_line_doc()), "--grid", str(grid),
                       "--out", str(tmp_path / "s")])
        assert rc == cli.EXIT_PARSE
        assert_one_error_line(capsys, "parse error: ", message)

    def test_out_that_is_a_file_is_a_usage_error_before_any_row_runs(self, tmp_path, monkeypatch, capsys):
        rows = []
        monkeypatch.setattr(cli, "_sweep_row", lambda *args: rows.append(args))
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main(["sweep", "--scenario", write_doc(tmp_path, sweepable_line_doc()),
                       "--grid", write_doc(tmp_path, {"eps_m": [0.2]}, name="grid.json"), "--out", str(out)])
        assert rc == cli.EXIT_PARSE
        assert_one_error_line(capsys, "usage error: ", f"--out {out}: File exists")
        assert rows == []

    def test_unwritable_sweep_csv_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        (out / "sweep.csv").mkdir(parents=True)
        rc = cli.main(["sweep", "--scenario", write_doc(tmp_path, sweepable_line_doc()),
                       "--grid", write_doc(tmp_path, {"eps_m": [0.2]}, name="grid.json"), "--out", str(out)])
        assert rc == cli.EXIT_PARSE
        assert_one_error_line(capsys, "usage error: ", f"--out {out}: {out / 'sweep.csv'}: Is a directory")

    def test_grid_value_not_a_list_is_a_validation_failure(self, tmp_path, capsys):
        path = write_doc(tmp_path, scen.load_document("random16"))
        grid = write_doc(tmp_path, {"theta": 1.01}, name="grid.json")
        rc = cli.main(["sweep", "--scenario", path, "--grid", grid,
                       "--seeds", "1", "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert any(line.startswith("validation: ") and "grid.theta" in line
                   for line in err.splitlines())

    def test_base_without_clocks_is_a_validation_failure(self, tmp_path, capsys):
        doc = scen.load_document("random16")
        del doc["clocks"]
        path = write_doc(tmp_path, doc)
        grid = write_doc(tmp_path, {"theta": [0.5]}, name="grid.json")
        rc = cli.main(["sweep", "--scenario", path, "--grid", grid,
                       "--seeds", "1", "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert "validation: section 'clocks' missing or not an object" in err.splitlines()

    @pytest.mark.parametrize("option, value", [("--seeds", "-2"), ("--seeds", "0"), ("--workers", "0")])
    def test_count_below_one_is_a_usage_error(self, option, value, tmp_path, capsys):
        path = write_doc(tmp_path, sweepable_line_doc())
        grid = write_doc(tmp_path, {"eps_m": [0.2]}, name="grid.json")
        with pytest.raises(SystemExit) as exited:
            cli.main(["sweep", "--scenario", path, "--grid", grid, option, value,
                      "--out", str(tmp_path / "s")])
        assert exited.value.code == cli.EXIT_PARSE
        assert f"{option}: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_unsupported_parameter_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, sweepable_line_doc())
        grid = write_doc(tmp_path, {"frobnicate": [1]}, name="grid.json")
        rc = cli.main(["sweep", "--scenario", path, "--grid", grid,
                       "--seeds", "1", "--out", str(tmp_path / "s")])
        assert rc == cli.EXIT_VALIDATION


class TestNodeLimit:
    """A billion-node graph, from a template or given explicitly with one
    default clock, is rejected before anything of its size is built."""

    @pytest.mark.parametrize("form", ["template", "explicit"])
    def test_billion_nodes_exit_3_at_once(self, form, tmp_path, capsys):
        doc = scen.load_document("random16")
        doc["clocks"].pop("overrides")
        if form == "template":
            doc["graph"]["template"]["n"] = 10**9
        else:
            doc["graph"] = {**scen.expand_document(doc)[0]["graph"], "nodes": 10**9}
        path = write_doc(tmp_path, doc)
        started = time.perf_counter()
        rc = cli.main(["check", "--scenario", path])
        elapsed = time.perf_counter() - started
        assert rc == cli.EXIT_VALIDATION
        assert f"1000000000 nodes exceed the limit of {scen._MAX_NODES}" in capsys.readouterr().err
        assert elapsed < 0.5


class TestBootUpGate:
    def test_every_pair_violating_at_n_1024_exits_3_with_a_bounded_report(self, tmp_path, capsys):
        # 523,776 violating pairs: the first _GATE_PAIRS are named, the rest counted
        n = 1024
        doc = random_template_doc(n)
        for v in range(n):
            doc["clocks"]["overrides"].setdefault(str(v), {})["initial_value"] = 1000.0 * v
        rc = cli.main(["check", "--scenario", write_doc(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        lines = err.splitlines()
        assert len(lines) == scen._GATE_PAIRS + 1 and len(err) < 200 * len(lines)
        assert lines[0].startswith("validation: initial synchronisation violated for pair (0,1): ")
        more = n * (n - 1) // 2 - scen._GATE_PAIRS
        assert lines[-1] == f"validation: initial synchronisation violated for {more} more pairs"


class TestInputLimits:
    """An input that a limit bounds is rejected before anything of its size
    is built or run."""

    @pytest.mark.parametrize("label", sorted(OVERSIZED))
    def test_oversized_input_exits_3_at_once(self, label, tmp_path, capsys):
        doc, command, field = OVERSIZED[label]
        argv = [command, "--scenario", write_doc(tmp_path, doc)]
        started = time.perf_counter()
        rc = cli.main(argv + (["--out", str(tmp_path / "out")] if command == "run" else []))
        elapsed = time.perf_counter() - started
        assert rc == cli.EXIT_VALIDATION
        assert any(line.startswith("validation: ") and field in line
                   for line in capsys.readouterr().err.splitlines())
        assert elapsed < 0.5

    def test_eight_thousand_derived_levels_run(self, tmp_path, capsys):
        doc = derived_levels_mutant(0.001001)
        assert cli.main(["check", "--scenario", write_doc(tmp_path, doc)]) == cli.EXIT_OK
        assert "s_max              8524\n" in capsys.readouterr().out
        # the derived level count does not depend on the horizon
        doc["sim"]["horizon_cycles"] = 1
        assert cli.main(["run", "--scenario", write_doc(tmp_path, doc),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK


class TestBundled:
    def test_all_bundled_scenarios_validate(self):
        for name in scen.bundled_names():
            sc = scen.load_scenario(name)
            assert sc.scenario_hash

    def test_bundled_scenarios_build_without_warnings(self, caplog):
        with caplog.at_level(logging.WARNING):
            for name in scen.bundled_names():
                scen.load_scenario(name)
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_bundled_names_include_corpus(self):
        names = scen.bundled_names()
        for expected in ("line8", "ring12", "grid4x4", "star6", "random16"):
            assert expected in names
