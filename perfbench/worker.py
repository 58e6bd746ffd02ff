"""One CLI operation in a fresh process: ``python3 perfbench/worker.py SPEC``.

SPEC is a JSON file with ``argv`` (the gcsim arguments), ``trace`` (bool)
and ``setup_reps``.  The worker imports gcsim from the checkout's ``src``,
runs ``gcsim.cli.main(argv)`` once, and prints one JSON object with its
timings, counters and peak RSS.  A fresh process per operation keeps the
peak RSS per workload and lets the caller take medians across processes.  Times are in reference seconds (see ``calibrate.py``): speed
probes run from a timer throughout, and every timer leaves their time out.
"""
from __future__ import annotations

import copy
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# array-bound spans, timed against the array probe (see calibrate.py)
ARRAY_SPANS = {"metrics.trace_oracles"}


def import_gcsim():
    if not (SRC / "gcsim" / "cli.py").is_file():
        raise SystemExit(f"gcsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gcsim

    if Path(gcsim.__file__).resolve().parent != (SRC / "gcsim").resolve():
        raise SystemExit(f"imported gcsim from {gcsim.__file__}, not from {SRC}")
    from gcsim import cli, clocks, engine, gcs, metrics, scenario, topology, trace, twoway  # noqa: F401


def install(tracer, full: bool, runs: list, setup_calls: list) -> None:
    """Wrap the set-up and engine entry points; with ``full`` every layer.

    ``runs`` receives one record per ``engine.run``; ``setup_calls`` a copy
    of the arguments of every set-up call, so they can be replayed.
    """
    from gcsim import clocks

    def record_run(args, kwargs, result):
        sc = args[0] if args else kwargs["sc"]
        s = result.summary
        pairs = tracer.calls("LogicalClock.value_pair")
        runs.append({
            "n": sc.graph.n,
            "cycles": s.cycles_completed,
            "mode_changes": sum(len(tl) - 1 for tl in s.mode_timelines.values()),
            "measurements": s.counters.get("measurements", 0),
            "eval_instants": s.counters.get("eval_instants", 0),
            "value_pairs": pairs - sum(r["value_pairs"] for r in runs),
        })

    for name in ("load_document", "build_scenario"):
        tracer.function(
            "gcsim.scenario", name,
            on_return=lambda args, kwargs, _out, _name=name: setup_calls.append(
                (_name, copy.deepcopy(args), copy.deepcopy(kwargs))),
        )
    tracer.function("gcsim.engine", "run", on_return=record_run)
    tracer.function("gcsim.metrics", "trace_oracles")
    if not full:
        return
    tracer.function("gcsim.cli", "cmd_run")
    tracer.function("gcsim.cli", "cmd_sweep")
    tracer.function("gcsim.scenario", "validate_document")
    tracer.function("gcsim.topology", "kappa_distance_matrix")
    for name in ("corollary1_check_all", "build_bound_report"):
        tracer.function("gcsim.metrics", name)
    for name in ("slow_condition", "fast_condition"):
        tracer.function("gcsim.metrics", name, span=False)
    for name in ("write_trace_csv", "write_summary_json", "write_violations_json"):
        tracer.function("gcsim.trace", name)
    tracer.function("gcsim.gcs", "trigger_levels", span=False)
    for name in ("compute_estimates", "estimate_value"):
        tracer.function("gcsim.twoway", name, span=False)
    for name in ("value", "value_pair", "invert", "set_mode"):
        tracer.method(clocks.LogicalClock, name)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_mb"):
        return "MB"
    if name == "bench.trace_overhead":
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def layer_metrics(tr, runs: list, out_dir: Path, rows: int) -> dict:
    """Per-layer numbers of one traced operation, keyed by metric name."""
    inc, slf, calls = tr.inclusive, tr.self_time, tr.calls
    clock_names = [f"LogicalClock.{m}" for m in ("value", "value_pair", "invert", "set_mode")]
    trace_csv = out_dir / "trace.csv"
    return {
        "scenario.load_s": inc("scenario.load_document"),
        "scenario.validate_s": inc("scenario.validate_document"),
        "scenario.build_s": inc("scenario.build_scenario"),
        "scenario.builds": calls("scenario.build_scenario"),
        "topology.distance_matrix_calls": calls("topology.kappa_distance_matrix"),
        "topology.distance_matrix_s": inc("topology.kappa_distance_matrix"),
        "engine.run_s": inc("engine.run"),
        "engine.self_s": slf("engine.run"),
        "engine.samples": sum(r["value_pairs"] // r["n"] for r in runs),
        "engine.measurements": sum(r["measurements"] for r in runs),
        "engine.eval_instants": sum(r["eval_instants"] for r in runs),
        "engine.mode_changes": sum(r["mode_changes"] for r in runs),
        "clocks.value_calls": calls("LogicalClock.value"),
        "clocks.value_pair_calls": calls("LogicalClock.value_pair"),
        "clocks.invert_calls": calls("LogicalClock.invert"),
        "clocks.set_mode_calls": calls("LogicalClock.set_mode"),
        "clocks.s": sum(slf(n) for n in clock_names),
        "gcs.trigger_levels_calls": calls("gcs.trigger_levels"),
        "gcs.trigger_levels_s": slf("gcs.trigger_levels"),
        "twoway.compute_estimates_calls": calls("twoway.compute_estimates"),
        "twoway.estimate_value_calls": calls("twoway.estimate_value"),
        "twoway.s": slf("twoway.compute_estimates") + slf("twoway.estimate_value"),
        "metrics.trace_oracles_s": inc("metrics.trace_oracles"),
        "metrics.corollary1_s": inc("metrics.corollary1_check_all"),
        "metrics.condition_calls": calls("metrics.slow_condition") + calls("metrics.fast_condition"),
        "metrics.condition_s": slf("metrics.slow_condition") + slf("metrics.fast_condition"),
        "metrics.bound_report_s": inc("metrics.build_bound_report"),
        "trace.write_trace_csv_s": inc("trace.write_trace_csv"),
        "trace.trace_csv_mb": trace_csv.stat().st_size / 1e6 if trace_csv.exists() else 0.0,
        "trace.write_json_s": inc("trace.write_summary_json") + inc("trace.write_violations_json"),
        "cli.rows": rows,
        "cli.self_s": slf("cli.cmd_run") + slf("cli.cmd_sweep"),
    }


def peak_rss_kib() -> int:
    """VmHWM of this process image.  ``ru_maxrss`` would do on a fresh
    process but also counts the parent's memory, which Linux carries into
    the child's maximum when it forks and executes the worker."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def fresh_scenario_module():
    """``gcsim.scenario`` from a fresh import of the whole package, so
    nothing that gcsim keeps at module level survives from earlier calls."""
    for name in [m for m in sys.modules if m == "gcsim" or m.startswith("gcsim.")]:
        del sys.modules[name]
    return importlib.import_module("gcsim.scenario")


def replay_setup(probe, calls: list, reps: int) -> list[float]:
    """Time ``reps`` more rounds of the set-up calls the operation made.

    Each round calls a freshly imported gcsim with fresh copies of the
    recorded arguments, and follows an explicit probe, so even millisecond
    rounds have a speed reading next to them.  The import and the copies
    are not timed.
    """
    totals = []
    for _ in range(reps):
        scenario = fresh_scenario_module()
        round_calls = [(getattr(scenario, name), copy.deepcopy(args), copy.deepcopy(kwargs))
                       for name, args, kwargs in calls]
        probe.probe()
        t0 = time.perf_counter()
        for fn, args, kwargs in round_calls:
            fn(*args, **kwargs)
        totals.append(probe.reference_time(t0, time.perf_counter()))
    return totals


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import_gcsim()
    from gcsim import cli
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import ARRAY, PYTHON, SpeedProbe
    from tracer import Tracer

    probe = SpeedProbe(lambda: tracer.innermost() in ARRAY_SPANS)
    tracer = Tracer(probe.paused)
    runs: list = []
    setup_calls: list = []
    install(tracer, spec["trace"], runs, setup_calls)
    argv = spec["argv"]
    out_dir = Path(argv[argv.index("--out") + 1])

    probe.start()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    t1 = time.perf_counter()
    probe.probe()
    peak_rss_mb = peak_rss_kib() / 1024.0

    array_spans = [(a, b) for name, a, b, _ in tracer.spans if name in ARRAY_SPANS]

    def span_time(*names):
        return sum(probe.reference_time(a, b, array_spans)
                   for name, a, b, _ in tracer.spans if name in names)

    in_op_setup = span_time("scenario.load_document", "scenario.build_scenario")
    out = {
        "rc": rc,
        "speed_factor": probe.factor(PYTHON, t0, t1),
        "probes": sum(len(d) for d in probe.durations.values()),
        "wall_s": probe.reference_time(t0, t1, array_spans),
        "engine_s": span_time("engine.run"),
        "node_cycles": sum(r["n"] * r["cycles"] for r in runs),
        "peak_rss_mb": peak_rss_mb,
        "runs": runs,
    }
    if spec["trace"]:
        # aggregated per-event times carry no timestamps: scale them by the
        # operation's mean probe speed
        py, arr = probe.factor(PYTHON, t0, t1), probe.factor(ARRAY, t0, t1)
        layers = layer_metrics(tracer, runs, out_dir, len(runs))
        for k, v in layers.items():
            if layer_unit(k) == "s":
                layers[k] = v * (arr if k == "metrics.trace_oracles_s" else py)
        layers["engine.run_s"] = out["engine_s"]
        out["layers"] = layers
        out["spans"] = tracer.spans
        out["setup_s"] = in_op_setup
    else:
        reps = replay_setup(probe, setup_calls, spec["setup_reps"])
        out["setup_s"] = statistics.median([in_op_setup] + reps)
    probe.stop()
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: worker.py SPEC.json", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
