"""gcsim benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  The benchmark writes the
workload's inputs from ``--seed`` into ``.perfbench_work/``, then runs the
same CLI operation again and again, each time in a fresh worker process,
until ``--seconds`` are used up (at least three rounds, two when traced).
Every output is checked against computations made apart from the program.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` (scenario
runs), ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced worker with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
WORKER_TIMEOUT_S = 170


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "node_cycles_per_s": "1/s", "peak_rss_mb": "MB"}


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        sys.path.insert(0, str(HERE))
        import checks
        from worker import layer_unit
        from workloads import make_inputs

        self.checks = checks
        self.layer_unit = layer_unit
        self.workload = workload
        self.work = work
        self.inputs = make_inputs(workload, seed, work / "inputs")
        self.bounds = [checks.static_bounds(doc) for doc in self.inputs["docs"]]
        self.digests: dict[str, str] | None = None
        self.trace_checked = False
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.op_index = 0

    def operation(self, traced: bool) -> dict | None:
        """Run the CLI operation once in a fresh worker and check its outputs.

        Returns the worker's result, or None when a scenario run failed, so
        that no timing of a failed operation enters a median.
        """
        out_dir = self.work / f"out{self.op_index}"
        spec = self.work / f"spec{self.op_index}.json"
        self.op_index += 1
        spec.write_text(json.dumps({
            "argv": self.inputs["argv"] + ["--out", str(out_dir)],
            "trace": traced,
            "setup_reps": self.inputs["setup_reps"],
        }), encoding="utf-8")
        # one thread per worker: numpy must not start a pool on the two shared cores
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", GCS_SIM_LOG="error")
        runs = len(self.bounds)
        self.attempted += runs
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec)],
                capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env, cwd=str(ROOT),
            )
        except subprocess.TimeoutExpired:
            self.failed += runs
            print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            self.failed += runs
            print(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"op {self.op_index - 1}{' traced' if traced else ''}: rc {res['rc']} wall_s {res['wall_s']:.4f} "
              f"setup_s {res['setup_s']:.5f} engine_s {res['engine_s']:.4f} "
              f"peak_rss_mb {res['peak_rss_mb']:.1f} speed_factor {res['speed_factor']:.3f} "
              f"probes {res['probes']}", flush=True)
        try:
            failed = self._check(res, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"outputs could not be checked: {exc!r}")
            failed = 0
            res = None
        shutil.rmtree(out_dir, ignore_errors=True)
        self.failed += failed
        return res if failed == 0 else None

    def _check(self, res: dict, out_dir: Path) -> int:
        """Check one operation's outputs; return how many scenario runs failed."""
        c = self.checks
        if res["rc"] != 0:
            print(f"gcsim {self.inputs['kind']} exited {res['rc']}", file=sys.stderr)
            return len(self.bounds)
        if self.inputs["kind"] == "run":
            full = self.workload == "run_grid4x4" and not self.trace_checked
            self.problems += c.check_run(out_dir, self.bounds[0], full_trace=full)
            self.trace_checked = self.trace_checked or full
            files = ["summary.json", "violations.json"]
            if self.workload == "run_grid4x4":
                files.append("trace.csv")
        else:
            if not (out_dir / "sweep.csv").is_file():
                print("gcsim sweep wrote no sweep.csv", file=sys.stderr)
                return len(self.bounds)
            rows = c.read_sweep(out_dir)
            bad = [row for row in rows if row["status"] != "ok" or row["violations"] != "0"]
            for row in bad:
                print(f"row n={row['n']}: {row['status']}, {row['violations']} violations",
                      file=sys.stderr)
            if bad:
                return len(bad)
            if len(rows) != len(self.bounds) or len(res["runs"]) != len(self.bounds):
                self.problems.append(f"sweep wrote {len(rows)} rows, ran {len(res['runs'])}")
                return 0
            for row, sb, run in zip(rows, self.bounds, res["runs"]):
                self.problems += c.check_sweep_row(row, sb, run["mode_changes"])
            files = ["sweep.csv"]
        digests = {f: c.file_digest(out_dir / f) for f in files}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(f for f in files if digests[f] != self.digests[f])
            self.problems.append(f"same-seed rerun changed {changed}")
        return 0


def end_to_end(results: list[dict]) -> dict:
    median = statistics.median
    return {
        "wall_s": median([r["wall_s"] for r in results]),
        "setup_s": median([r["setup_s"] for r in results]),
        "node_cycles_per_s": median([r["node_cycles"] / r["engine_s"] for r in results]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }


def per_layer(traced: list[dict], untraced: list[dict], layer_unit, problems: list[str]) -> dict:
    """Medians of traced times; counts, which must repeat exactly, as is."""
    layers = [r["layers"] for r in traced]
    out = {}
    for name in layers[0]:
        if layer_unit(name) == "count":
            values = {lay[name] for lay in layers}
            if len(values) != 1:
                problems.append(f"count {name} differs between traced runs: {sorted(values)}")
            out[name] = layers[0][name]
        else:
            out[name] = statistics.median([lay[name] for lay in layers])
    out["bench.trace_overhead"] = (
        statistics.median([r["wall_s"] for r in traced])
        / statistics.median([r["wall_s"] for r in untraced])
    )
    return out


def parse_args(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gcsim" / "cli.py").is_file():
        print(f"no gcsim sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work: Path) -> int:
    bench = Bench(args.workload, args.seed, work)
    traced: bool = bool(args.trace)
    start = time.perf_counter()
    untraced_res, traced_res = [], []
    rounds = 0
    while True:
        r0 = time.perf_counter()
        res = bench.operation(traced=False)
        if res is not None:
            untraced_res.append(res)
        if traced:
            res = bench.operation(traced=True)
            if res is not None:
                traced_res.append(res)
        rounds += 1
        now = time.perf_counter()
        # stop before a round that would end past --seconds
        if rounds >= (MIN_TRACED_ROUNDS if traced else MIN_ROUNDS) and (now - start) + (now - r0) > args.seconds:
            break

    values: dict = {}
    units: dict = {}
    if traced and traced_res and untraced_res:
        values = per_layer(traced_res, untraced_res, bench.layer_unit, bench.problems)
        units = {name: bench.layer_unit(name) for name in values}
        (WORK / f"spans-{args.workload}.json").write_text(
            json.dumps(traced_res[-1]["spans"]), encoding="utf-8")
    elif not traced and untraced_res:
        values, units = end_to_end(untraced_res), E2E_UNITS
    else:
        bench.problems.append("no operation completed without a failed scenario run")
    for p in bench.problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, val in values.items():
        print(f"{name:34s} {val!r}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
