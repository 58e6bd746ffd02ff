"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10

Runs ``perfbench/run.py`` untraced, for ``run_seconds`` from
BENCHMARK.json, once per (workload, seed), one after another.  It prints
every run's result line and, per workload and metric, the median, first
and third quartile (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median.  This is the command behind
the README's end-to-end tables.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, required=True)
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    for workload in WORKLOADS:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=str(HERE.parent),
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            results.append(json.loads(line))
            print(f"{workload} seed {seed}: {line}", flush=True)
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, first in results[0]["metrics"].items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            print(f"  {name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{100 * s['spread']:7.2f}%  {first['unit']}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
