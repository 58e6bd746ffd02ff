"""Throughput ladder of the engine.

Runs ``engine.run`` on one document shape for n = 16, 32, 64, 128, 256 in
both metrics modes, and prints one line per run: node-cycles per second (n
times the cycles completed, over the best wall time of ``engine.run``;
building the scenario is not timed), the sample rows per cycle, the best
wall time and the violation count.  The shapes, 24 cycles each:

- ``template``: ``scenario_gen.random_template_doc``, two rate groups, so
  a cycle's evaluations fall on about a dozen instants;
- ``distinct``: ``scenario_gen.distinct_rate_doc``, every node at its own
  constant rate, so a cycle samples about 2n rows.  Its full-mode n = 256
  row takes tens of seconds per run; ``--max-n 128`` skips it.

    PYTHONPATH=src python tests/ladder.py [--shape distinct] [--max-n 64] [--repeats 3]

There is no timing gate: it fails only if a run raises.  pytest does not
collect it, since its name does not start with ``test_``.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from gcsim import engine
from gcsim import scenario as scen

sys.path.insert(0, str(Path(__file__).resolve().parent))
from scenario_gen import distinct_rate_doc, random_template_doc  # noqa: E402

SIZES = (16, 32, 64, 128, 256)
CYCLES = 24
SHAPES = {"template": random_template_doc, "distinct": distinct_rate_doc}


def timed_runs(sc, repeats: int) -> tuple[float, int, engine.RunResult]:
    """Best wall time of ``repeats`` runs, the sample rows of one run
    (counted where the engine reads the clocks, once per chunk) and the
    last result."""
    rows: list[int] = []
    sample = engine.sample_clocks
    engine.sample_clocks = lambda clocks, times: (rows.append(len(times)), sample(clocks, times))[1]
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = engine.run(sc)
            best = min(best, time.perf_counter() - t0)
    finally:
        engine.sample_clocks = sample
    return best, sum(rows) // repeats, res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="template", help="document shape (default %(default)s)")
    ap.add_argument("--max-n", type=int, default=SIZES[-1], help="largest n to run (default %(default)s)")
    ap.add_argument("--repeats", type=int, default=3, help="runs per row; the best is kept")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    for mode in ("full", "skew_only"):
        for n in (n for n in SIZES if n <= args.max_n):
            sc = scen.build_scenario(SHAPES[args.shape](n, CYCLES, mode))
            best, rows, res = timed_runs(sc, args.repeats)
            cycles = res.summary.cycles_completed
            print(
                f"{args.shape:8s} {mode:9s} n={n:4d} {n * cycles / best:9.0f} node-cycles/s "
                f"{rows / cycles:6.1f} rows/cycle ({best:.3f} s, {len(res.violations)} violations)",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
