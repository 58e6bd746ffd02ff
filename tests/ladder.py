"""Throughput ladder of the engine.

Runs ``engine.run`` on ``scenario_gen.random_template_doc(n, 24, mode)``
for n = 16, 32, 64, 128, 256 in both metrics modes, and prints one line per
run: node-cycles per second (n times the cycles completed, over the best
wall time of ``engine.run``; building the scenario is not timed), the best
wall time and the violation count.

    PYTHONPATH=src python tests/ladder.py [--max-n 64] [--repeats 3]

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
from scenario_gen import random_template_doc  # noqa: E402

SIZES = (16, 32, 64, 128, 256)
CYCLES = 24


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=SIZES[-1], help="largest n to run (default %(default)s)")
    ap.add_argument("--repeats", type=int, default=3, help="runs per row; the best is kept")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    for mode in ("full", "skew_only"):
        for n in (n for n in SIZES if n <= args.max_n):
            sc = scen.build_scenario(random_template_doc(n, CYCLES, mode))
            best = float("inf")
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                res = engine.run(sc)
                best = min(best, time.perf_counter() - t0)
            node_cycles = n * res.summary.cycles_completed
            print(
                f"{mode:9s} n={n:4d} {node_cycles / best:9.0f} node-cycles/s "
                f"({best:.3f} s, {len(res.violations)} violations)",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
