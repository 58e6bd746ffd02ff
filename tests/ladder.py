"""Throughput ladder of the engine.

Runs ``engine.run`` on one document shape for n = 16, 32, 64, 128, 256 in
both metrics modes, and prints one line per run: node-cycles per second (n
times the cycles completed, over the best wall time of ``engine.run``;
building the scenario is not timed), the sample rows and the evaluation
instants per cycle, the best wall time and the violation count.  The
shapes, 24 cycles each:

- ``template``: ``scenario_gen.random_template_doc``, two rate groups, so
  a cycle's evaluations fall on about 3 instants and it samples about 10
  rows;
- ``distinct``: ``scenario_gen.distinct_rate_doc``, every node at its own
  constant rate, so a cycle samples about 2n rows and evaluates on about
  n instants.  Its full-mode n = 256 row takes about 3.5 s per run on a
  2-core Xeon host; ``--max-n 128`` skips it;
- ``antiphase``: one row, ``scenario_gen.antiphase_line_doc(3,
  horizon_time=44440)``, where about one node evaluates per instant (small
  batches).

    PYTHONPATH=src python tests/ladder.py [--shape distinct] [--max-n 64] [--repeats 3]

With ``--against SRC`` it compares this tree with the gcsim package under
another checkout's ``SRC`` directory (its ``src``), on the same documents.
It runs ``ROUNDS`` rounds, each tree's whole ladder in one subprocess per
round, the two trees back to back and taking turns to go first, and prints
per row each tree's median node-cycles/s and the median over the rounds of
the per-round ratio, this tree over the other.  Alternating keeps the slow
drift of a shared host's speed out of the ratio:

    PYTHONPATH=src python tests/ladder.py --against ../parent/src --max-n 128

There is no timing gate: it fails only if a run raises.  pytest does not
collect it, since its name does not start with ``test_``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gcsim import engine
from gcsim import scenario as scen

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from scenario_gen import antiphase_line_doc, distinct_rate_doc, random_template_doc  # noqa: E402

SIZES = (16, 32, 64, 128, 256)
CYCLES = 24
ROUNDS = 6  # rounds per tree with --against
# each shape: its document for (n, cycles, metrics mode), and its sizes
SHAPES = {
    "template": (random_template_doc, SIZES),
    "distinct": (distinct_rate_doc, SIZES),
    "antiphase": (lambda n, cycles, mode: antiphase_line_doc(n, horizon_time=44440.0, metrics=mode), (3,)),
}


def timed_runs(sc, repeats: int) -> tuple[float, int, int, engine.RunResult]:
    """Best wall time of ``repeats`` runs, the sample rows of one run
    (counted where the engine reads the clocks, once per chunk), its
    evaluation instants (counted where the engine evaluates an instant's
    batch) and the last result.  Neither count is an engine counter, so
    ``summary.json`` stays as it is."""
    rows: list[int] = []
    instants = [0]
    sample, evaluate = engine.sample_clocks, engine._Simulation._on_evaluate

    def counted_evaluate(sim, t, batch):
        instants[0] += 1
        return evaluate(sim, t, batch)

    engine.sample_clocks = lambda clocks, times: (rows.append(len(times)), sample(clocks, times))[1]
    engine._Simulation._on_evaluate = counted_evaluate
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = engine.run(sc)
            best = min(best, time.perf_counter() - t0)
    finally:
        engine.sample_clocks, engine._Simulation._on_evaluate = sample, evaluate
    if not rows or not instants[0]:
        raise RuntimeError("no sample rows or evaluation instants counted: the engine no longer calls the hooks")
    return best, sum(rows) // repeats, instants[0] // repeats, res


def ladder(shape: str, max_n: int, repeats: int):
    """Yield one record per row of the ladder, as it is run."""
    make, sizes = SHAPES[shape]
    for mode in ("full", "skew_only"):
        for n in (n for n in sizes if n <= max_n):
            sc = scen.build_scenario(make(n, CYCLES, mode))
            best, rows, instants, res = timed_runs(sc, repeats)
            cycles = res.summary.cycles_completed
            yield {
                "row": f"{shape:9s} {mode:9s} n={n:4d}", "rate": n * cycles / best, "rows": rows / cycles,
                "instants": instants / cycles, "best": best, "violations": len(res.violations),
            }


def compare(shape: str, max_n: int, repeats: int, against: str) -> None:
    """Alternate subprocess rounds of this tree and of the gcsim package
    under ``against``, and print each row's medians and median per-round
    ratio."""
    # each round imports this module afresh, with the tree's gcsim, and
    # prints one JSON record per row
    code = "import json, sys, ladder\nfor r in ladder.ladder(sys.argv[1], *map(int, sys.argv[2:])): print(json.dumps(r))"
    argv = [sys.executable, "-c", code, shape, str(max_n), str(repeats)]
    rates: dict[str, dict[str, list]] = {}
    for i in range(ROUNDS):
        trees = (("this", HERE.parent / "src"), ("other", Path(against)))
        for tree, src in trees[:: 1 if i % 2 == 0 else -1]:
            env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src.resolve()), str(HERE))))
            out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
            for record in map(json.loads, out.splitlines()):
                rates.setdefault(record["row"], {"this": [], "other": []})[tree].append(record["rate"])
    for row, r in rates.items():
        ratio = statistics.median(a / b for a, b in zip(r["this"], r["other"]))
        print(
            f"{row} {statistics.median(r['this']):9.0f} vs {statistics.median(r['other']):9.0f} node-cycles/s, "
            f"median ratio {ratio:.3f} over {len(r['this'])} rounds",
            flush=True,
        )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="template", help="document shape (default %(default)s)")
    ap.add_argument("--max-n", type=int, default=SIZES[-1], help="largest n to run (default %(default)s)")
    ap.add_argument("--repeats", type=int, default=3, help="runs per row; the best is kept")
    ap.add_argument("--against", metavar="SRC", help="compare with the gcsim package under this directory")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.against is not None:
        if not (Path(args.against) / "gcsim").is_dir():
            ap.error(f"--against {args.against}: no gcsim package there")
        compare(args.shape, args.max_n, args.repeats, args.against)
        return 0
    for r in ladder(args.shape, args.max_n, args.repeats):
        print(
            f"{r['row']} {r['rate']:9.0f} node-cycles/s {r['rows']:6.1f} rows/cycle "
            f"{r['instants']:6.1f} instants/cycle ({r['best']:.3f} s, {r['violations']} violations)",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
