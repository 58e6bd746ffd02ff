"""Throughput ladder of the engine.

Runs ``engine.run`` on one document shape for n = 16, 32, 64, 128, 256 in
both metrics modes, and prints one line per run: node-cycles per second (n
times the cycles completed, over the best wall time of ``engine.run``;
building the scenario is not timed), the sample rows and the evaluation
instants per cycle, the node events per heap entry (how much the shape's
wakeups and evaluations group into entries), the best wall time and the
violation count.  The shapes, 24 cycles each:

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
It runs ``--rounds`` rounds (default 8, the fewest a "no slower" claim
should rest on), each tree's whole ladder in one subprocess per round, the
two trees back to back and taking turns to go first, and prints per row
each tree's median node-cycles/s with its quartiles, the rounds this tree
was faster in, and the median over the rounds of the per-round ratio, this
tree over the other.  Alternating keeps the slow drift of a shared host's
speed out of the ratio:

    PYTHONPATH=src python tests/ladder.py --against ../parent/src --max-n 128 --rounds 8

There is no timing gate: it fails only if a run raises.  pytest does not
collect it, since its name does not start with ``test_``.
"""
from __future__ import annotations

import argparse
import heapq
import json
import os
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from gcsim import engine, metrics
from gcsim import scenario as scen

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from scenario_gen import antiphase_line_doc, distinct_rate_doc, random_template_doc  # noqa: E402

SIZES = (16, 32, 64, 128, 256)
CYCLES = 24
# each shape: its document for (n, cycles, metrics mode), and its sizes
SHAPES = {
    "template": (random_template_doc, SIZES),
    "distinct": (distinct_rate_doc, SIZES),
    "antiphase": (lambda n, cycles, mode: antiphase_line_doc(n, horizon_time=44440.0, metrics=mode), (3,)),
}


def timed_runs(sc, repeats: int, entries: bool) -> tuple[float, int, int, float, engine.RunResult]:
    """Best wall time of ``repeats`` runs, the sample rows of one run
    (counted where the engine reads the clocks, once per chunk), its
    evaluation instants (counted where the engine evaluates an instant's
    batch), its node events per heap entry (counted where the loop pops
    the entries, when ``entries``; else 0) and the last result.  No count
    is an engine counter, so ``summary.json`` stays as it is.  The pop
    count costs a call per entry, more for a tree with more entries, so
    ``compare`` leaves it out."""
    rows: list[int] = []
    instants = [0]
    held = [0, 0]  # node-event entries popped, and the node events they hold
    sample, evaluate = metrics.sample_clocks, engine._Simulation._on_evaluate

    def counted_pop(heap):
        entry = heapq.heappop(heap)
        if entry[2] in (engine.K_WAKEUP, engine.K_EVALUATE):
            held[0] += 1
            held[1] += len(entry[3])
        return entry

    def counted_evaluate(sim, t, batch):
        instants[0] += 1
        return evaluate(sim, t, batch)

    metrics.sample_clocks = lambda clocks, times: (rows.append(len(times)), sample(clocks, times))[1]
    engine._Simulation._on_evaluate = counted_evaluate
    if entries:
        engine.heapq = types.SimpleNamespace(heappush=heapq.heappush, heappop=counted_pop)
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = engine.run(sc)
            best = min(best, time.perf_counter() - t0)
    finally:
        metrics.sample_clocks, engine._Simulation._on_evaluate, engine.heapq = sample, evaluate, heapq
    if not rows or not instants[0] or entries and not held[0]:
        raise RuntimeError("no sample rows, evaluation instants or entries counted: the engine no longer calls the hooks")
    return best, sum(rows) // repeats, instants[0] // repeats, held[1] / held[0] if entries else 0.0, res


def ladder(shape: str, max_n: int, repeats: int, entries: bool = True):
    """Yield one record per row of the ladder, as it is run; with
    ``entries`` it counts the node events per heap entry."""
    make, sizes = SHAPES[shape]
    for mode in ("full", "skew_only"):
        for n in (n for n in sizes if n <= max_n):
            sc = scen.build_scenario(make(n, CYCLES, mode))
            best, rows, instants, per_entry, res = timed_runs(sc, repeats, entries)
            cycles = res.summary.cycles_completed
            yield {
                "row": f"{shape:9s} {mode:9s} n={n:4d}", "rate": n * cycles / best, "rows": rows / cycles,
                "instants": instants / cycles, "per_entry": per_entry, "best": best,
                "violations": len(res.violations),
            }


def quartiles(values: list) -> str:
    """The median of ``values`` with its lower and upper quartiles, as
    "median [q1-q3]" node-cycles/s."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{median:9.0f} [{q1:.0f}-{q3:.0f}]"


def compare(shape: str, max_n: int, repeats: int, against: str, rounds: int) -> None:
    """Alternate ``rounds`` subprocess rounds of this tree and of the gcsim
    package under ``against``, and print each row's medians with their
    quartiles, the rounds this tree won and the median per-round ratio."""
    # each round imports this module afresh, with the tree's gcsim, and
    # prints one JSON record per row
    code = "import json, sys, ladder\nfor r in ladder.ladder(sys.argv[1], *map(int, sys.argv[2:]), False): print(json.dumps(r))"
    argv = [sys.executable, "-c", code, shape, str(max_n), str(repeats)]
    rates: dict[str, dict[str, list]] = {}
    for i in range(rounds):
        trees = (("this", HERE.parent / "src"), ("other", Path(against)))
        for tree, src in trees[:: 1 if i % 2 == 0 else -1]:
            env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src.resolve()), str(HERE))))
            out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
            for record in map(json.loads, out.splitlines()):
                rates.setdefault(record["row"], {"this": [], "other": []})[tree].append(record["rate"])
    for row, r in rates.items():
        ratios = [a / b for a, b in zip(r["this"], r["other"])]
        wins = sum(ratio > 1 for ratio in ratios)
        print(
            f"{row} {quartiles(r['this'])} vs {quartiles(r['other'])} node-cycles/s, "
            f"faster in {wins}/{len(ratios)} rounds, median ratio {statistics.median(ratios):.3f}",
            flush=True,
        )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="template", help="document shape (default %(default)s)")
    ap.add_argument("--max-n", type=int, default=SIZES[-1], help="largest n to run (default %(default)s)")
    ap.add_argument("--repeats", type=int, default=3, help="runs per row; the best is kept")
    ap.add_argument("--against", metavar="SRC", help="compare with the gcsim package under this directory")
    ap.add_argument("--rounds", type=int, default=8, help="rounds per tree with --against (default %(default)s)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.against is not None:
        if not (Path(args.against) / "gcsim").is_dir():
            ap.error(f"--against {args.against}: no gcsim package there")
        compare(args.shape, args.max_n, args.repeats, args.against, args.rounds)
        return 0
    for r in ladder(args.shape, args.max_n, args.repeats):
        print(
            f"{r['row']} {r['rate']:9.0f} node-cycles/s {r['rows']:6.1f} rows/cycle "
            f"{r['instants']:6.1f} instants/cycle {r['per_entry']:5.1f} events/entry "
            f"({r['best']:.3f} s, {r['violations']} violations)",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
