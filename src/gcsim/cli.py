"""Command-line front end: run, check, sweep.

Exit codes: 0 clean run, 2 parse or usage error, 3 validation failure, 4 runtime
invariant violations (the run completed but recorded violations, or was
aborted by a hard integrity failure or another engine error).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import logging
import os
import sys

from . import engine, scenario as scen
from .errors import GcsSimError, ScenarioParseError, ScenarioValidationError
from .trace import Violation, write_summary_json, write_trace_csv, write_violations_json

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

_SWEEP_PARAMS = ("theta", "mu", "eps_d", "eps_m", "jitter", "n")


def _setup_logging() -> None:
    level = os.environ.get("GCS_SIM_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(name)s: %(message)s")


def _fail(exc: GcsSimError) -> int:
    """Report an error on stderr and return its exit code."""
    if isinstance(exc, ScenarioParseError):
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if isinstance(exc, ScenarioValidationError):
        for p in exc.problems:
            print(f"validation: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"run aborted: {exc}", file=sys.stderr)
    return EXIT_RUNTIME


_INPUT_ERRORS = (ScenarioParseError, ScenarioValidationError)


def _out_error(path: str, exc: OSError) -> int:
    """Report that ``--out path`` could not be created or written; a usage error."""
    where = f"{exc.filename}: " if exc.filename not in (None, path) else ""
    print(f"usage error: --out {path}: {where}{exc.strerror or exc}", file=sys.stderr)
    return EXIT_PARSE


def _make_out_dir(path: str) -> int | None:
    """Create the output directory; where that fails, a usage error's exit code."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        return _out_error(path, exc)


def cmd_run(args) -> int:
    try:
        sc = scen.load_scenario(args.scenario, seed_override=args.seed)
    except _INPUT_ERRORS as exc:
        return _fail(exc)
    if (rc := _make_out_dir(args.out)) is not None:
        return rc
    try:
        result = engine.run(sc)
    except GcsSimError as exc:  # RunAborted carries the violations found before the abort
        aborted = Violation(time=None, kind="aborted", detail=str(exc))
        try:
            write_violations_json([*getattr(exc, "violations", ()), aborted], os.path.join(args.out, "violations.json"))
        except OSError as err:
            return _out_error(args.out, err)
        return _fail(exc)
    try:  # the small reports first, so that a failing trace.csv leaves them
        write_summary_json(result.summary, os.path.join(args.out, "summary.json"))
        write_violations_json(result.violations, os.path.join(args.out, "violations.json"))
        write_trace_csv(result.trace, os.path.join(args.out, "trace.csv"))
    except OSError as exc:
        return _out_error(args.out, exc)
    logger.info("run finished in %.3fs with %d violations",
                result.summary.wall_time_s, len(result.violations))
    if result.violations:
        print(f"{len(result.violations)} violations recorded", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        sc = scen.load_scenario(args.scenario)
        report = scen.static_report(sc)
    except _INPUT_ERRORS as exc:
        return _fail(exc)
    print(f"sigma              {report['sigma']!r}")
    print(f"s_max              {report['s_max']}")
    print(f"timeout_window     {report['timeout_window']!r}")
    print(f"kappa_diameter     {report['kappa_diameter']!r}")
    print(f"local_bound        {report['local_bound']!r}")
    print(f"global_bound       {report['global_bound']!r}")
    print("kappa per edge:")
    for rec in report["kappa_per_edge"]:
        print(f"  ({rec['u']},{rec['v']})  {rec['kappa']!r}")
    return EXIT_OK


def _grid_points(doc: dict, grid: dict) -> tuple[list[str], list[dict]]:
    """Sorted grid axes and every grid point, once the grid and the base
    document's sections are known to be well formed."""
    problems = scen.section_problems(doc)
    bad = [k for k in grid if k not in _SWEEP_PARAMS]
    if bad:
        problems.append(f"unsupported sweep parameters {bad}")
    problems += [f"grid.{k}: must be a non-empty list of values"
                 for k, vals in grid.items() if not (isinstance(vals, list) and vals)]
    if problems:
        raise ScenarioValidationError(problems)
    keys = sorted(grid)
    return keys, [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def _apply_overrides(doc: dict, overrides: dict) -> dict:
    """A copy of ``doc`` with one grid point applied; a field the point
    cannot reach is left for validation to report."""
    doc = json.loads(json.dumps(doc))
    graph = doc["graph"]
    tpl = graph.get("template")
    for key, val in overrides.items():
        if key in ("theta", "mu"):
            doc["clocks"][key] = val
        elif key == "n":
            if not isinstance(tpl, dict):
                raise ScenarioValidationError(
                    ["sweep over n requires a template-based graph section"]
                )
            # overrides of the base graph's nodes that this graph lacks are
            # dropped; validation rejects any other key that names no node
            base, over = tpl.get("n"), doc["clocks"].get("overrides")
            tpl["n"] = val
            if isinstance(over, dict) and all(isinstance(x, int) for x in (base, val)):
                for i in range(val, min(base, scen._MAX_NODES)):
                    over.pop(str(i), None)
        else:  # eps_d, eps_m, jitter
            recs = [tpl.setdefault("edge", {})] if isinstance(tpl, dict) else graph.get("edges")
            for rec in recs if isinstance(recs, list) else []:
                if isinstance(rec, dict):
                    rec[key] = val
    return doc


def _sweep_row(doc: dict, overrides: dict, seed: int) -> dict:
    row = {**overrides, "seed": seed}
    try:
        sc = scen.build_scenario(_apply_overrides(doc, overrides), seed_override=seed)
        result = engine.run(sc)
    except GcsSimError as exc:
        row["status"] = f"error: {exc}"
        return row
    report = result.summary.bound_report
    max_ratio = max(
        sc.kappa[(u, v)] / p.max_delay_bound for u, v, p in sc.graph.edges
    )
    row.update(
        status="ok",
        cycles=result.summary.cycles_completed,
        max_local=report["max_observed_local"],
        max_global=report["max_observed_global"],
        local_bound=report["local_bound"],
        global_bound=report["global_bound"],
        slack_local=report["local_bound"] - report["max_observed_local"],
        slack_global=report["global_bound"] - report["max_observed_global"],
        delta_over_d=max_ratio,
        violations=result.summary.violation_count,
    )
    return row


def cmd_sweep(args) -> int:
    try:
        doc = scen.load_document(args.scenario)
        keys, points = _grid_points(doc, scen.load_document(args.grid))
    except _INPUT_ERRORS as exc:
        return _fail(exc)
    if (rc := _make_out_dir(args.out)) is not None:
        return rc
    seeds = list(range(args.seeds))
    jobs = [(pt, seed) for pt in points for seed in seeds]

    rows = []
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = [pool.submit(_sweep_row, doc, pt, seed) for pt, seed in jobs]
            rows = [f.result() for f in futures]
    else:
        rows = [_sweep_row(doc, pt, seed) for pt, seed in jobs]

    cols = keys + [
        "seed", "status", "cycles", "max_local", "max_global", "local_bound",
        "global_bound", "slack_local", "slack_global", "delta_over_d", "violations",
    ]
    out_path = os.path.join(args.out, "sweep.csv")
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(row.get(c, "")) for c in cols) + "\n")
    except OSError as exc:
        return _out_error(args.out, exc)
    print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    s = str(v)
    return '"' + s.replace('"', '""') + '"' if ("," in s or '"' in s) else s


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """A seed in [0, 2^64), as ``sim.master_seed`` must be."""
    value = _int_arg(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {value}")
    return value


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="gcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write reports")
    p_run.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p_run.add_argument("--seed", type=_seed, default=None, help="override the master seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="print static bounds without simulating")
    p_check.add_argument("--scenario", required=True)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and aggregate results")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--grid", required=True, help="JSON file mapping parameter -> values")
    p_sweep.add_argument("--seeds", type=_positive_int, default=1)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--workers", type=_positive_int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
