"""The benchmark's worker wraps gcsim entry points by name
(``perfbench/worker.py::install``); a renamed or deleted one breaks every
traced benchmark run, and a call that bypasses the module attribute it
wraps goes untimed."""
import subprocess
import sys
from pathlib import Path

from gcsim import cli, metrics

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import worker
from tracer import Tracer
worker.import_gcsim()
worker.install(Tracer([0.0]), True, [], [])
"""


def test_worker_wraps_every_name_it_times():
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_full_run_calls_the_timed_oracle_functions_through_metrics(tmp_path, monkeypatch):
    # the worker times trace_oracles and build_bound_report by replacing the
    # metrics module's attributes; a caller that imported them by name into
    # another module would bypass the wrappers, and wall_s would move
    calls = dict.fromkeys(("trace_oracles", "build_bound_report"), 0)
    for name in calls:

        def counted(*args, _fn=getattr(metrics, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counted)
    assert cli.main(["run", "--scenario", "star6", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert calls["trace_oracles"] >= 1 and calls["build_bound_report"] == 1
