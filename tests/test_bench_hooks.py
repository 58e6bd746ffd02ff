"""The benchmark's worker wraps gcsim entry points by name
(``perfbench/worker.py::install``); a renamed or deleted one breaks every
traced benchmark run."""
import subprocess
import sys
from pathlib import Path

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
