"""Deterministic simulator for gradient clock synchronisation over
two-way measured links, with ground-truth oracles for every claimed
invariant and skew bound."""

from .clocks import FAST, OWN_RATE, HardwareClock, LogicalClock
from .engine import RunResult, Scenario, run, seeded_stream
from .gcs import GcsParams, NodeState
from .metrics import BoundReport
from .scenario import build_scenario, load_scenario, static_report
from .topology import EdgeParams, NetworkGraph, edge_kappa, kappa_weights
from .trace import RunSummary, Trace, Violation

__version__ = "0.1.0"

__all__ = [
    "EdgeParams",
    "NetworkGraph",
    "edge_kappa",
    "kappa_weights",
    "HardwareClock",
    "LogicalClock",
    "OWN_RATE",
    "FAST",
    "GcsParams",
    "NodeState",
    "Scenario",
    "RunResult",
    "run",
    "seeded_stream",
    "BoundReport",
    "Trace",
    "RunSummary",
    "Violation",
    "load_scenario",
    "build_scenario",
    "static_report",
    "__version__",
]
