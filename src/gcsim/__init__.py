"""Deterministic simulator for gradient clock synchronisation over
two-way measured links, with ground-truth oracles for every claimed
invariant and skew bound."""

from .clocks import FAST, OWN_RATE, LogicalClock
from .engine import run
from .gcs import GcsParams
from .scenario import Scenario, build_scenario, load_scenario, static_report
from .topology import EdgeParams, NetworkGraph, edge_kappa, kappa_weights
from .trace import RunResult, RunSummary, Trace, Violation

__version__ = "0.1.0"

__all__ = [
    "EdgeParams",
    "NetworkGraph",
    "edge_kappa",
    "kappa_weights",
    "LogicalClock",
    "OWN_RATE",
    "FAST",
    "GcsParams",
    "Scenario",
    "RunResult",
    "run",
    "Trace",
    "RunSummary",
    "Violation",
    "load_scenario",
    "build_scenario",
    "static_report",
    "__version__",
]
