"""Per-node synchronisation state machine: parameters, node state, triggers.

Each cycle a node measures all neighbours, then evaluates two families of
estimate-based predicates over discrete skew levels.  The slow trigger
says the node is ahead of its neighbourhood and should coast; the fast
trigger says it is behind and should speed up by the correction factor.
The threshold scale is the per-edge error weight kappa; the fast trigger
additionally relaxes by the per-edge estimate error bound delta, because
estimates deliberately understate the neighbour's clock.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .clocks import LogicalClock
from .errors import InternalError
from .twoway import NeighborEstimate, estimate_value

__all__ = ["GcsParams", "NodeState", "estimate_gaps", "trigger_levels"]

MEASURING = "measuring"
STABILISING = "stabilising"


@dataclass(frozen=True)
class GcsParams:
    """Algorithm parameters shared by every node."""

    theta: float
    mu: float
    T: float
    T_stab: float
    s_max: int
    hysteresis: float = 0.0

    @property
    def cycle_length(self) -> float:
        return self.T + self.T_stab

    @property
    def sigma(self) -> float:
        """Correction-to-drift coefficient mu / (theta - 1)."""
        if self.theta == 1.0:
            return float("inf")
        return self.mu / (self.theta - 1.0)

    def validate(self) -> list[str]:
        problems = []
        if self.theta < 1.0:
            problems.append(f"theta must be >= 1, got {self.theta!r}")
        if self.mu <= self.theta - 1.0:
            problems.append(
                f"mu must exceed theta - 1 so sigma > 1, got mu={self.mu!r}, theta={self.theta!r}"
            )
        if self.T <= 0:
            problems.append("T must be positive")
        if self.T_stab <= 0:
            problems.append("T_stab must be positive")
        if self.s_max < 1:
            problems.append("s_max must be at least 1")
        if self.hysteresis < 0:
            problems.append("hysteresis must be non-negative")
        return problems


@dataclass
class NodeState:
    """Everything one node owns: clock (its anchors are the node's mode
    timeline), phase and neighbour views."""

    id: int
    logical: LogicalClock
    phase: str = MEASURING
    cycle_index: int = 0
    views: dict[int, NeighborEstimate] = field(default_factory=dict)


def estimate_gaps(node: NodeState, neighbors, t: float) -> tuple[float, dict[int, float]]:
    """(own logical value, estimate value per neighbour) at time t."""
    l_v = node.logical.value(t)
    vals = {}
    for w in neighbors:
        view = node.views.get(w)
        if view is None:
            raise InternalError(f"node {node.id} missing view of neighbor {w}")
        vals[w] = estimate_value(view, l_v, cycle=node.cycle_index)
    return l_v, vals


def trigger_levels(
    node: NodeState,
    kappa: dict[int, float],
    delta: dict[int, float],
    t: float,
    s_max: int,
    hysteresis: float = 0.0,
    gaps: tuple[float, dict[int, float]] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Levels at which the slow / fast trigger fire, evaluated once.

    Slow at level s: some neighbour trails by >= (2s-1)*kappa (plus the
    hysteresis) and none leads by more than (2s-1)*kappa.  Fast at level
    s: some neighbour leads by more than 2s*kappa - delta (plus the
    hysteresis) and none trails by 2s*kappa + delta or more.

    ``gaps`` is :func:`estimate_gaps` at t over the same neighbours, for a
    caller that has computed it already.
    """
    l_v, est = gaps if gaps is not None else estimate_gaps(node, kappa.keys(), t)
    lead = {w: est[w] - l_v for w in est}  # positive: neighbour estimated ahead
    st, ft = [], []
    for s in range(1, s_max + 1):
        c = 2 * s - 1
        if any(-lead[x] >= c * kappa[x] + hysteresis for x in lead) and all(
            lead[y] <= c * kappa[y] for y in lead
        ):
            st.append(s)
        c = 2 * s
        if any(lead[x] > c * kappa[x] - delta[x] + hysteresis for x in lead) and all(
            -lead[y] < c * kappa[y] + delta[y] for y in lead
        ):
            ft.append(s)
    return tuple(st), tuple(ft)

