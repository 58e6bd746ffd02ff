"""Two-way measurement protocol and its delay/offset algebra.

One measurement is a four-timestamp Request/Reply exchange: the requester
records its logical send and receive times, the responder echoes its
arrival and reply-emission times.  From the four stamps the requester
recovers the mean path delay and the clock offset, then deducts a
conservative error term so the resulting neighbour estimate never exceeds
the neighbour's true logical value.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, ParameterError, StaleEstimateError

__all__ = [
    "RequestMsg",
    "ReplyMsg",
    "MeasurementRecord",
    "NeighborEstimate",
    "timeout_window",
    "handle_request",
    "compute_estimates",
    "estimate_value",
]

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class RequestMsg:
    sender: int
    l_v_t1: float


@dataclass(frozen=True)
class ReplyMsg:
    responder: int
    l_w_t2: float
    l_w_t3: float
    l_v_t1_echo: float


@dataclass(frozen=True)
class MeasurementRecord:
    """The completed five-tuple of one exchange, requester side."""

    neighbor: int
    l_v_t1: float
    l_w_t2: float
    l_w_t3: float
    l_v_t4: float
    completed_at_real: float


@dataclass(frozen=True)
class NeighborEstimate:
    """Delay/offset estimate for one neighbour, valid for one cycle."""

    neighbor: int
    d_avg: float
    offset: float
    estimate_deduction: float
    valid_cycle: int


def timeout_window(d_max: float, p_max: float, eps_m: float, theta: float) -> float:
    """Local-time budget for a round trip: (2*d_max + p_max + eps_m) * theta."""
    if min(d_max, p_max, eps_m) < 0:
        raise ParameterError("timeout window arguments must be non-negative")
    if theta < 1.0:
        raise ParameterError(f"theta must be >= 1, got {theta!r}")
    return (2.0 * d_max + p_max + eps_m) * theta


def handle_request(
    req: RequestMsg,
    responder: int,
    responder_clock_now: float,
    processing_delay: float,
) -> ReplyMsg:
    """Build the responder's reply.

    ``responder_clock_now`` is the responder's logical value at request
    arrival; ``processing_delay`` is the local time spent before the reply
    leaves, so the departure stamp is their sum.
    """
    if processing_delay < 0:
        raise ParameterError("processing delay must be non-negative")
    return ReplyMsg(
        responder=responder,
        l_w_t2=responder_clock_now,
        l_w_t3=responder_clock_now + processing_delay,
        l_v_t1_echo=req.l_v_t1,
    )


def compute_estimates(
    rec: MeasurementRecord, eps_d: float, eps_m: float, theta: float, valid_cycle: int = -1
) -> NeighborEstimate:
    """Turn a completed record into a delay/offset estimate for ``valid_cycle``
    (-1: not tied to a cycle).

    The mean delay is half of (local round trip minus remote processing
    time).  The offset averages the request-leg and reply-leg offsets,
    which cancels the symmetric part of the path delay.  The deduction
    term is what a later estimate query subtracts so the estimate
    underestimates the neighbour under worst-case asymmetry and drift.
    """
    t_v = rec.l_v_t4 - rec.l_v_t1
    t_w = rec.l_w_t3 - rec.l_w_t2
    d_avg = 0.5 * (t_v - t_w)
    if d_avg < -_NEG_TOL:
        raise InternalError(f"negative average delay {d_avg!r} from record {rec}")
    offset = 0.5 * ((rec.l_w_t2 - rec.l_v_t1) + (rec.l_w_t3 - rec.l_v_t4))
    deduction = d_avg * (eps_d + theta - 1.0) + eps_m
    return NeighborEstimate(
        neighbor=rec.neighbor,
        d_avg=d_avg,
        offset=offset,
        estimate_deduction=deduction,
        valid_cycle=valid_cycle,
    )


def estimate_value(est: NeighborEstimate, l_v_now: float, cycle: int | None = None) -> float:
    """Extrapolated neighbour clock estimate at the caller's current value."""
    if cycle is not None and est.valid_cycle >= 0 and cycle != est.valid_cycle:
        raise StaleEstimateError(
            f"estimate for neighbor {est.neighbor} is from cycle {est.valid_cycle}, "
            f"queried in cycle {cycle}"
        )
    return l_v_now + est.offset - est.estimate_deduction

