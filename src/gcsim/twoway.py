"""Two-way measurement protocol and its delay/offset algebra.

One measurement is a four-timestamp request/reply exchange: the requester
records its logical send and receive times, the responder echoes its
arrival and reply-emission times.  From the four stamps the requester
recovers the mean path delay and the clock offset, then deducts a
conservative error term so the resulting neighbour estimate never exceeds
the neighbour's true logical value.

The algebra is in array form: every completed exchange of one instant is
one entry, and every entry is the float a scalar evaluation computes, since
numpy repeats each operation elementwise in the same order.
"""
from __future__ import annotations

import numpy as np

from .errors import InternalError, ParameterError

__all__ = ["timeout_window", "compute_estimates", "estimate_value"]

_NEG_TOL = 1e-12


def timeout_window(d_max: float, p_max: float, eps_m: float, theta: float) -> float:
    """Local-time budget for a round trip: (2*d_max + p_max + eps_m) * theta."""
    if min(d_max, p_max, eps_m) < 0:
        raise ParameterError("timeout window arguments must be non-negative")
    if theta < 1.0:
        raise ParameterError(f"theta must be >= 1, got {theta!r}")
    return (2.0 * d_max + p_max + eps_m) * theta


def compute_estimates(
    t1: np.ndarray,
    t2: np.ndarray,
    t3: np.ndarray,
    t4: np.ndarray,
    eps_d: np.ndarray,
    eps_m: np.ndarray,
    theta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean delay, offset, deduction) of each exchange from its stamps:
    the requester's send and receive times t1 and t4, the responder's
    arrival and reply-emission times t2 and t3, all local.

    The mean delay is half of (local round trip minus remote processing
    time).  The offset averages the request-leg and reply-leg offsets,
    which cancels the symmetric part of the path delay.  The deduction is
    what an estimate subtracts (see :func:`estimate_value`) so that it
    underestimates the neighbour under worst-case asymmetry and drift.
    """
    d_avg = 0.5 * ((t4 - t1) - (t3 - t2))
    if np.count_nonzero(d_avg < -_NEG_TOL):
        i = int(np.argmin(d_avg))
        raise InternalError(
            f"negative average delay {float(d_avg[i])!r} from stamps "
            f"{(float(t1[i]), float(t2[i]), float(t3[i]), float(t4[i]))}"
        )
    offset = 0.5 * ((t2 - t1) + (t3 - t4))
    deduction = d_avg * (eps_d + theta - 1.0) + eps_m
    return d_avg, offset, deduction


def estimate_value(offset: np.ndarray, deduction: np.ndarray, l_v_now: np.ndarray) -> np.ndarray:
    """Neighbour clock estimates extrapolated to the requester's current
    values ``l_v_now``."""
    return l_v_now + offset - deduction
