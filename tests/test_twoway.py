import numpy as np
import pytest

from gcsim.errors import ParameterError
from gcsim.twoway import timeout_window

from reference import (
    MeasurementRecord,
    NeighborEstimate,
    RequestMsg,
    StaleEstimateError,
    compute_estimates,
    estimate_value,
    handle_request,
)


class TestTimeoutWindow:
    def test_direct_arithmetic(self):
        assert timeout_window(10.0, 2.0, 0.1, 1.001) == pytest.approx(22.1221, abs=1e-12)

    def test_all_zero(self):
        assert timeout_window(0.0, 0.0, 0.0, 1.0) == 0.0

    def test_pure_round_trip(self):
        assert timeout_window(1.0, 0.0, 0.0, 1.0) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            timeout_window(-1.0, 0.0, 0.0, 1.0)


class TestHandleRequest:
    def test_arrival_plus_processing(self):
        reply = handle_request(RequestMsg(0, 100.0), 1, 110.0, 2.0)
        assert (reply.l_w_t2, reply.l_w_t3) == (110.0, 112.0)
        assert reply.l_v_t1_echo == 100.0
        assert reply.responder == 1

    def test_zero_processing(self):
        reply = handle_request(RequestMsg(0, 1.0), 1, 5.0, 0.0)
        assert reply.l_w_t2 == reply.l_w_t3

    def test_drifting_responder(self):
        # local elapsed over 2 real seconds at rate 1.01 is 2.02
        reply = handle_request(RequestMsg(0, 1.0), 1, 110.0, 1.01 * 2.0)
        assert reply.l_w_t3 - reply.l_w_t2 == pytest.approx(2.02, abs=1e-12)

    def test_negative_processing_rejected(self):
        with pytest.raises(ParameterError):
            handle_request(RequestMsg(0, 1.0), 1, 5.0, -0.1)


def record(t1, t2, t3, t4):
    return MeasurementRecord(1, t1, t2, t3, t4, completed_at_real=t4)


class TestComputeEstimates:
    def test_symmetric_no_offset(self):
        est = compute_estimates(record(100.0, 110.0, 112.0, 122.0), 0.0, 0.0, 1.0)
        assert est.d_avg == pytest.approx(10.0, abs=1e-15)
        assert est.offset == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_hand_traced(self):
        # fwd 10, bwd 14, true offset +5, zero drift: asymmetry error -2
        est = compute_estimates(record(100.0, 115.0, 117.0, 126.0), 0.0, 0.0, 1.0)
        assert est.d_avg == pytest.approx(12.0, abs=1e-15)
        assert est.offset == pytest.approx(3.0, abs=1e-15)

    def test_degenerate_all_processing(self):
        est = compute_estimates(record(100.0, 100.0, 110.0, 110.0), 0.0, 0.0, 1.0)
        assert est.d_avg == 0.0

    def test_deduction_formula(self):
        est = compute_estimates(record(0.0, 10.0, 10.0, 20.0), 0.01, 0.001, 1.001)
        assert est.estimate_deduction == pytest.approx(10.0 * 0.011 + 0.001, abs=1e-15)

    def test_valid_cycle(self):
        rec = record(100.0, 110.0, 112.0, 122.0)
        assert compute_estimates(rec, 0.0, 0.0, 1.0).valid_cycle == -1
        est = compute_estimates(rec, 0.0, 0.0, 1.0, valid_cycle=4)
        assert est.valid_cycle == 4
        assert estimate_value(est, 130.0, cycle=4) == 130.0
        with pytest.raises(StaleEstimateError):
            estimate_value(est, 130.0, cycle=5)


class TestEstimateValue:
    def test_perfect_knowledge(self):
        est = NeighborEstimate(1, 10.0, 0.0, 0.0, valid_cycle=0)
        assert estimate_value(est, 250.0, cycle=0) == 250.0

    def test_arithmetic(self):
        est = NeighborEstimate(1, 12.0, 3.0, 0.31, valid_cycle=4)
        assert estimate_value(est, 200.0, cycle=4) == pytest.approx(202.69, abs=1e-12)

    def test_stale_cycle_rejected(self):
        est = NeighborEstimate(1, 12.0, 3.0, 0.31, valid_cycle=4)
        with pytest.raises(StaleEstimateError):
            estimate_value(est, 200.0, cycle=5)


class TestExchangeAlgebra:
    """Synthesize exchanges over known zero-drift timelines and check what
    the algebra recovers."""

    def synth(self, offset, d_fwd, d_bwd, proc):
        # both clocks run at rate 1; responder reads requester time + offset
        t1 = 100.0
        t2 = t1 + d_fwd + offset
        t3 = t2 + proc
        t4 = (t3 - offset) + d_bwd
        return record(t1, t2, t3, t4)

    def test_delay_recovery_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = float(rng.uniform(0.1, 5.0))
            proc = float(rng.uniform(0.0, 1.0))
            off = float(rng.uniform(-3.0, 3.0))
            est = compute_estimates(self.synth(off, d, d, proc), 0.0, 0.0, 1.0)
            assert abs(est.d_avg - d) <= 1e-12
            assert abs(est.offset - off) <= 1e-12

    def test_offset_error_bounded_by_half_asymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d_fwd = float(rng.uniform(0.5, 3.0))
            d_bwd = float(rng.uniform(0.5, 3.0))
            off = float(rng.uniform(-2.0, 2.0))
            est = compute_estimates(self.synth(off, d_fwd, d_bwd, 0.3), 0.0, 0.0, 1.0)
            assert abs(est.offset - off) <= abs(d_fwd - d_bwd) / 2 + 1e-12
            assert abs(est.d_avg - (d_fwd + d_bwd) / 2) <= 1e-12

    def test_round_trip_sandwich(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d_fwd = float(rng.uniform(0.5, 3.0))
            d_bwd = float(rng.uniform(0.5, 3.0))
            rec = self.synth(float(rng.uniform(-1, 1)), d_fwd, d_bwd, 0.2)
            t_v = rec.l_v_t4 - rec.l_v_t1
            t_w = rec.l_w_t3 - rec.l_w_t2
            assert 2 * min(d_fwd, d_bwd) - 1e-12 <= t_v - t_w <= 2 * max(d_fwd, d_bwd) + 1e-12
