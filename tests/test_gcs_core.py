import numpy as np
import pytest

from gcsim.clocks import HardwareClock, LogicalClock, RateSchedule
from gcsim.errors import InternalError
from gcsim.gcs import GcsParams, NodeState, trigger_levels
from gcsim.twoway import NeighborEstimate


def node_with_gaps(gaps: dict[int, float]) -> NodeState:
    """Node with identity clock whose estimate of neighbour x reads
    L_v + gaps[x] at any instant."""
    clock = LogicalClock(HardwareClock(0.0, RateSchedule((0.0,), (1.0,))), mu=0.1)
    views = {
        x: NeighborEstimate(x, d_avg=1.0, offset=g, estimate_deduction=0.0, valid_cycle=0)
        for x, g in gaps.items()
    }
    return NodeState(id=99, logical=clock, views=views)


def slow_levels(node, kappa, delta, t, s_max=1, hysteresis=0.0):
    return trigger_levels(node, kappa, delta, t, s_max, hysteresis)[0]


def fast_levels(node, kappa, delta, t, s_max=1, hysteresis=0.0):
    return trigger_levels(node, kappa, delta, t, s_max, hysteresis)[1]


class TestSlowTrigger:
    def test_fires_when_neighbour_trails(self):
        node = node_with_gaps({1: -1.5})
        assert 1 in slow_levels(node, {1: 1.0}, {1: 1.0}, t=10.0)

    def test_no_gap_no_trigger(self):
        node = node_with_gaps({1: 0.0, 2: 0.0})
        kappa = {1: 1.0, 2: 1.0}
        assert slow_levels(node, kappa, kappa, t=5.0, s_max=3) == ()

    def test_missing_view_is_internal_error(self):
        node = node_with_gaps({1: 0.0})
        with pytest.raises(InternalError):
            trigger_levels(node, {1: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0}, t=5.0, s_max=1)


class TestFastTrigger:
    def test_fires_past_relaxed_threshold(self):
        node = node_with_gaps({1: 1.9})
        assert 1 in fast_levels(node, {1: 1.0}, {1: 0.2}, t=0.0)

    def test_boundary_is_strict(self):
        node = node_with_gaps({1: 1.8})
        assert 1 not in fast_levels(node, {1: 1.0}, {1: 0.2}, t=0.0)

    def test_blocked_by_far_trailing_neighbour(self):
        node = node_with_gaps({1: 1.9, 2: -2.3})
        assert 1 not in fast_levels(node, {1: 1.0, 2: 1.0}, {1: 0.2, 2: 0.2}, t=0.0)


class TestEvaluateMode:
    """The engine runs fast exactly when some fast level fires and no slow
    level does; otherwise the node keeps its own rate."""

    def test_all_zero_offsets_default(self):
        node = node_with_gaps({1: 0.0, 2: 0.0})
        kappa = {1: 1.0, 2: 1.0}
        assert trigger_levels(node, kappa, kappa, t=0.0, s_max=3) == ((), ())

    def test_behind_only_neighbour_fast(self):
        node = node_with_gaps({1: 1.9})
        assert trigger_levels(node, {1: 1.0}, {1: 0.2}, t=0.0, s_max=2) == ((), (1,))

    def test_ahead_own_rate(self):
        node = node_with_gaps({1: -1.5})
        assert trigger_levels(node, {1: 1.0}, {1: 1.0}, t=0.0, s_max=2) == ((1,), ())


def brute_force_levels(gaps, kappa, delta, s_max, hysteresis=0.0):
    st, ft = [], []
    for s in range(1, s_max + 1):
        c = 2 * s - 1
        st1 = any(-gaps[x] >= c * kappa[x] + hysteresis for x in gaps)
        st2 = all(gaps[y] <= c * kappa[y] for y in gaps)
        if st1 and st2:
            st.append(s)
        c = 2 * s
        ft1 = any(gaps[x] > c * kappa[x] - delta[x] + hysteresis for x in gaps)
        ft2 = all(-gaps[y] < c * kappa[y] + delta[y] for y in gaps)
        if ft1 and ft2:
            ft.append(s)
    return tuple(st), tuple(ft)


class TestAgainstBruteForce:
    def test_random_views_match_clause_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            deg = int(rng.integers(1, 5))
            gaps = {x: float(rng.uniform(-5, 5)) for x in range(1, deg + 1)}
            kappa = {x: float(rng.uniform(0.2, 2.0)) for x in gaps}
            delta = {x: kappa[x] for x in gaps}
            node = node_with_gaps(gaps)
            got = trigger_levels(node, kappa, delta, t=0.0, s_max=3)
            assert got == brute_force_levels(gaps, kappa, delta, 3)

    def test_triggers_never_co_fire_when_delta_is_kappa(self):
        # with the trigger slack equal to the edge weight, slow and fast
        # triggers are mutually exclusive for purely structural reasons
        rng = np.random.default_rng(23)
        for _ in range(500):
            deg = int(rng.integers(1, 6))
            gaps = {x: float(rng.uniform(-8, 8)) for x in range(deg)}
            kappa = {x: float(rng.uniform(0.1, 3.0)) for x in gaps}
            node = node_with_gaps(gaps)
            st, ft = trigger_levels(node, kappa, kappa, t=0.0, s_max=4)
            assert not (st and ft)

    def test_hysteresis_raises_both_existential_thresholds(self):
        gaps = {1: 1.9}
        node = node_with_gaps(gaps)
        assert 1 in fast_levels(node, {1: 1.0}, {1: 0.2}, t=0.0, hysteresis=0.0)
        assert 1 not in fast_levels(node, {1: 1.0}, {1: 0.2}, t=0.0, hysteresis=0.2)
        node = node_with_gaps({1: -1.5})
        assert 1 in slow_levels(node, {1: 1.0}, {1: 1.0}, t=0.0, hysteresis=0.4)
        assert 1 not in slow_levels(node, {1: 1.0}, {1: 1.0}, t=0.0, hysteresis=0.6)


class TestGcsParams:
    def test_valid(self):
        p = GcsParams(theta=1.001, mu=0.01, T=5.0, T_stab=2.0, s_max=2)
        assert p.validate() == []
        assert p.sigma == pytest.approx(10.0, rel=1e-12)
        assert p.cycle_length == 7.0

    def test_sigma_must_exceed_one(self):
        p = GcsParams(theta=1.01, mu=0.005, T=5.0, T_stab=2.0, s_max=2)
        assert any("sigma" in m for m in p.validate())

    def test_zero_drift_sigma_is_infinite(self):
        p = GcsParams(theta=1.0, mu=0.01, T=5.0, T_stab=2.0, s_max=1)
        assert p.validate() == []
        assert p.sigma == float("inf")

    def test_bad_windows(self):
        assert GcsParams(1.001, 0.01, T=-1.0, T_stab=0.0, s_max=0).validate()
