import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import scenario as scen
from gcsim.clocks import FAST, OWN_RATE, HardwareClock, LogicalClock, read_clocks, sample_clocks
from gcsim.errors import InternalError, ParameterError, ScenarioValidationError

from reference import check_lipschitz, value_pair
from scenario_gen import UNIT_EDGE, line_doc

THETA = 1.02


def hw(initial=0.0, segments=((0.0, 1.0),)):
    return HardwareClock(initial, *zip(*segments))


class TestHardwareValue:
    def test_identity_clock(self):
        assert hw().value(5.0) == 5.0

    def test_constant_fast_rate(self):
        assert hw(segments=((0.0, 1.01),)).value(100.0) == pytest.approx(101.0, abs=1e-12)

    def test_piecewise_hand_integrated(self):
        c = hw(segments=((0.0, 1.0), (10.0, 1.01)))
        assert c.value(20.0) == pytest.approx(20.1, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            hw().value(-1.0)


class TestLogicalValue:
    def test_no_corrections_equals_hardware(self):
        c = LogicalClock(hw(segments=((0.0, 1.005),)), mu=0.1)
        for t in (0.0, 3.7, 40.0):
            assert c.value(t) == c.hardware.value(t)

    def test_fast_mode_multiplicative(self):
        c = LogicalClock(hw(), mu=0.1)
        c.set_mode(0.0, FAST)
        assert c.value(10.0) == pytest.approx(11.0, abs=1e-12)

    def test_mixed_fast_then_own(self):
        # 1.1 * 1.01 * 10 + 1.01 * 10 = 21.21 by direct integration
        c = LogicalClock(hw(segments=((0.0, 1.01),)), mu=0.1)
        c.set_mode(0.0, FAST)
        c.set_mode(10.0, OWN_RATE)
        assert c.value(20.0) == pytest.approx(21.21, abs=1e-12)


class TestSetMode:
    def test_fast_from_zero(self):
        c = LogicalClock(hw(), mu=0.05)
        c.set_mode(0.0, FAST)
        assert c.value(1.0) == pytest.approx(1.05, abs=1e-15)

    def test_idempotent_log(self):
        c = LogicalClock(hw(), mu=0.05)
        c.set_mode(1.0, OWN_RATE)
        c.set_mode(2.0, OWN_RATE)
        # neither call logged a change, so an earlier switch is still in order
        c.set_mode(0.5, FAST)
        with pytest.raises(InternalError):
            c.set_mode(0.2, OWN_RATE)

    def test_alternating_decades(self):
        c = LogicalClock(hw(), mu=0.1)
        for k in range(4):
            c.set_mode(10.0 * k, FAST if k % 2 == 0 else OWN_RATE)
        assert c.value(40.0) == pytest.approx(42.0, abs=1e-12)

    def test_past_values_unchanged(self):
        c = LogicalClock(hw(), mu=0.1)
        c.set_mode(5.0, FAST)
        before = c.value(3.0)
        c.set_mode(9.0, OWN_RATE)
        assert c.value(3.0) == before


class TestInvert:
    def test_identity(self):
        c = LogicalClock(hw(), mu=0.1)
        assert c.invert(7.0) == pytest.approx(7.0, abs=1e-15)

    def test_constant_drift(self):
        c = LogicalClock(hw(segments=((0.0, 1.01),)), mu=0.1)
        assert c.invert(20.2) == pytest.approx(20.0, abs=1e-12)

    def test_below_initial_rejected(self):
        c = LogicalClock(hw(initial=5.0), mu=0.1)
        with pytest.raises(ParameterError):
            c.invert(4.0)


class TestLipschitz:
    def test_identity(self):
        assert check_lipschitz(hw(), 1.0, 9.0, THETA)

    def test_max_rate_tight(self):
        assert check_lipschitz(hw(segments=((0.0, THETA),)), 0.0, 10.0, THETA)

    def test_sub_unit_rate_is_invalid(self):
        c = hw(segments=((0.0, 1.0), (5.0, 0.9)))
        assert not check_lipschitz(c, 4.0, 8.0, THETA)


# (starts, rates) of a rate schedule
schedule_strategy = st.lists(
    st.floats(min_value=1.0, max_value=THETA), min_size=1, max_size=8
).map(lambda rates: (tuple(float(i) * 3.0 for i in range(len(rates))), tuple(rates)))


class TestProperties:
    @given(schedule_strategy, st.floats(min_value=0.01, max_value=40.0),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_lipschitz_envelope(self, sched, t1, dt):
        c = HardwareClock(0.0, *sched)
        assert check_lipschitz(c, t1, t1 + dt, THETA, tol=1e-9)

    @given(schedule_strategy, st.lists(st.floats(min_value=0.0, max_value=50.0),
                                       min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_logical_strictly_increasing_and_inverse(self, sched, times):
        c = LogicalClock(HardwareClock(1.0, *sched), mu=0.07)
        for i, t in enumerate(sorted(set(times))):
            c.set_mode(t, FAST if i % 2 == 0 else OWN_RATE)
        samples = np.linspace(0.0, 60.0, 25)
        vals = [c.value(float(t)) for t in samples]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for x in vals:
            assert abs(c.value(c.invert(x)) - x) <= 1e-12

    @given(schedule_strategy, st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_corrections_only_speed_up(self, sched, t_switch):
        c = LogicalClock(HardwareClock(0.0, *sched), mu=0.05)
        c.set_mode(t_switch, FAST)
        for t in (t_switch + 0.5, t_switch + 10.0):
            assert c.value(t) >= c.hardware.value(t) - 1e-12


def reference_samples(clocks, times):
    """(L, H) from the scalar reference, one clock and one instant at a time."""
    pairs = [[value_pair(c, float(t)) for c in clocks] for t in times]
    return np.array([[p[0] for p in row] for row in pairs]), np.array([[p[1] for p in row] for row in pairs])


def assert_matches_reference(clocks, times):
    times = np.asarray(times, dtype=float)
    L, H = sample_clocks(clocks, times)
    ref_L, ref_H = reference_samples(clocks, times)
    assert np.array_equal(L, ref_L)
    assert np.array_equal(H, ref_H)


def assert_reads_match_reference(clocks, times, cols):
    """``read_clocks`` equals the scalar reference, one (instant, clock) at a time."""
    times, cols = np.asarray(times, dtype=float), np.asarray(cols, dtype=np.intp)
    expect = [value_pair(clocks[k], t)[0] for t, k in zip(times.tolist(), cols.tolist())]
    assert np.array_equal(read_clocks(clocks, times, cols), np.array(expect, dtype=float))


def mixed_clocks():
    """Clocks that, between t = 2 and t = 6, cover each evaluation path."""
    steady = LogicalClock(hw(0.3, ((0.0, 1.013),)), mu=0.1)
    fast = LogicalClock(hw(0.1, ((0.0, 1.007),)), mu=0.1)
    fast.set_mode(1.0, FAST)
    hw_break = LogicalClock(hw(0.2, ((0.0, 1.0), (4.0, 1.02))), mu=0.1)
    switching = LogicalClock(hw(0.0, ((0.0, 1.011), (3.0, 1.004))), mu=0.1)
    switching.set_mode(2.5, FAST)
    switching.set_mode(5.0, OWN_RATE)
    return [steady, fast, hw_break, switching]


class TestSampleClocks:
    """The chunk evaluator equals the scalar formula bit for bit."""

    @pytest.mark.parametrize("times", [
        [3.7],  # one row
        [4.0],  # one row on a hardware breakpoint
        [2.5, 2.6],  # starting on a mode change
        [2.0, 2.25, 2.5, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0],  # every breakpoint inside
        [0.0, 0.5, 1.0],  # from t = 0 up to an anchor
        [5.0, 5.0000001, 7.0],
        [6.5, 7.25, 100.0],  # no breakpoint inside: one broadcast
    ])
    def test_matches_scalar_reference(self, times):
        assert_matches_reference(mixed_clocks(), times)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            sample_clocks(mixed_clocks(), np.array([-1.0, 2.0]))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_clocks_match_scalar_reference(self, data):
        clocks, kinks = [], [0.0]
        for _ in range(data.draw(st.integers(1, 5))):
            sched = data.draw(schedule_strategy)
            c = LogicalClock(
                HardwareClock(data.draw(st.floats(0.0, 5.0)), *sched),
                mu=data.draw(st.floats(0.01, 0.5)),
            )
            switches = sorted(set(data.draw(st.lists(st.floats(0.0, 30.0), max_size=5))))
            for k, t in enumerate(switches):
                c.set_mode(t, FAST if k % 2 == 0 else OWN_RATE)
            clocks.append(c)
            kinks += list(sched[0]) + switches
        instants = st.one_of(st.floats(0.0, 40.0), st.sampled_from(kinks))
        times = sorted(set(data.draw(st.lists(instants, min_size=1, max_size=12))))
        assert_matches_reference(clocks, times)
        reads = data.draw(st.lists(st.tuples(instants, st.integers(0, len(clocks) - 1)), min_size=1, max_size=12))
        assert_reads_match_reference(clocks, *zip(*reads))


class TestReadClocks:
    """The per-read evaluator equals the scalar formula bit for bit."""

    @pytest.mark.parametrize("times, cols", [
        ([5.5, 2.0, 4.0, 3.1, 2.6, 0.5], [3, 0, 2, 1, 3, 1]),  # unsorted, across every breakpoint
        ([2.0, 3.0, 4.5, 6.0, 3.0], [2, 2, 2, 2, 2]),  # one column, read again and again
        ([3.7], [3]),  # one read
        ([6.5, 7.25, 100.0], [0, 3, 0]),  # no breakpoint inside: one broadcast
        ([2.0, 6.0, 4.0], [0, 1, 0]),  # clocks 2 and 3 bend in [2, 6] but are not read
        ([], []),
    ])
    def test_matches_scalar_reference(self, times, cols):
        assert_reads_match_reference(mixed_clocks(), times, cols)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            read_clocks(mixed_clocks(), np.array([2.0, -1.0]), np.array([0, 1]))


def hardware_of(*specs, horizon_time=30.0, seed=None):
    """The hardware clocks that ``build_scenario`` makes of ``specs``, one
    per node of a line (with a constant clock added to a single spec), at
    theta = THETA and with ``seed`` as ``--seed``.  Each rate schedule has
    breakpoints up to the horizon plus one cycle of 5.0."""
    nodes = list(specs) + [{"generator": "constant"}] * (len(specs) < 2)
    doc = line_doc(
        len(nodes), UNIT_EDGE, {"theta": THETA, "mu": 0.1, "nodes": nodes},
        {"T": 3.5, "T_stab": 1.5}, {"horizon_time": horizon_time, "sample_dt": 1.0, "master_seed": 0},
    )
    return scen.build_scenario(doc, seed_override=seed).hardware[: len(specs)]


WALK = {"generator": "random_walk", "dwell": 5.0, "step": 0.01}


class TestGenerators:
    def test_constant(self):
        (c,) = hardware_of({"generator": "constant", "rate": 1.01})
        assert (c.starts, c.rates) == ((0.0,), (1.01,))

    def test_alternating_flips(self):
        (c,) = hardware_of({"generator": "alternating", "dwell": 10.0, "start_high": True})
        assert c.rates == (THETA, 1.0, THETA, 1.0)

    def test_random_walk_bounded_and_seeded(self):
        a, b = hardware_of(WALK, WALK, horizon_time=195.0)
        assert len(a.rates) == 41 and all(1.0 <= r <= THETA for r in a.rates)
        assert a.rates != b.rates  # each node draws from a stream of its own
        assert hardware_of(WALK, WALK, horizon_time=195.0)[0].rates == a.rates
        assert hardware_of(WALK, WALK, horizon_time=195.0, seed=1)[0].rates != a.rates
        # a spec's own seed replaces the master seed, and --seed with it
        own = {**WALK, "seed": 3}
        assert hardware_of(own, horizon_time=195.0, seed=1)[0].rates == hardware_of(
            own, horizon_time=195.0, seed=2)[0].rates == hardware_of(WALK, horizon_time=195.0, seed=3)[0].rates

    def test_scripted(self):
        (c,) = hardware_of({"generator": "scripted", "segments": [[0.0, 1.0], [4.0, 1.02]]})
        assert (c.starts, c.rates) == ((0.0, 4.0), (1.0, 1.02))

    def test_unknown_generator(self):
        with pytest.raises(ScenarioValidationError, match="unknown generator 'brownian'"):
            hardware_of({"generator": "brownian"})
