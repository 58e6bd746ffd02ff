import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import scenario as scen
from gcsim.clocks import FAST, OWN_RATE, HardwareClock, LogicalClock, read_clocks, sample_clocks
from gcsim.errors import InternalError, ParameterError, ScenarioValidationError

from reference import check_lipschitz, invert, value_pair
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


def reference_reads(clocks, times, cols):
    """(L, H) from the scalar reference, one (instant, clock) of the
    broadcast of ``times`` and ``cols`` at a time."""
    times, cols = np.broadcast_arrays(times, cols)
    pairs = [value_pair(clocks[k], t) for t, k in zip(times.ravel().tolist(), cols.ravel().tolist())]
    return tuple(np.array([p[i] for p in pairs], dtype=float).reshape(times.shape) for i in (0, 1))


def assert_reads_match_reference(clocks, times, cols):
    L, H = read_clocks(clocks, times, cols)
    ref_L, ref_H = reference_reads(clocks, times, cols)
    assert L.shape == ref_L.shape
    assert np.array_equal(L, ref_L)
    assert np.array_equal(H, ref_H)


def grid(times, n=4):
    """The read of ``sample_clocks``: each of n clocks at every instant."""
    return np.array(times, dtype=float)[:, None], np.arange(n)


def scattered(times, cols):
    """Clock ``cols[r]`` at instant ``times[r]``, for every r, the reads
    sorted by clock as ``read_clocks`` takes them."""
    times, cols = np.array(times, dtype=float), np.array(cols, dtype=np.intp)
    by_clock = np.argsort(cols, kind="stable")
    return times[by_clock], cols[by_clock]


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


class TestReadClocks:
    """The one array reader equals the scalar formula bit for bit, on the
    chunk grid and on scattered (instant, clock) reads."""

    @pytest.mark.parametrize("times, cols", [
        scattered([5.5, 2.0, 4.0, 3.1, 2.6, 0.5], [3, 0, 2, 1, 3, 1]),  # unsorted instants, every breakpoint
        scattered([2.0, 3.0, 4.5, 6.0, 3.0], [2, 2, 2, 2, 2]),  # one clock, read again and again
        scattered([3.7], [3]),  # one read
        scattered([6.5, 7.25, 100.0], [0, 3, 0]),  # no breakpoint inside: one broadcast
        scattered([2.0, 6.0, 4.0], [0, 1, 0]),  # clocks 2 and 3 bend in [2, 6] but are not read
        scattered([], []),
        grid([3.7]),  # one row
        grid([4.0]),  # one row on a hardware breakpoint
        grid([2.5, 2.6]),  # starting on a mode change
        grid([2.0, 2.25, 2.5, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0]),  # every breakpoint inside
        grid([0.0, 0.5, 1.0]),  # from t = 0 up to an anchor
        grid([5.0, 5.0000001, 7.0]),
        grid([6.5, 7.25, 100.0]),  # no breakpoint inside: one broadcast
        grid([]),
    ])
    def test_matches_scalar_reference(self, times, cols):
        assert_reads_match_reference(mixed_clocks(), times, cols)

    def test_negative_time_rejected(self):
        for times, cols in (grid([-1.0, 2.0]), scattered([2.0, -1.0], [0, 1])):
            with pytest.raises(ParameterError):
                read_clocks(mixed_clocks(), times, cols)

    def test_clocks_out_of_order_rejected(self):
        with pytest.raises(ParameterError, match="ascending"):
            read_clocks(mixed_clocks(), np.array([2.0, 3.0]), np.array([1, 0]))

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
        assert_reads_match_reference(clocks, *grid(times, len(clocks)))
        reads = data.draw(st.lists(st.tuples(instants, st.integers(0, len(clocks) - 1)), min_size=1, max_size=12))
        assert_reads_match_reference(clocks, *scattered(*zip(*reads)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bends_at_the_window_ends_match_scalar_reference(self, data):
        # The reader takes each clock's piece at the latest instant t1 and
        # falls back to value_pair when that piece began after the earliest,
        # t0.  Anchors and hardware breakpoints land exactly at t0, exactly
        # at t1 and after t1, as a reply read at a past instant meets them.
        t0 = data.draw(st.one_of(st.sampled_from([0.0, 1.0, 2.5, 3.0, 4.0, 5.0]), st.floats(0.0, 8.0)))
        t1 = t0 + data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
        bends = sorted({t0, t1, t1 + data.draw(st.floats(0.001, 3.0))})
        clocks = mixed_clocks()
        for c in clocks:
            for t in sorted(data.draw(st.sets(st.sampled_from(bends)))):
                if t >= c._times[-1]:
                    c.set_mode(t, OWN_RATE if c._modes[-1] == FAST else FAST)
        for breaks in data.draw(st.lists(st.sets(st.sampled_from([b for b in bends if b > 0]), min_size=1),
                                         max_size=3)):
            starts = (0.0, *sorted(breaks))
            rates = [1.0 + 0.006 * (k % 3) for k in range(len(starts))]
            clocks.append(LogicalClock(HardwareClock(0.2, starts, rates), mu=0.1))
        inside = st.floats(t0, t1)
        times = sorted({t0, t1, *data.draw(st.lists(inside, max_size=6))})
        assert_reads_match_reference(clocks, *grid(times, len(clocks)))
        clock = st.integers(0, len(clocks) - 1)
        reads = [(t0, data.draw(clock)), (t1, data.draw(clock))] + data.draw(st.lists(st.tuples(inside, clock)))
        assert_reads_match_reference(clocks, *scattered(*zip(*reads)))


class TestSampleClocks:
    """sample_clocks is the grid read of read_clocks."""

    def test_sample_clocks_is_the_grid_read(self):
        times = np.array([2.0, 3.0, 4.5, 6.0])
        L, H = sample_clocks(mixed_clocks(), times)
        ref_L, ref_H = reference_reads(mixed_clocks(), *grid(times))
        assert np.array_equal(L, ref_L)
        assert np.array_equal(H, ref_H)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            sample_clocks(mixed_clocks(), np.array([-1.0, 2.0]))


class TestCurrentPiece:
    """Reads and inverses on a clock's last anchor and last hardware
    segment skip the search, with the same float operations: they equal
    the searching forms of ``reference`` bit for bit, and so do all others."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_value_and_invert_match_the_search(self, data):
        for c in mixed_clocks():
            anchor, rate_change = c.mode_timeline[-1][0], c.hardware.starts[-1]
            piece = max(anchor, rate_change)  # where the current piece starts
            t = data.draw(st.sampled_from([anchor, rate_change]) | st.floats(piece, 1e6) | st.floats(0.0, piece))
            assert c.value(t) == value_pair(c, t)[0]
            edges = [c._values[-1], c.value(anchor), c.value(rate_change), c.value(t)]
            target = data.draw(st.sampled_from(edges) | st.floats(c.value(piece), 1e6) | st.floats(c._values[0], 1e6))
            assert c.invert(target) == invert(c, target)


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
