from bisect import bisect_right
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsim import scenario as scen
from gcsim.clocks import FAST, OWN_RATE, ClockTable, LogicalClock, read_clocks, sample_clocks
from gcsim.errors import InternalError, ParameterError, ScenarioValidationError

from reference import HardwareClock, anchors, check_lipschitz, invert, value_pair
from scenario_gen import UNIT_EDGE, line_doc

THETA = 1.02


def schedule(initial=0.0, segments=((0.0, 1.0),)):
    """(initial value, starts, rates): the rate schedule of ``segments``,
    its (start, rate) pairs, as validation hands it to a clock table."""
    return (initial, *zip(*segments))


def shared(hardware, mus):
    """Logical clocks over the rate schedules ``hardware``, clock c with the
    correction rate ``mus[c]``, in one anchor table."""
    table = ClockTable(hardware)
    return [LogicalClock(table, c, mu) for c, mu in enumerate(mus)]


def clock(initial=0.0, segments=((0.0, 1.0),), mu=0.1):
    """The one logical clock of a table."""
    return shared([schedule(initial, segments)], [mu])[0]


def hw(initial=0.0, segments=((0.0, 1.0),)):
    """The hardware reading of the one clock of a table, a function of t."""
    return partial(ClockTable([schedule(initial, segments)]).hw_value, 0)


def timeline(c):
    """(time, mode) of each anchor of ``c``: (0.0, OWN_RATE), then every
    mode change."""
    return c.table.mode_timelines()[c.index]


class TestHardwareValue:
    def test_identity_clock(self):
        assert hw()(5.0) == 5.0

    def test_constant_fast_rate(self):
        assert hw(segments=((0.0, 1.01),))(100.0) == pytest.approx(101.0, abs=1e-12)

    def test_piecewise_hand_integrated(self):
        value = hw(segments=((0.0, 1.0), (10.0, 1.01)))
        assert value(20.0) == pytest.approx(20.1, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            hw()(-1.0)


class TestLogicalValue:
    def test_no_corrections_equals_hardware(self):
        c = clock(segments=((0.0, 1.005),))
        for t in (0.0, 3.7, 40.0):
            assert c.value(t) == c.table.hw_value(0, t)

    def test_fast_mode_multiplicative(self):
        c = clock()
        c.set_mode(0.0, FAST)
        assert c.value(10.0) == pytest.approx(11.0, abs=1e-12)

    def test_mixed_fast_then_own(self):
        # 1.1 * 1.01 * 10 + 1.01 * 10 = 21.21 by direct integration
        c = clock(segments=((0.0, 1.01),))
        c.set_mode(0.0, FAST)
        c.set_mode(10.0, OWN_RATE)
        assert c.value(20.0) == pytest.approx(21.21, abs=1e-12)


class TestSetMode:
    def test_fast_from_zero(self):
        c = clock(mu=0.05)
        c.set_mode(0.0, FAST)
        assert c.value(1.0) == pytest.approx(1.05, abs=1e-15)

    def test_idempotent_log(self):
        c = clock(mu=0.05)
        c.set_mode(1.0, OWN_RATE)
        c.set_mode(2.0, OWN_RATE)
        # neither call logged a change, so an earlier switch is still in order
        c.set_mode(0.5, FAST)
        with pytest.raises(InternalError):
            c.set_mode(0.2, OWN_RATE)

    def test_alternating_decades(self):
        c = clock()
        for k in range(4):
            c.set_mode(10.0 * k, FAST if k % 2 == 0 else OWN_RATE)
        assert c.value(40.0) == pytest.approx(42.0, abs=1e-12)

    def test_past_values_unchanged(self):
        c = clock()
        c.set_mode(5.0, FAST)
        before = c.value(3.0)
        c.set_mode(9.0, OWN_RATE)
        assert c.value(3.0) == before

    def test_change_before_the_last_one_rejected(self):
        c = clock()
        c.set_mode(5.0, FAST)
        c.set_mode(5.0 - 1e-13, OWN_RATE)  # before the last change, but within the tolerance: taken at it
        with pytest.raises(InternalError) as exc:
            c.set_mode(4.0, FAST)
        assert str(exc.value) == "mode change at t=4.0 precedes last change at 5.0"

    def test_change_within_the_tolerance_keeps_the_anchors_in_order(self):
        c = clock()
        c.set_mode(5.0, FAST)
        at_five = c.value(5.0)
        c.set_mode(5.0 - 1e-13, OWN_RATE)
        assert timeline(c) == [(0.0, OWN_RATE), (5.0, FAST), (5.0, OWN_RATE)]
        assert anchors(c)[0] == [0.0, 5.0, 5.0]
        assert c.value(5.0) == at_five
        assert c.value(7.0) == at_five + 2.0
        assert c.value(4.0) == 4.0
        L, H = c.value_pair(np.array([4.0, 5.0, 7.0]))
        assert L.tolist() == [4.0, at_five, at_five + 2.0] and H.tolist() == [4.0, 5.0, 7.0]

    def test_unknown_mode_rejected(self):
        c = clock()
        with pytest.raises(ParameterError) as exc:
            c.set_mode(1.0, 2)
        assert str(exc.value) == "unknown mode 2"
        assert timeline(c) == [(0.0, OWN_RATE)]


class TestInvert:
    def test_identity(self):
        c = clock()
        assert c.invert(7.0) == pytest.approx(7.0, abs=1e-15)

    def test_constant_drift(self):
        c = clock(segments=((0.0, 1.01),))
        assert c.invert(20.2) == pytest.approx(20.0, abs=1e-12)

    def test_below_initial_rejected(self):
        c = clock(initial=5.0)
        with pytest.raises(ParameterError):
            c.invert(4.0)


class TestLipschitz:
    def test_identity(self):
        assert check_lipschitz(hw(), 1.0, 9.0, THETA)

    def test_max_rate_tight(self):
        assert check_lipschitz(hw(segments=((0.0, THETA),)), 0.0, 10.0, THETA)

    def test_sub_unit_rate_is_invalid(self):
        assert not check_lipschitz(hw(segments=((0.0, 1.0), (5.0, 0.9))), 4.0, 8.0, THETA)


# (starts, rates) of a rate schedule
schedule_strategy = st.lists(
    st.floats(min_value=1.0, max_value=THETA), min_size=1, max_size=8
).map(lambda rates: (tuple(float(i) * 3.0 for i in range(len(rates))), tuple(rates)))


class TestProperties:
    @given(schedule_strategy, st.floats(min_value=0.01, max_value=40.0),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_lipschitz_envelope(self, sched, t1, dt):
        value = partial(ClockTable([(0.0, *sched)]).hw_value, 0)
        assert check_lipschitz(value, t1, t1 + dt, THETA, tol=1e-9)

    @given(schedule_strategy, st.lists(st.floats(min_value=0.0, max_value=50.0),
                                       min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_logical_strictly_increasing_and_inverse(self, sched, times):
        (c,) = shared([(1.0, *sched)], [0.07])
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
        (c,) = shared([(0.0, *sched)], [0.05])
        c.set_mode(t_switch, FAST)
        for t in (t_switch + 0.5, t_switch + 10.0):
            assert c.value(t) >= c.table.hw_value(0, t) - 1e-12


one_segment = st.floats(min_value=1.0, max_value=THETA).map(lambda rate: ((0.0,), (rate,)))


class TestTableHardware:
    """The table's scalar hardware reads against the twin that searches its
    own schedule for every segment, bit for bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_value_and_inverse_match_the_twin(self, data):
        # one-segment clocks beside many-segment ones: a bisection that
        # left its clock's slice of the table would read a neighbour's
        pairs = data.draw(st.lists(st.tuples(one_segment, schedule_strategy), min_size=1, max_size=3))
        hardware = [(data.draw(st.floats(0.0, 5.0)), *sched) for pair in pairs for sched in pair]
        table = ClockTable(hardware)
        for c, (initial, starts, rates) in enumerate(hardware):
            twin = HardwareClock(initial, starts, rates)
            times = list(starts) + data.draw(st.lists(st.floats(0.0, 40.0), max_size=4))
            for t in times:  # every breakpoint exactly, and between them
                assert table.hw_value(c, t) == twin.value(t)
            readings = list(twin._cum) + data.draw(st.lists(st.floats(initial, 60.0), max_size=4))
            for x in readings:  # every segment's start value exactly, and between them
                assert table.hw_inverse(c, x) == twin.inverse(x)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cursor_reads_match_the_twin_in_any_order(self, data):
        # reads and inverses of several clocks, most with many segments,
        # interleaved, each a step forward or back from its clock's last, a
        # jump to a breakpoint, or an inverse below the initial value: the
        # cursor's segment, or the next, is used only where it holds the
        # argument, and never one of the next clock
        multi = st.integers(1, 8).flatmap(lambda k: st.tuples(
            st.lists(st.floats(0.1, 5.0), min_size=k - 1, max_size=k - 1).map(
                lambda gaps: tuple(np.cumsum([0.0] + gaps).tolist())),
            st.lists(st.floats(1.0, THETA), min_size=k, max_size=k).map(tuple)))
        hardware = [(data.draw(st.floats(0.0, 5.0)), *sched)
                    for sched in data.draw(st.lists(multi, min_size=1, max_size=3))]
        table = ClockTable(hardware)
        twins = [HardwareClock(*spec) for spec in hardware]
        at = [0.0] * len(twins)
        for c, step, inverse, snap in data.draw(st.lists(st.tuples(
                st.integers(0, len(twins) - 1), st.floats(-8.0, 8.0), st.sampled_from([0, 1, 2]),
                st.booleans()), min_size=1, max_size=40)):
            twin = twins[c]
            at[c] = max(0.0, at[c] + step)
            if snap:  # a breakpoint, where the cursor's segment ends
                at[c] = twin.starts[min(range(len(twin.starts)), key=lambda i: abs(twin.starts[i] - at[c]))]
            if inverse:
                x = twin.value(at[c]) if inverse == 1 else twin.initial_value - 1.0 - step
                assert table.hw_inverse(c, x) == twin.inverse(x)
            else:
                assert table.hw_value(c, at[c]) == twin.value(at[c])


def reference_reads(clocks, times, cols):
    """(L, H, mode) from the scalar reference, one (instant, clock) of the
    broadcast of ``times`` and ``cols`` at a time, the mode that of the
    anchor a search finds."""
    times, cols = np.broadcast_arrays(times, cols)
    reads = []
    for t, k in zip(times.ravel().tolist(), cols.ravel().tolist()):
        at, *_, modes = anchors(clocks[k])
        reads.append((*value_pair(clocks[k], t), modes[bisect_right(at, t) - 1]))
    return tuple(np.array([r[i] for r in reads], dtype=float).reshape(times.shape) for i in (0, 1, 2))


def assert_reads_match_reference(clocks, times, cols):
    table = clocks[0].table
    L, H, a = read_clocks(table, times, cols)
    ref_L, ref_H, ref_mode = reference_reads(clocks, times, cols)
    assert L.shape == H.shape == a.shape == ref_L.shape
    assert np.array_equal(L, ref_L)
    assert np.array_equal(H, ref_H)
    assert np.array_equal(table.mode[a], ref_mode)
    assert np.array_equal(table.owner[a], np.broadcast_to(cols, a.shape))


def grid(times, n=4):
    """The read of ``sample_clocks``: each of n clocks at every instant,
    instant by instant."""
    return np.repeat(np.array(times, dtype=float), n), np.tile(np.arange(n), len(times))


def scattered(times, cols):
    """Clock ``cols[r]`` at instant ``times[r]``, for every r."""
    return np.array(times, dtype=float), np.array(cols, dtype=np.intp)


MIXED_HARDWARE = (
    (0.3, ((0.0, 1.013),)),  # steady
    (0.1, ((0.0, 1.007),)),  # fast from t = 1
    (0.2, ((0.0, 1.0), (4.0, 1.02))),  # a hardware breakpoint
    (0.0, ((0.0, 1.011), (3.0, 1.004))),  # switching at 2.5 and 5
)


def mixed_clocks(extra=()):
    """Clocks that, between t = 2 and t = 6, cover each evaluation path,
    then clocks over the hardware ``extra`` at its own rate, in one table."""
    clocks = shared([schedule(*spec) for spec in MIXED_HARDWARE] + list(extra), [0.1] * (4 + len(extra)))
    clocks[1].set_mode(1.0, FAST)
    clocks[3].set_mode(2.5, FAST)
    clocks[3].set_mode(5.0, OWN_RATE)
    return clocks


class TestReadClocks:
    """The one array reader equals the scalar formula bit for bit, on the
    chunk grid and on scattered (instant, clock) reads."""

    @pytest.mark.parametrize("times, cols", [
        scattered([5.5, 2.0, 4.0, 3.1, 2.6, 0.5], [3, 0, 2, 1, 3, 1]),  # unsorted instants and clocks
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
                read_clocks(mixed_clocks()[0].table, times, cols)

    def test_clocks_in_any_order_match_scalar_reference(self):
        for cols in ([1, 0], [0, 2, 1, 3], [3, 3, 0, 3, 2]):
            assert_reads_match_reference(mixed_clocks(), np.linspace(2.0, 6.0, len(cols)), np.array(cols))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_clocks_match_scalar_reference(self, data):
        hardware, mus, kinks = [], [], [0.0]
        for _ in range(data.draw(st.integers(1, 5))):
            sched = data.draw(schedule_strategy)
            hardware.append((data.draw(st.floats(0.0, 5.0)), *sched))
            mus.append(data.draw(st.floats(0.01, 0.5)))
            kinks += list(sched[0])
        clocks = shared(hardware, mus)
        for c in clocks:
            switches = sorted(set(data.draw(st.lists(st.floats(0.0, 30.0), max_size=5))))
            for k, t in enumerate(switches):
                c.set_mode(t, FAST if k % 2 == 0 else OWN_RATE)
            kinks += switches
        instants = st.one_of(st.floats(0.0, 40.0), st.sampled_from(kinks))
        times = sorted(set(data.draw(st.lists(instants, min_size=1, max_size=12))))
        assert_reads_match_reference(clocks, *grid(times, len(clocks)))
        reads = data.draw(st.lists(st.tuples(instants, st.integers(0, len(clocks) - 1)), min_size=1, max_size=12))
        assert_reads_match_reference(clocks, *scattered(*zip(*reads)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bends_at_the_window_ends_match_scalar_reference(self, data):
        # Reads over a window [t0, t1] meet anchors and hardware breakpoints
        # exactly at t0, exactly at t1 and after t1, as a reply read at a
        # past instant meets them.
        t0 = data.draw(st.one_of(st.sampled_from([0.0, 1.0, 2.5, 3.0, 4.0, 5.0]), st.floats(0.0, 8.0)))
        t1 = t0 + data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
        bends = sorted({t0, t1, t1 + data.draw(st.floats(0.001, 3.0))})
        extra = []
        for breaks in data.draw(st.lists(st.sets(st.sampled_from([b for b in bends if b > 0]), min_size=1),
                                         max_size=3)):
            starts = (0.0, *sorted(breaks))
            rates = [1.0 + 0.006 * (k % 3) for k in range(len(starts))]
            extra.append((0.2, starts, rates))
        clocks = mixed_clocks(extra)
        for c in clocks[:4]:
            for t in sorted(data.draw(st.sets(st.sampled_from(bends)))):
                last, mode = timeline(c)[-1]
                if t >= last:
                    c.set_mode(t, OWN_RATE if mode == FAST else FAST)
        inside = st.floats(t0, t1)
        times = sorted({t0, t1, *data.draw(st.lists(inside, max_size=6))})
        assert_reads_match_reference(clocks, *grid(times, len(clocks)))
        clock = st.integers(0, len(clocks) - 1)
        reads = [(t0, data.draw(clock)), (t1, data.draw(clock))] + data.draw(st.lists(st.tuples(inside, clock)))
        assert_reads_match_reference(clocks, *scattered(*zip(*reads)))


class TestTableReader:
    """The table reader against the scalar clock, :meth:`LogicalClock.value`
    and :meth:`ClockTable.hw_value`, bit for bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_clock(self, data):
        # mixed_clocks() has hardware breakpoints at 3.0 and 4.0.  Each
        # clock bends again exactly at some of the read instants, and twice
        # after the last one, so every read walks back over two anchors or
        # more before it finds its own.
        clocks = mixed_clocks()
        instants = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 3.0, 4.0, 5.0]), st.floats(0.0, 12.0))
        reads = data.draw(st.lists(st.tuples(instants, st.integers(0, 3)), min_size=1, max_size=12))
        times = sorted({t for t, _ in reads})
        for c in clocks:
            for t in sorted(data.draw(st.sets(st.sampled_from(times))) | {times[-1] + 1.0, times[-1] + 2.5}):
                last, mode = timeline(c)[-1]
                if t >= last:
                    c.set_mode(t, OWN_RATE if mode == FAST else FAST)
        table = clocks[0].table
        for t, cols in (scattered(*zip(*reads)), grid(times)):
            L, H, a = read_clocks(table, t, cols)
            t, cols = np.broadcast_arrays(t, cols)
            for i, (ti, k) in enumerate(zip(t.ravel().tolist(), cols.ravel().tolist())):
                assert sum(at > ti for at, _ in timeline(clocks[k])) >= 2
                assert L.ravel()[i] == clocks[k].value(ti)
                assert H.ravel()[i] == table.hw_value(k, ti)
                assert table.time[a.ravel()[i]] <= ti


    def test_long_chains_match_the_scalar_clock(self):
        # 300 mode changes per clock, so reads far back take the jumps of
        # the skew-binary walk as well as single steps
        clocks = mixed_clocks()
        for k in range(1, 301):
            for c in clocks:
                c.set_mode(6.0 + 0.1 * k + 0.01 * c.index, FAST if k % 2 else OWN_RATE)
        table = clocks[0].table
        assert min(table.depth[table.last]) >= 300
        times = np.linspace(0.0, 40.0, 97)
        assert_reads_match_reference(clocks, *grid(times))
        L, H, _ = sample_clocks(table, times)
        for i, t in enumerate(times.tolist()):
            assert L[i].tolist() == [c.value(t) for c in clocks]
            assert H[i].tolist() == [table.hw_value(c.index, t) for c in clocks]


class TestSampleClocks:
    """sample_clocks is the grid read of read_clocks."""

    def test_sample_clocks_is_the_grid_read(self):
        times = np.array([2.0, 3.0, 4.5, 6.0])
        clocks = mixed_clocks()
        L, H, a = sample_clocks(clocks[0].table, times)
        ref_L, ref_H, ref_a = (x.reshape(len(times), 4) for x in read_clocks(clocks[0].table, *grid(times)))
        assert np.array_equal(L, ref_L)
        assert np.array_equal(H, ref_H)
        assert np.array_equal(a, ref_a)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            sample_clocks(mixed_clocks()[0].table, np.array([-1.0, 2.0]))


class TestCurrentPiece:
    """Reads and inverses on a clock's last anchor and last hardware
    segment skip the search, with the same float operations: they equal
    the searching forms of ``reference`` bit for bit, and so do all others."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_value_and_invert_match_the_search(self, data):
        for c in mixed_clocks():
            anchor, rate_change = timeline(c)[-1][0], c.table.hw_tail[c.index][2]
            piece = max(anchor, rate_change)  # where the current piece starts
            t = data.draw(st.sampled_from([anchor, rate_change]) | st.floats(piece, 1e6) | st.floats(0.0, piece))
            assert c.value(t) == value_pair(c, t)[0]
            values = anchors(c)[1]
            edges = [values[-1], c.value(anchor), c.value(rate_change), c.value(t)]
            target = data.draw(st.sampled_from(edges) | st.floats(c.value(piece), 1e6) | st.floats(values[0], 1e6))
            assert c.invert(target) == invert(c, target)


def hardware_of(*specs, horizon_time=30.0, seed=None):
    """The rate schedules, (initial value, starts, rates), that
    ``build_scenario`` makes of ``specs``, one per node of a line (with a
    constant clock added to a single spec), at theta = THETA and with
    ``seed`` as ``--seed``, their starts and rates as tuples.  Each rate
    schedule has breakpoints up to the horizon plus one cycle of 5.0."""
    nodes = list(specs) + [{"generator": "constant"}] * (len(specs) < 2)
    doc = line_doc(
        len(nodes), UNIT_EDGE, {"theta": THETA, "mu": 0.1, "nodes": nodes},
        {"T": 3.5, "T_stab": 1.5}, {"horizon_time": horizon_time, "sample_dt": 1.0, "master_seed": 0},
    )
    hardware = scen.build_scenario(doc, seed_override=seed).hardware[: len(specs)]
    return [(iv, tuple(starts), tuple(rates)) for iv, starts, rates in hardware]


def walk_rates(*specs, **kw):
    """The rates of the schedules of :func:`hardware_of`."""
    return [rates for _, _, rates in hardware_of(*specs, horizon_time=195.0, **kw)]


WALK = {"generator": "random_walk", "dwell": 5.0, "step": 0.01}


class TestGenerators:
    def test_constant(self):
        assert hardware_of({"generator": "constant", "rate": 1.01}) == [(0.0, (0.0,), (1.01,))]

    def test_alternating_flips(self):
        ((_, _, rates),) = hardware_of({"generator": "alternating", "dwell": 10.0, "start_high": True})
        assert rates == (THETA, 1.0, THETA, 1.0)

    def test_random_walk_bounded_and_seeded(self):
        a, b = walk_rates(WALK, WALK)
        assert len(a) == 41 and all(1.0 <= r <= THETA for r in a)
        assert a != b  # each node draws from a stream of its own
        assert walk_rates(WALK, WALK)[0] == a
        assert walk_rates(WALK, WALK, seed=1)[0] != a
        # a spec's own seed replaces the master seed, and --seed with it
        own = {**WALK, "seed": 3}
        assert walk_rates(own, seed=1) == walk_rates(own, seed=2) == walk_rates(WALK, seed=3)[:1]

    def test_scripted(self):
        segments = [[0.0, 1.0], [4.0, 1.02]]
        assert hardware_of({"generator": "scripted", "segments": segments, "initial_value": 0.5}) == [
            (0.5, (0.0, 4.0), (1.0, 1.02))]

    def test_unknown_generator(self):
        with pytest.raises(ScenarioValidationError, match="unknown generator 'brownian'"):
            hardware_of({"generator": "brownian"})


ALTERNATING = {"generator": "alternating", "dwell": 4.0, "start_high": True}


@cache
def step_hardware():
    """Three multi-segment rate schedules, alternating and random-walk ones,
    with breakpoints up to t = 65."""
    return hardware_of(ALTERNATING, {**WALK, "dwell": 3.0}, {**ALTERNATING, "start_high": False}, horizon_time=60.0)


class TestStep:
    """``ClockTable.step``, the scalar clock law, against the search-based
    twins of ``reference``, bit for bit: the anchors it leaves, its value
    at t and its inverse of a target, over sequences of steps in both
    modes on multi-segment schedules, at and past the last anchor's time,
    with targets below the last anchor's value, and reads back in time."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_search_based_twin(self, data):
        clocks = shared(step_hardware(), [0.1, 0.05, 0.2])
        table = clocks[0].table
        for _ in range(data.draw(st.integers(1, 24))):
            c = clocks[data.draw(st.integers(0, len(clocks) - 1))]
            want = [list(column) for column in anchors(c)]
            times, values, _, _, modes = want
            # at the last anchor's time, up to _EQ_TOL before it (taken at
            # it), after it, past the last rate breakpoint too, or at and
            # just before a rate breakpoint ahead
            ahead = [b for b in step_hardware()[c.index][1] if b > times[-1]]
            t = data.draw(
                st.sampled_from([times[-1], times[-1] - 1e-13])
                | st.floats(times[-1], times[-1] + 12.0)
                | st.sampled_from(ahead or times[-1:]).flatmap(lambda b: st.floats(max(times[-1], b - 1.0), b))
            )
            at = max(t, times[-1])
            mode = data.draw(st.sampled_from([OWN_RATE, FAST]))
            factor = 1.0 + c.mu if mode == FAST else 1.0
            x, h = value_pair(c, at)
            if mode != modes[-1]:
                for column, entry in zip(want, (at, x, h, factor, mode)):
                    column.append(entry)
            # from the initial value up, past earlier anchors' values and the
            # last one's, which the inverse walks back to, and past the last
            # rate breakpoint's hardware reading
            target = data.draw(st.sampled_from(values + [x]) | st.floats(values[0], x + 30.0)
                               | st.floats(values[0], 100.0))
            assert table.step(c.index, t, mode, factor, target) == (x, invert(c, target))
            assert [list(column) for column in anchors(c)] == want
            assert value_pair(c, at)[0] == x
        for c in clocks:
            times, values = anchors(c)[:2]
            for t in data.draw(st.lists(st.sampled_from(times) | st.floats(0.0, times[-1] + 5.0), max_size=4)):
                target = data.draw(st.sampled_from(values) | st.floats(values[0], values[-1] + 10.0))
                assert table.step(c.index, t) == (value_pair(c, t)[0], None)
                assert table.step(c.index, t, target=target) == (value_pair(c, t)[0], invert(c, target))
            assert anchors(c)[0] == times
