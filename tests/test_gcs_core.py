import numpy as np
import pytest

from gcsim.gcs import GcsParams, trigger_levels, trigger_thresholds


def fired(row: np.ndarray) -> tuple[int, ...]:
    return tuple((np.flatnonzero(row) + 1).tolist())


def levels(gaps, kappa, delta, s_max=1):
    """(slow, fast) levels at which one node's triggers fire, its estimate
    of neighbour x leading its own value by gaps[x]."""
    xs = sorted(gaps)
    flat = lambda d: np.array([d[x] for x in xs], dtype=float)
    slow, fast = trigger_levels(flat(gaps), trigger_thresholds(flat(kappa), flat(delta), s_max), [0])
    return fired(slow[0]), fired(fast[0])


def slow_levels(gaps, kappa, delta, s_max=1):
    return levels(gaps, kappa, delta, s_max)[0]


def fast_levels(gaps, kappa, delta, s_max=1):
    return levels(gaps, kappa, delta, s_max)[1]


class TestSlowTrigger:
    def test_fires_when_neighbour_trails(self):
        assert 1 in slow_levels({1: -1.5}, {1: 1.0}, {1: 1.0})

    def test_no_gap_no_trigger(self):
        kappa = {1: 1.0, 2: 1.0}
        assert slow_levels({1: 0.0, 2: 0.0}, kappa, kappa, s_max=3) == ()


class TestFastTrigger:
    def test_fires_past_relaxed_threshold(self):
        assert 1 in fast_levels({1: 1.9}, {1: 1.0}, {1: 0.2})

    def test_boundary_is_strict(self):
        assert 1 not in fast_levels({1: 1.8}, {1: 1.0}, {1: 0.2})

    def test_blocked_by_far_trailing_neighbour(self):
        assert 1 not in fast_levels({1: 1.9, 2: -2.3}, {1: 1.0, 2: 1.0}, {1: 0.2, 2: 0.2})


class TestEvaluateMode:
    """The engine runs fast exactly when some fast level fires and no slow
    level does; otherwise the node keeps its own rate."""

    def test_all_zero_offsets_default(self):
        kappa = {1: 1.0, 2: 1.0}
        assert levels({1: 0.0, 2: 0.0}, kappa, kappa, s_max=3) == ((), ())

    def test_behind_only_neighbour_fast(self):
        assert levels({1: 1.9}, {1: 1.0}, {1: 0.2}, s_max=2) == ((), (1,))

    def test_ahead_own_rate(self):
        assert levels({1: -1.5}, {1: 1.0}, {1: 1.0}, s_max=2) == ((1,), ())


def brute_force_levels(gaps, kappa, delta, s_max):
    st, ft = [], []
    for s in range(1, s_max + 1):
        c = 2 * s - 1
        st1 = any(-gaps[x] >= c * kappa[x] for x in gaps)
        st2 = all(gaps[y] <= c * kappa[y] for y in gaps)
        if st1 and st2:
            st.append(s)
        c = 2 * s
        ft1 = any(gaps[x] > c * kappa[x] - delta[x] for x in gaps)
        ft2 = all(-gaps[y] < c * kappa[y] + delta[y] for y in gaps)
        if ft1 and ft2:
            ft.append(s)
    return tuple(st), tuple(ft)


class TestAgainstBruteForce:
    def test_random_views_match_clause_evaluation(self):
        # all rows in one batch of directions, one segment per row, as the
        # engine evaluates one instant; degrees 1 to 4
        rng = np.random.default_rng(17)
        rows = []
        for _ in range(300):
            deg = int(rng.integers(1, 5))
            gaps = {x: float(rng.uniform(-5, 5)) for x in range(1, deg + 1)}
            kappa = {x: float(rng.uniform(0.2, 2.0)) for x in gaps}
            rows.append((gaps, kappa, dict(kappa)))
        assert {len(gaps) for gaps, _, _ in rows} == {1, 2, 3, 4}
        lead, K, delta = (np.array([x for row in rows for x in row[i].values()]) for i in range(3))
        starts = np.cumsum([0] + [len(gaps) for gaps, _, _ in rows[:-1]])
        slow, fast = trigger_levels(lead, trigger_thresholds(K, delta, 3), starts)
        for r, (gaps, kappa, dlt) in enumerate(rows):
            assert (fired(slow[r]), fired(fast[r])) == brute_force_levels(gaps, kappa, dlt, 3)

    def test_triggers_never_co_fire_when_delta_is_kappa(self):
        # with the trigger slack equal to the edge weight, slow and fast
        # triggers are mutually exclusive for purely structural reasons
        rng = np.random.default_rng(23)
        for _ in range(500):
            deg = int(rng.integers(1, 6))
            gaps = {x: float(rng.uniform(-8, 8)) for x in range(deg)}
            kappa = {x: float(rng.uniform(0.1, 3.0)) for x in gaps}
            st, ft = levels(gaps, kappa, kappa, s_max=4)
            assert not (st and ft)


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
