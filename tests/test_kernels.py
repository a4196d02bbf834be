"""Contact detection (both branches) and waypoint stepping against oracles."""

import numpy as np
import pytest

from vanetsim import kernels


def brute_force_pairs(x, y, radio_range):
    """Independent reference: plain double loop, set of (a, b) with a < b."""
    n = len(x)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 <= radio_range**2:
                out.add((i, j))
    return out


def as_pair_list(a, b):
    return list(zip(a.tolist(), b.tolist()))


@pytest.fixture(params=["numpy", "kdtree"])
def pair_fn(request):
    if request.param == "numpy":
        return kernels._contact_pairs_numpy
    return kernels._contact_pairs_kdtree


class TestContactPairs:
    @pytest.mark.parametrize("n,rr", [(2, 10.0), (15, 100.0), (60, 35.0), (200, 50.0)])
    def test_matches_brute_force(self, pair_fn, n, rr):
        rng = np.random.default_rng(n)
        x = rng.random(n) * 800.0
        y = rng.random(n) * 800.0
        a, b = pair_fn(x, y, rr)
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, rr)

    def test_output_is_lexicographically_sorted(self, pair_fn):
        rng = np.random.default_rng(3)
        x = rng.random(100) * 200.0
        y = rng.random(100) * 200.0
        a, b = pair_fn(x, y, 40.0)
        pairs = as_pair_list(a, b)
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    def test_boundary_distance_is_inclusive(self, pair_fn):
        x = np.array([0.0, 10.0, 30.0])
        y = np.zeros(3)
        a, b = pair_fn(x, y, 10.0)
        assert as_pair_list(a, b) == [(0, 1)]
        # off-axis ties: distance exactly r along 3-4-5 and 5-12-13 triangles
        for pts, rr in [
            ([(0.0, 0.0), (60.0, 80.0), (200.0, 0.0)], 100.0),
            ([(7.0, 3.0), (-53.0, -77.0), (500.0, 500.0)], 100.0),
            ([(100.0, 100.0), (150.0, 220.0), (0.0, 400.0)], 130.0),
        ]:
            x, y = np.array(pts).T
            a, b = pair_fn(x, y, rr)
            assert as_pair_list(a, b) == [(0, 1)]

    def test_degenerate_sizes(self, pair_fn):
        for n in (0, 1):
            a, b = pair_fn(np.zeros(n), np.zeros(n), 5.0)
            assert len(a) == len(b) == 0

    def test_coincident_points_all_pair(self, pair_fn):
        n = 10
        a, b = pair_fn(np.full(n, 3.0), np.full(n, 4.0), 1.0)
        assert len(a) == n * (n - 1) // 2

    def test_spread_cloud_triggers_sparse_fallback(self, pair_fn):
        # tiny range over a huge arena: one close pair among far-apart points
        rng = np.random.default_rng(11)
        n = 50
        x = rng.random(n) * 1e6
        y = rng.random(n) * 1e6
        x[1] = x[0] + 0.5
        y[1] = y[0]
        a, b = pair_fn(x, y, 2.0)
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, 2.0)

    @pytest.mark.parametrize("n", [kernels.KDTREE_MIN_VEHICLES - 1, kernels.KDTREE_MIN_VEHICLES, 1000])
    def test_dispatcher_matches_numpy_scan(self, n):
        # both sides of the crossover, plus a fleet far above it
        rng = np.random.default_rng(n)
        arena = 800.0 * (n / 15.0) ** 0.5  # baseline density
        x = rng.random(n) * arena
        y = rng.random(n) * arena
        a, b = kernels.contact_pairs(x, y, 100.0)
        na, nb = kernels._contact_pairs_numpy(x, y, 100.0)
        assert len(a) > 0
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, na) and np.array_equal(b, nb)


def run_waypoint(fn, seed, ticks=200, n=20):
    rng = np.random.default_rng(seed)
    w, h = 300.0, 200.0
    x = rng.random(n) * w
    y = rng.random(n) * h
    wx = rng.random(n) * w
    wy = rng.random(n) * h
    speed = 2.0 + rng.random(n) * 8.0
    pause = np.full(n, -np.inf)
    vx = np.zeros(n)
    vy = np.zeros(n)
    for t in range(ticks):
        cand = rng.random((n, 3))
        fn(x, y, wx, wy, speed, pause, vx, vy, cand, float(t), 1.0, w, h, 2.0, 10.0, 3.0)
    return x, y, vx, vy, wx, wy, speed, pause


class TestWaypointStep:
    def test_positions_stay_in_arena(self):
        x, y, *_ = run_waypoint(kernels.waypoint_step, seed=9, ticks=500)
        assert np.all((x >= 0) & (x <= 300.0))
        assert np.all((y >= 0) & (y <= 200.0))

    def test_paused_vehicle_does_not_move(self):
        n = 1
        x = np.array([50.0]); y = np.array([50.0])
        wx = np.array([60.0]); wy = np.array([50.0])
        speed = np.array([5.0])
        pause = np.array([10.0])  # paused until t=10
        vx = np.zeros(n); vy = np.zeros(n)
        cand = np.zeros((n, 3))
        kernels.waypoint_step(
            x, y, wx, wy, speed, pause, vx, vy, cand, 0.0, 1.0,
            100.0, 100.0, 1.0, 5.0, 3.0,
        )
        assert x[0] == 50.0 and y[0] == 50.0
        assert vx[0] == 0.0 and vy[0] == 0.0

    def test_arrival_snaps_and_pauses(self):
        n = 1
        x = np.array([50.0]); y = np.array([50.0])
        wx = np.array([52.0]); wy = np.array([50.0])
        speed = np.array([5.0])  # step length 5 > remaining 2: arrives this tick
        pause = np.full(n, -np.inf)
        vx = np.zeros(n); vy = np.zeros(n)
        cand = np.array([[0.5, 0.5, 0.5]])
        kernels.waypoint_step(
            x, y, wx, wy, speed, pause, vx, vy, cand, 7.0, 1.0,
            100.0, 100.0, 1.0, 5.0, 3.0,
        )
        assert x[0] == 52.0 and y[0] == 50.0
        assert pause[0] == 10.0  # now + pause_time
        assert (wx[0], wy[0]) == (50.0, 50.0)  # fresh waypoint from cand
        assert speed[0] == 1.0 + 0.5 * (5.0 - 1.0)
