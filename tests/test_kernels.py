"""Contact detection (the cell grid, the one-shot search and both pair lists) and waypoint stepping against oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import reference_pairs
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


def grid_pairs(x, y, radio_range):
    """The cell-grid search alone, at exactly radio_range: a fresh list's build."""
    neighbours = kernels.NeighbourList(0.0)
    z = np.empty(len(x), np.complex128)
    z.real, z.imag = x, y
    neighbours._build(z, radio_range)
    return neighbours.a.copy(), neighbours.b.copy()


def all_pairs(x, y, radio_range):
    return kernels.AllPairs(len(x)).pairs(x, y, radio_range)


@pytest.fixture(params=["all_pairs", "grid", "one_shot"])
def pair_fn(request):
    return {"all_pairs": all_pairs, "grid": grid_pairs, "one_shot": kernels.contact_pairs}[request.param]


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
            assert a.dtype == b.dtype == np.int64
        a, b = pair_fn(np.array([0.0, 3.0]), np.array([0.0, 4.0]), 5.0)
        assert as_pair_list(a, b) == [(0, 1)]
        a, b = pair_fn(np.array([0.0, 3.0]), np.array([0.0, 4.0]), 4.9)
        assert len(a) == 0

    def test_exact_range_across_cell_edges(self, pair_fn):
        # cells start at the smallest coordinates, (0, 0), and are a hair
        # wider than r, so each pair below is exactly r apart and straddles a
        # cell edge: along x, along y, and along both diagonals
        r = 10.0
        pts = [(0.0, 0.0), (7.0, 50.0), (17.0, 50.0), (55.0, 7.0), (55.0, 17.0),
               (27.0, 27.0), (33.0, 35.0), (86.0, 95.0), (92.0, 87.0)]
        x, y = np.array(pts).T
        a, b = pair_fn(x, y, r)
        assert as_pair_list(a, b) == [(1, 2), (3, 4), (5, 6), (7, 8)]
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, r)

    @pytest.mark.parametrize("spacing", ["radio_range", "cell_side"])
    def test_points_on_multiples_of_the_spacing(self, pair_fn, spacing):
        r = 25.0
        step = r if spacing == "radio_range" else r * (1.0 + kernels._CELL_MARGIN)
        gx, gy = np.meshgrid(np.arange(12) * step, np.arange(9) * step)
        x, y = gx.ravel(), gy.ravel()
        a, b = pair_fn(x, y, r)
        expected = brute_force_pairs(x, y, r)
        assert set(as_pair_list(a, b)) == expected
        # a lattice at exactly r pairs every horizontal and vertical neighbour
        assert len(expected) == (11 * 9 + 12 * 8 if spacing == "radio_range" else 0)

    def test_negative_coordinates(self, pair_fn):
        rng = np.random.default_rng(5)
        x = rng.random(150) * 600.0 - 1e4
        y = -rng.random(150) * 600.0
        a, b = pair_fn(x, y, 60.0)
        assert len(a) > 0
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, 60.0)

    @pytest.mark.parametrize("r", [1e-3, 1e-9])
    def test_span_that_would_overflow_cell_keys(self, pair_fn, r):
        # 1e12 / 1e-3 = 1e15 cells a side would overflow int64 keys, and
        # 1e12 / 1e-9 the cell indices themselves (a cast numpy warns
        # about); the grid coarsens its cells instead, and warns about nothing
        rng = np.random.default_rng(8)
        x = np.concatenate(([0.0, 1e12], rng.random(60) * 1e12))
        y = np.concatenate(([1e12, 0.0], rng.random(60) * 1e12))
        x[7], y[7] = x[6], y[6] + 5e-4  # within 1e-3
        x[9], y[9] = 0.0, 1e12 - 1e-3  # about r from vehicle 0, give or take an ulp
        x[11], y[11] = x[10], y[10]  # coincident
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = pair_fn(x, y, r)
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, r)
        assert (10, 11) in set(as_pair_list(a, b))

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

    @pytest.mark.parametrize(
        "n", [kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1, kernels.NEIGHBOUR_LIST_MIN_VEHICLES, 1000]
    )
    def test_one_shot_matches_quadratic_oracle(self, n):
        # both sides of the crossover, plus a fleet far above it
        rng = np.random.default_rng(n)
        arena = 800.0 * (n / 15.0) ** 0.5  # baseline density
        x = rng.random(n) * arena
        y = rng.random(n) * arena
        a, b = kernels.contact_pairs(x, y, 100.0)
        na, nb = reference_pairs(x, y, 100.0)
        assert len(a) > 0
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, na) and np.array_equal(b, nb)



def buffers(neighbours):
    """The arrays a neighbour list keeps between calls."""
    return [v for v in vars(neighbours).values() if isinstance(v, np.ndarray)]


@pytest.fixture
def builds(monkeypatch):
    """The cutoff of every NeighbourList build, in call order."""
    log = []
    build = kernels.NeighbourList._build
    monkeypatch.setattr(kernels.NeighbourList, "_build",
                        lambda self, z, cutoff: log.append(cutoff) or build(self, z, cutoff))
    return log


class TestNeighbourList:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 90),
        radio_range=st.sampled_from([5.0, 10.0, 25.0]),
        skin_share=st.sampled_from([0.0, 0.1, 0.6, 1.0]),
        step_share=st.sampled_from([0.0, 0.05, 0.3, 1.5, 4.0]),
        lattice=st.booleans(),
        packing=st.sampled_from([1.0, 0.1]),
    )
    @example(seed=0, n=0, radio_range=5.0, skin_share=0.1, step_share=0.3, lattice=False, packing=1.0)
    @example(seed=0, n=1, radio_range=5.0, skin_share=0.1, step_share=0.3, lattice=False, packing=1.0)
    @example(seed=1, n=kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1, radio_range=25.0, skin_share=0.6,
             step_share=1.5, lattice=True, packing=1.0)
    @example(seed=2, n=90, radio_range=10.0, skin_share=0.6, step_share=0.05, lattice=False, packing=0.1)
    def test_equals_one_shot_search_every_tick(self, seed, n, radio_range, skin_share, step_share, lattice,
                                               packing):
        # random walks; a step share of 0 is a standing fleet and shares
        # above 0.5 step past the skin; on the integer lattice 3-4-5 and
        # axis-aligned ties at exactly r are common. A packing of 1 leaves
        # ~0.8 vehicles within r of each, 0.1 about half the fleet. Below the
        # threshold the all-pairs list, the one engine.run keeps there, is
        # checked too.
        rng = np.random.default_rng(seed)
        skin = skin_share * radio_range
        side = packing * 2.0 * radio_range * max(n, 1) ** 0.5
        x, y = rng.random(n) * side, rng.random(n) * side
        lists = [kernels.NeighbourList(skin)]
        if n < kernels.NEIGHBOUR_LIST_MIN_VEHICLES:
            lists.append(kernels.AllPairs(n))
        for _ in range(25):
            ea, eb = kernels.contact_pairs(x, y, radio_range)
            for neighbours in lists:
                a, b = kernels.contact_pairs(x, y, radio_range, neighbours)
                assert np.array_equal(a, ea) and np.array_equal(b, eb)
                assert a.dtype == b.dtype == np.int64
            step = step_share * max(skin, radio_range)
            x = x + rng.uniform(-step, step, n)
            y = y + rng.uniform(-step, step, n)
            if lattice:
                x, y = np.round(x), np.round(y)

    def test_rebuilds_only_past_half_the_skin(self, builds):
        rng = np.random.default_rng(2)
        x, y = rng.random(200) * 500.0, rng.random(200) * 500.0
        neighbours = kernels.NeighbourList(skin=8.0)
        neighbours.pairs(x, y, 30.0)
        x[17] += 4.0  # exactly half the skin: the list still covers every pair
        neighbours.pairs(x, y, 30.0)
        neighbours.pairs(x, y, 30.0)
        assert len(builds) == 1 and builds[0] >= 38.0
        x[17] += 1e-6
        neighbours.pairs(x, y, 30.0)
        neighbours.pairs(x, y, 20.0)  # a new range also rebuilds
        assert len(builds) == 3

    def test_returned_pairs_survive_later_calls(self, builds):
        # the list reuses its buffers on every call; what it returned earlier
        # must not change, whether later calls rebuild or only filter
        rng = np.random.default_rng(4)
        x, y = rng.random(300) * 800.0, rng.random(300) * 800.0  # the dense fleet's density
        neighbours = kernels.NeighbourList(skin=60.0)
        returned, kept = [], []
        for _ in range(12):
            a, b = neighbours.pairs(x, y, 100.0)
            assert len(a) > 0
            for arr in (a, b):
                assert not any(np.shares_memory(arr, buf) for buf in buffers(neighbours))
            returned.append((a, b))
            kept.append((a.copy(), b.copy()))
            x = x + rng.uniform(-12.0, 12.0, 300)
            y = y + rng.uniform(-12.0, 12.0, 300)
        assert 1 < len(builds) < 12  # both rebuilding and filter-only calls
        for (a, b), (ka, kb) in zip(returned, kept):
            assert np.array_equal(a, ka) and np.array_equal(b, kb)

    def test_packing_fleet_outgrows_its_buffers(self):
        # the fleet packs into a small square, so the candidate pairs outgrow
        # the buffers of the first builds mid-run, then spreads out again
        rng = np.random.default_rng(6)
        n, r = 150, 20.0
        home_x, home_y = rng.random(n) * 1500.0, rng.random(n) * 1500.0
        pack_x, pack_y = 700.0 + rng.random(n) * 30.0, 700.0 + rng.random(n) * 30.0
        neighbours = kernels.NeighbourList(skin=10.0)
        sizes = []
        for tick in range(41):
            share = 1.0 - abs(tick - 20) / 20.0  # 0 spread out, 1 packed
            x = home_x + share * (pack_x - home_x)
            y = home_y + share * (pack_y - home_y)
            a, b = neighbours.pairs(x, y, r)
            ra, rb = reference_pairs(x, y, r)
            assert np.array_equal(a, ra) and np.array_equal(b, rb)
            sizes.append(max(buf.size for buf in buffers(neighbours)))
        assert sizes[-1] > 10 * sizes[0]
        assert len(a) < 100  # spread out again

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_fleets_and_a_new_range(self, n):
        neighbours = kernels.NeighbourList(skin=2.0)
        x = np.array([0.0, 9.0])[:n]
        y = np.zeros(n)
        for r, dx in [(10.0, 0.0), (10.0, 0.5), (10.0, 3.0), (10.0, 0.0), (8.0, 0.0), (12.0, 0.0), (12.0, -9.0)]:
            x = x + np.array([0.0, dx])[:n]
            a, b = neighbours.pairs(x, y, r)
            ra, rb = reference_pairs(x, y, r)
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, ra) and np.array_equal(b, rb)
        assert n < 2 or len(a) == 1  # vehicle 1 ends 3.5 m from vehicle 0

    def test_a_new_fleet_size_rebuilds(self):
        # every fleet stands within half the skin of the last one's vehicle
        # 0, so only the change of size makes the list stale
        neighbours = kernels.NeighbourList(skin=2.0)
        for n in (1, 5, 3, 0, 2):
            x, y = np.linspace(0.0, 0.5, n), np.zeros(n)
            a, b = neighbours.pairs(x, y, 10.0)
            assert as_pair_list(a, b) == sorted(brute_force_pairs(x, y, 10.0))


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


def masked_waypoint_step(
    x, y, wx, wy, speed, pause_until, vx, vy, cand, now, dt, arena_w, arena_h, speed_min, speed_max, pause_time
) -> None:
    """Reference: the waypoint step as masked gathers and scatters, one per state array."""
    paused = now < pause_until
    dx = wx - x
    dy = wy - y
    dist = np.sqrt(dx * dx + dy * dy)
    step_len = speed * dt
    arrive = (dist <= step_len) & ~paused
    move = ~arrive & ~paused

    ux = np.divide(dx, dist, out=np.zeros_like(dx), where=move)
    uy = np.divide(dy, dist, out=np.zeros_like(dy), where=move)
    x[move] = x[move] + ux[move] * step_len[move]
    y[move] = y[move] + uy[move] * step_len[move]
    vx[move] = ux[move] * speed[move]
    vy[move] = uy[move] * speed[move]

    x[arrive] = wx[arrive]
    y[arrive] = wy[arrive]
    vx[arrive] = 0.0
    vy[arrive] = 0.0
    pause_until[arrive] = now + pause_time
    wx[arrive] = cand[arrive, 0] * arena_w
    wy[arrive] = cand[arrive, 1] * arena_h
    speed[arrive] = speed_min + cand[arrive, 2] * (speed_max - speed_min)

    vx[paused] = 0.0
    vy[paused] = 0.0

    np.clip(x, 0.0, arena_w, out=x)
    np.clip(y, 0.0, arena_h, out=y)


class TestFusedWaypointStep:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        still=st.booleans(),
        dt=st.sampled_from([0.25, 1.0, 3.0]),
        pause_time=st.sampled_from([0.0, 1.0, 2.5]),
    )
    @example(seed=0, n=1, still=True, dt=1.0, pause_time=0.0)
    @example(seed=0, n=8, still=False, dt=1.0, pause_time=0.0)
    def test_bit_identical_to_masked_step(self, seed, n, still, dt, pause_time):
        rng = np.random.default_rng(seed)
        w, h = 300.0, 200.0
        speed_min, speed_max = (0.0, 0.0) if still else (2.0, 60.0)
        on_edge = rng.random((2, n)) < 0.2  # waypoints on the arena's edges and corners

        wx = np.where(on_edge[0], rng.choice([0.0, w], n), rng.random(n) * w)
        wy = np.where(on_edge[1], rng.choice([0.0, h], n), rng.random(n) * h)
        x, y = rng.random(n) * w, rng.random(n) * h
        speed = speed_min + rng.random(n) * (speed_max - speed_min)
        # paused, pausing until exactly tick 0 or 1, or free
        pause = rng.choice([-np.inf, 0.0, 1.0, 5.0], n)
        vx, vy = rng.random(n), rng.random(n)
        x[0], y[0] = wx[0], wy[0]  # standing on its waypoint: dist == 0
        if n > 1:
            x[1], y[1] = w, 0.0  # on the arena's corner
        if n > 2:  # arrives this tick, unless paused
            pause[2] = -np.inf
            x[2], y[2] = wx[2] - 0.4 * speed[2] * dt, wy[2]
        if n > 3:  # an ulp outside the arena, as rounding can leave a vehicle
            x[3], y[3] = np.nextafter(w, np.inf), np.nextafter(0.0, -1.0)
        state = (x, y, wx, wy, speed, pause, vx, vy)
        expected = tuple(a.copy() for a in state)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a 0/0 in any lane would fail
            for tick in range(30):
                cand = rng.random((n, 3))
                cand[rng.random((n, 3)) < 0.1] = 0.0  # fresh waypoints on the edge
                cand[rng.random((n, 3)) < 0.1] = 1.0
                common = (cand, tick * dt, dt, w, h, speed_min, speed_max, pause_time)
                kernels.waypoint_step(*state, *common)
                masked_waypoint_step(*expected, *common)
                for got, want in zip(state, expected):
                    assert np.array_equal(got, want)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
