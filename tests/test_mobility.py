import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetsim.mobility import MAX_VEHICLES, MobilityConfig, RandomWaypointModel, draw_rows
from vanetsim.model import ValidationError


def make_model(seed: int, **overrides) -> RandomWaypointModel:
    cfg = MobilityConfig(**overrides)
    return RandomWaypointModel(cfg, np.random.default_rng(seed))


class ScriptedRng:
    """Stands in for a model's generator: ``random`` hands out the given draws in turn, each of the shape asked for."""

    def __init__(self, draws) -> None:
        self.draws = iter(draws)

    def random(self, size=None, out=None):
        draw = next(self.draws)
        if out is None:
            assert draw.shape == (size if isinstance(size, tuple) else (size,))
            return draw
        assert size is None and draw.shape == out.shape
        out[...] = draw
        return out


def driven_model(cands, pos, way, speed, pause_until, tick=0, **overrides) -> RandomWaypointModel:
    """A model set to the given state whose steps take their candidate triples from ``cands``, an (n, 3) row each.

    The model draws the rows in blocks of ``draw_rows(n)``; the last block is
    padded with NaN, which no step may take.
    """
    cfg = MobilityConfig(vehicle_count=len(speed), **overrides)
    n, k = cfg.vehicle_count, draw_rows(cfg.vehicle_count)
    start = (np.zeros((2, n)), np.zeros((2, n)), np.zeros(n))  # the constructor's draws
    rows = np.concatenate((np.reshape(cands, (-1, n, 3)), np.full((-len(cands) % k, n, 3), np.nan)))
    m = RandomWaypointModel(cfg, ScriptedRng(itertools.chain(start, rows.reshape(-1, k, n, 3))))
    m.set_state(pos, way, speed, pause_until, tick)
    return m


class TestMobilityConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vehicle_count": 0},
            {"vehicle_count": 2.5},
            {"vehicle_count": 15.0},
            {"vehicle_count": True},
            {"arena_width": 0.0},
            {"arena_height": -1.0},
            {"speed_min": -1.0},
            {"speed_min": 10.0, "speed_max": 5.0},
            {"pause_time": -0.5},
            {"tick_seconds": 0.0},
            {"tick_seconds": math.inf},
            {"vehicle_count": math.nan},
            {"arena_width": math.nan},
            {"arena_height": math.nan},
            {"speed_min": math.nan},
            {"speed_max": math.nan},
            {"pause_time": math.nan},
            {"tick_seconds": math.nan},
            {"arena_width": math.inf},
            {"arena_height": math.inf},
            {"speed_max": math.inf},
            {"speed_min": math.inf, "speed_max": math.inf},
            {"pause_time": math.inf},
            # finite values whose step arithmetic overflows: a squared distance, a step length
            {"arena_width": 1e160, "arena_height": 1e160},
            {"arena_width": 1e154, "arena_height": 1e154},
            {"speed_max": 1e308, "tick_seconds": 10.0},
            {"speed_min": 1e300, "speed_max": 1e300, "tick_seconds": 1e10},
            {"arena_width": 10**400},  # an int too large for a float
            # fleets whose pair codes a * n + b overflow int64
            {"vehicle_count": MAX_VEHICLES + 1},
            {"vehicle_count": 10**12},
            {"vehicle_count": 10**400},
            {"vehicle_count": np.uint64(2**64 - 1)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            MobilityConfig(**kwargs)

    def test_accepts_a_numpy_integer_count(self):
        assert make_model(0, vehicle_count=np.int64(4)).pos.shape == (2, 4)

    def test_vehicle_count_bound_is_the_largest_whose_pair_codes_fit_int64(self):
        # the largest code is (n - 2) * n + (n - 1); only configs are made, never a fleet
        top = int(np.iinfo(np.int64).max)
        assert (MAX_VEHICLES - 2) * MAX_VEHICLES + MAX_VEHICLES - 1 <= top
        assert (MAX_VEHICLES - 1) * (MAX_VEHICLES + 1) + MAX_VEHICLES > top
        assert MobilityConfig(vehicle_count=MAX_VEHICLES).vehicle_count == MAX_VEHICLES
        assert MobilityConfig(vehicle_count=np.int64(MAX_VEHICLES)).vehicle_count == MAX_VEHICLES


class TestRandomWaypointModel:
    def test_same_seed_same_trajectories(self):
        m1 = make_model(42)
        m2 = make_model(42)
        for _ in range(100):
            m1.step()
            m2.step()
        for name in ("pos", "way", "speed", "pause_until"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

    def test_different_seeds_diverge(self):
        m1 = make_model(1)
        m2 = make_model(2)
        m1.step()
        m2.step()
        assert not np.array_equal(m1.pos[0], m2.pos[0])

    def test_positions_contained_for_long_runs(self):
        m = make_model(7, arena_width=120.0, arena_height=90.0, speed_max=40.0)
        for _ in range(1000):
            m.step()
            assert np.all((m.pos[0] >= 0.0) & (m.pos[0] <= 120.0))
            assert np.all((m.pos[1] >= 0.0) & (m.pos[1] <= 90.0))

    def test_clock_advances_by_tick(self):
        m = make_model(0, tick_seconds=0.5)
        for _ in range(4):
            m.step()
        assert m.tick * m.config.tick_seconds == pytest.approx(2.0)

    def test_fractional_tick_clock_does_not_drift(self):
        m = make_model(0, vehicle_count=3, tick_seconds=0.1)
        for _ in range(3000):
            m.step()
        assert m.tick == 3000
        assert m.tick * m.config.tick_seconds == 300.0  # summing 0.1 3 000 times gives 299.99999999999997

    def test_moving_speed_within_bounds(self):
        m = make_model(3, speed_min=4.0, speed_max=9.0, pause_time=1.0, tick_seconds=0.5)
        saw_move = False
        for _ in range(200):
            before, way, speed = m.pos.copy(), m.way.copy(), m.speed.copy()
            paused = m.tick * m.config.tick_seconds < m.pause_until
            m.step()
            assert np.all((m.speed >= 4.0) & (m.speed <= 9.0))
            moved = np.hypot(*(m.pos - before))
            assert np.all(moved <= 9.0 * 0.5 * (1 + 1e-9))
            # neither paused nor arrived: an arrival takes a fresh waypoint
            cruising = ~paused & np.all(m.way == way, axis=0)
            saw_move |= bool(np.any(cruising))
            assert np.allclose(moved[cruising], speed[cruising] * 0.5, rtol=1e-9, atol=0.0)
        assert saw_move

    def test_pause_time_freezes_vehicles_after_arrival(self):
        m = make_model(5, vehicle_count=30, speed_max=50.0, pause_time=5.0)
        saw_pause = False
        for _ in range(300):
            before = m.pos.copy()
            paused = m.tick * m.config.tick_seconds < m.pause_until  # pause state the step acts on
            m.step()
            if np.any(paused):
                saw_pause = True
                assert np.array_equal(m.pos[:, paused], before[:, paused])
        assert saw_pause

    def test_a_pause_holds_ceil_of_its_ticks_less_one_steps(self):
        # an arrival in the step from `now` pauses until now + pause_time, and the
        # next step starts at now + 1 s: pauses of at most a tick never show
        def trajectory(pause_time, steps=120):
            m = make_model(4, vehicle_count=20, arena_width=60.0, arena_height=40.0, pause_time=pause_time)
            out = []
            for _ in range(steps):
                before = m.pause_until.copy()
                m.step()
                out.append((m.pos.copy(), m.pause_until != before))  # positions, who arrived
            return out

        still = trajectory(0.0)
        assert sum(int(arrived.sum()) for _, arrived in still) > 50
        for pause_time in (0.5, 1.0):
            for (p, _), (q, _) in zip(trajectory(pause_time), still):
                assert np.array_equal(p.view(np.uint64), q.view(np.uint64))

        held = trajectory(1.5)
        assert not all(np.array_equal(p, q) for (p, _), (q, _) in zip(held, still))
        saw_hold = False
        for (p, arrived), (q, _), (r, _) in zip(held, held[1:], held[2:]):
            # the step after an arrival stands still, the one after that moves on
            assert np.array_equal(q[:, arrived], p[:, arrived])
            assert np.all(np.any(r[:, arrived] != q[:, arrived], axis=0))
            saw_hold |= bool(arrived.any())
        assert saw_hold

    @pytest.mark.parametrize("n, rows", [(1, 682), (15, 45), (300, 2), (341, 2), (342, 1), (1000, 1)])
    def test_a_draw_holds_the_rows_that_fit_in_16_kib(self, n, rows):
        assert draw_rows(n) == rows
        assert rows * n * 3 * 8 <= 1 << 14 < (rows + 1) * n * 3 * 8 or rows == 1

    @pytest.mark.parametrize(
        "n, side, steps",
        [(15, 40.0, 400), (342, 10.0, 3)],  # 45 rows a draw, so 400 steps cross eight draws; a row a draw
    )
    def test_start_state_keeps_the_per_axis_draw_order(self, n, side, steps):
        # x, y, waypoint x, waypoint y, speed: one draw of n each, as before the planar layout;
        # then one (k, n, 3) draw for k steps, whose rows are those of one (n, 3) draw a step.
        # In a small arena with a 2 s pause vehicles arrive, pause and redraw on every draw's rows.
        k, height = draw_rows(n), 0.75 * side
        m = make_model(11, vehicle_count=n, arena_width=side, arena_height=height, pause_time=2.0)
        rng = np.random.default_rng(11)
        x, y, wx, wy, s = (rng.random(n) for _ in range(5))
        assert np.array_equal(m.pos[0], x * side)
        assert np.array_equal(m.pos[1], y * height)
        assert np.array_equal(m.way[0], wx * side)
        assert np.array_equal(m.way[1], wy * height)
        assert np.array_equal(m.speed, 5.0 + s * 10.0)
        start = rng.bit_generator.state
        blocks = [rng.random((k, n, 3)) for _ in range(-(-steps // k))]
        saw_pause = False
        for _ in range(steps):
            saw_pause |= bool(np.any(m.tick * m.config.tick_seconds < m.pause_until))
            m.step()
        assert saw_pause and np.all(np.isfinite(m.pause_until))  # each vehicle arrived
        assert np.array_equal(m.rng.random(4), rng.random(4))  # the model drew those blocks and no more
        rng.bit_generator.state = start
        assert np.array_equal(np.concatenate(blocks), [rng.random((n, 3)) for _ in range(len(blocks) * k)])

        # the masked reference step, fed those rows one a step, ends bit for bit where the model does
        expected = (x * side, y * height, wx * side, wy * height, 5.0 + s * 10.0, np.full(n, -np.inf))
        for tick, cand in enumerate(np.concatenate(blocks)[:steps]):
            masked_waypoint_step(*expected, cand, float(tick), 1.0, side, height, 5.0, 15.0, 2.0)
        state = (m.pos[0], m.pos[1], m.way[0], m.way[1], m.speed, m.pause_until)
        for got, want in zip(state, expected):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_position_of_matches_arrays(self):
        m = make_model(1)
        m.step()
        px, py = m.position_of(4)
        assert px == m.pos[0, 4] and py == m.pos[1, 4]


def run_waypoint(seed, ticks=200, n=20):
    m = make_model(seed, vehicle_count=n, arena_width=300.0, arena_height=200.0,
                   speed_min=2.0, speed_max=10.0, pause_time=3.0)
    for _ in range(ticks):
        m.step()
    return m.pos


class TestWaypointStep:
    def test_positions_stay_in_arena(self):
        p = run_waypoint(seed=9, ticks=500)
        assert np.all((p[0] >= 0) & (p[0] <= 300.0))
        assert np.all((p[1] >= 0) & (p[1] <= 200.0))

    def test_paused_vehicle_does_not_move(self):
        m = driven_model([np.zeros((1, 3))], pos=np.array([[50.0], [50.0]]), way=np.array([[60.0], [50.0]]),
                         speed=np.array([5.0]), pause_until=np.array([10.0]),  # paused until t=10
                         arena_width=100.0, arena_height=100.0, speed_min=1.0, speed_max=5.0, pause_time=3.0)
        m.step()
        assert m.pos[0, 0] == 50.0 and m.pos[1, 0] == 50.0

    def test_arrival_snaps_and_pauses(self):
        m = driven_model([np.array([[0.5, 0.25, 0.5]])], pos=np.array([[50.0], [50.0]]),
                         way=np.array([[52.0], [50.0]]),
                         speed=np.array([5.0]),  # step length 5 > remaining 2: arrives this tick
                         pause_until=np.full(1, -np.inf), tick=7,
                         arena_width=100.0, arena_height=80.0, speed_min=1.0, speed_max=5.0, pause_time=3.0)
        m.step()
        assert m.pos[0, 0] == 52.0 and m.pos[1, 0] == 50.0
        assert m.pause_until[0] == 10.0  # now + pause_time
        assert (m.way[0, 0], m.way[1, 0]) == (50.0, 20.0)  # fresh waypoint from the triple, scaled per axis
        assert m.speed[0] == 1.0 + 0.5 * (5.0 - 1.0)


def masked_waypoint_step(
    x, y, wx, wy, speed, pause_until, cand, now, dt, arena_w, arena_h, speed_min, speed_max, pause_time
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

    x[arrive] = wx[arrive]
    y[arrive] = wy[arrive]
    pause_until[arrive] = now + pause_time
    wx[arrive] = cand[arrive, 0] * arena_w
    wy[arrive] = cand[arrive, 1] * arena_h
    speed[arrive] = speed_min + cand[arrive, 2] * (speed_max - speed_min)

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
    # vehicle 4's pause, set through the state, outlasts the 1 s pause of vehicle 2's arrival
    @example(seed=0, n=8, still=False, dt=1.0, pause_time=1.0)
    @example(seed=0, n=8, still=False, dt=1.0, pause_time=2.5)  # pauses that hold for whole steps
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
        x[0], y[0] = wx[0], wy[0]  # standing on its waypoint: dist == 0
        if n > 1:
            x[1], y[1] = w, 0.0  # on the arena's corner
        if n > 2:  # arrives this tick, unless paused
            pause[2] = -np.inf
            x[2], y[2] = wx[2] - 0.4 * speed[2] * dt, wy[2]
        if n > 3:  # an ulp outside the arena, as rounding can leave a vehicle
            x[3], y[3] = np.nextafter(w, np.inf), np.nextafter(0.0, -1.0)
        if n > 4:  # paused until 5 s, past the pause of vehicle 2's arrival at tick 0
            pause[4] = 5.0
        expected = (x.copy(), y.copy(), wx.copy(), wy.copy(), speed.copy(), pause.copy())
        cands = []
        for _ in range(30):
            cand = rng.random((n, 3))
            cand[rng.random((n, 3)) < 0.1] = 0.0  # fresh waypoints on the edge
            cand[rng.random((n, 3)) < 0.1] = 1.0
            cands.append(cand)
        m = driven_model(cands, np.stack((x, y)), np.stack((wx, wy)), speed, pause,
                         arena_width=w, arena_height=h, speed_min=speed_min, speed_max=speed_max,
                         pause_time=pause_time, tick_seconds=dt)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a 0/0 in any lane would fail
            for tick, cand in enumerate(cands):
                m.step()
                masked_waypoint_step(*expected, cand, tick * dt, dt, w, h, speed_min, speed_max, pause_time)
                state = (m.pos[0], m.pos[1], m.way[0], m.way[1], m.speed, m.pause_until)
                for got, want in zip(state, expected):
                    assert np.array_equal(got, want)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too


def edge_fleet(seed, n, still, dt, pause_time):
    """Two models in one state, whose steps take the same 30 rows of candidate triples: as in
    ``test_bit_identical_to_masked_step``, vehicles stand on their waypoint, on a corner and an ulp
    outside the arena, one arrives at tick 0, and pauses are set through the state."""
    rng = np.random.default_rng(seed)
    w, h = 300.0, 200.0
    speed_min, speed_max = (0.0, 0.0) if still else (2.0, 60.0)
    way = rng.random((2, n)) * [[w], [h]]
    pos = rng.random((2, n)) * [[w], [h]]
    speed = speed_min + rng.random(n) * (speed_max - speed_min)
    pause = rng.choice([-np.inf, 0.0, 1.0, 5.0], n)
    pos[:, 0] = way[:, 0]  # standing on its waypoint: dist == 0
    if n > 1:
        pos[:, 1] = w, 0.0  # on the arena's corner
    if n > 2:  # arrives this tick, unless paused
        pause[2] = -np.inf
        pos[:, 2] = way[0, 2] - 0.4 * speed[2] * dt, way[1, 2]
    if n > 3:  # an ulp outside the arena, as rounding can leave a vehicle
        pos[:, 3] = np.nextafter(w, np.inf), np.nextafter(0.0, -1.0)
    if n > 4:  # paused until 5 s, past the pause of vehicle 2's arrival at tick 0
        pause[4] = 5.0
    cands = rng.random((30, n, 3))
    cands[rng.random((30, n, 3)) < 0.1] = 1.0  # fresh waypoints on the far edges
    return [driven_model(cands, pos.copy(), way.copy(), speed.copy(), pause.copy(), arena_width=w, arena_height=h,
                         speed_min=speed_min, speed_max=speed_max, pause_time=pause_time, tick_seconds=dt)
            for _ in range(2)]


class TestStepInto:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        still=st.booleans(),
        dt=st.sampled_from([0.25, 1.0, 3.0]),
        pause_time=st.sampled_from([0.0, 1.0, 2.5]),
    )
    @example(seed=0, n=1, still=True, dt=1.0, pause_time=0.0)
    @example(seed=0, n=8, still=False, dt=1.0, pause_time=0.0)
    @example(seed=0, n=8, still=False, dt=1.0, pause_time=1.0)
    @example(seed=0, n=8, still=False, dt=1.0, pause_time=2.5)
    def test_stepping_into_alternating_buffers_is_stepping_in_place(self, seed, n, still, dt, pause_time):
        # as engine.contacts steps a fleet: each tick's positions go into the next of its kept slots
        in_place, into = edge_fleet(seed, n, still, dt, pause_time)
        slots = list(np.empty((2, 2, n)))
        for tick in range(30):
            in_place.step()
            into.step(out=slots[tick % 2])
            assert into.pos is slots[tick % 2]
            for name in ("pos", "way", "speed", "pause_until", "_step_len", "_d", "_sq", "_dist"):
                got, want = getattr(into, name), getattr(in_place, name)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
            assert (into.tick, into._row, into._pause_bound) == (in_place.tick, in_place._row, in_place._pause_bound)
