import math

import numpy as np
import pytest

from vanetsim.mobility import MobilityConfig, RandomWaypointModel
from vanetsim.model import ValidationError


def make_model(seed: int, **overrides) -> RandomWaypointModel:
    cfg = MobilityConfig(**overrides)
    return RandomWaypointModel(cfg, np.random.default_rng(seed))


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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            MobilityConfig(**kwargs)

    def test_accepts_a_numpy_integer_count(self):
        assert make_model(0, vehicle_count=np.int64(4)).pos.shape == (2, 4)


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
        assert not np.array_equal(m1.x, m2.x)

    def test_positions_contained_for_long_runs(self):
        m = make_model(7, arena_width=120.0, arena_height=90.0, speed_max=40.0)
        for _ in range(1000):
            m.step()
            assert np.all((m.x >= 0.0) & (m.x <= 120.0))
            assert np.all((m.y >= 0.0) & (m.y <= 90.0))

    def test_clock_advances_by_tick(self):
        m = make_model(0, tick_seconds=0.5)
        for _ in range(4):
            m.step()
        assert m.now == pytest.approx(2.0)

    def test_fractional_tick_clock_does_not_drift(self):
        m = make_model(0, vehicle_count=3, tick_seconds=0.1)
        for _ in range(3000):
            m.step()
        assert m.tick == 3000
        assert m.now == 300.0  # summing 0.1 3 000 times gives 299.99999999999997

    def test_moving_speed_within_bounds(self):
        m = make_model(3, speed_min=4.0, speed_max=9.0, pause_time=1.0, tick_seconds=0.5)
        saw_move = False
        for _ in range(200):
            before, way, speed = m.pos.copy(), m.way.copy(), m.speed.copy()
            paused = m.now < m.pause_until
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
            before = (m.x.copy(), m.y.copy())
            paused = m.now < m.pause_until  # pause state the step acts on
            m.step()
            if np.any(paused):
                saw_pause = True
                assert np.array_equal(m.x[paused], before[0][paused])
                assert np.array_equal(m.y[paused], before[1][paused])
        assert saw_pause

    def test_axis_views_share_the_planar_state(self):
        m = make_model(2, pause_time=1.0)
        m.step()
        for view, row in ((m.x, 0), (m.y, 1)):
            assert np.shares_memory(view, m.pos)
            assert view.base is m.pos
            assert np.array_equal(view, m.pos[row])
        for name in ("x", "y"):
            with pytest.raises(AttributeError):
                setattr(m, name, np.zeros(m.config.vehicle_count))

    def test_start_state_keeps_the_per_axis_draw_order(self):
        # x, y, waypoint x, waypoint y, speed: one draw of n each, as before the planar layout
        m = make_model(11, vehicle_count=6, arena_width=300.0, arena_height=200.0)
        rng = np.random.default_rng(11)
        assert np.array_equal(m.x, rng.random(6) * 300.0)
        assert np.array_equal(m.y, rng.random(6) * 200.0)
        assert np.array_equal(m.way[0], rng.random(6) * 300.0)
        assert np.array_equal(m.way[1], rng.random(6) * 200.0)
        assert np.array_equal(m.speed, 5.0 + rng.random(6) * 10.0)
        m.step()  # then one (n, 3) draw a step
        rng.random((6, 3))
        assert np.array_equal(m.rng.random(4), rng.random(4))

    def test_position_of_matches_arrays(self):
        m = make_model(1)
        m.step()
        px, py = m.position_of(4)
        assert px == m.x[4] and py == m.y[4]
