"""Random-waypoint mobility over a rectangular arena.

Vehicles spawn uniformly, pick a waypoint and a speed, drive straight at
constant speed, arrive, pause, and repeat. Positions and waypoints are
``(2, n)`` arrays of x and y rows, so the kernels module's step makes one
numpy call for both axes. One uniform triple per vehicle is drawn every
tick whether or not it is consumed, so the generator advances by the same
amount each tick and a run's random stream does not depend on when
vehicles happen to arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import waypoint_step
from .model import ValidationError, check_range


@dataclass(frozen=True)
class MobilityConfig:
    vehicle_count: int = 15
    arena_width: float = 800.0
    arena_height: float = 800.0
    speed_min: float = 5.0
    speed_max: float = 15.0
    pause_time: float = 0.0
    tick_seconds: float = 1.0

    def __post_init__(self) -> None:
        n = self.vehicle_count
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
            raise ValidationError("vehicle_count must be an integer of at least 1")
        check_range("arena_width", self.arena_width, open_low=True)
        check_range("arena_height", self.arena_height, open_low=True)
        check_range("speed_min", self.speed_min)
        check_range("speed_max", self.speed_max, self.speed_min)
        check_range("pause_time", self.pause_time)
        check_range("tick_seconds", self.tick_seconds, open_low=True)


@dataclass
class RandomWaypointModel:
    """Mutable mobility state for a fleet of vehicles.

    The clock is an integer tick count; ``now`` is derived from it, so
    simulated time never drifts by summing a fractional tick length.
    """

    config: MobilityConfig
    rng: np.random.Generator
    tick: int = field(default=0, init=False)
    pos: np.ndarray = field(init=False)
    way: np.ndarray = field(init=False)
    speed: np.ndarray = field(init=False)
    pause_until: np.ndarray = field(init=False)
    arena: np.ndarray = field(init=False)  # (2, 1): width over height

    def __post_init__(self) -> None:
        cfg = self.config
        n = cfg.vehicle_count
        self.arena = np.array([[cfg.arena_width], [cfg.arena_height]])
        # row-major draws: every x, then every y, as two draws of n would be
        self.pos = self.rng.random((2, n)) * self.arena
        self.way = self.rng.random((2, n)) * self.arena
        self.speed = cfg.speed_min + self.rng.random(n) * (cfg.speed_max - cfg.speed_min)
        self.pause_until = np.full(n, -np.inf)

    def step(self) -> None:
        """Advance every vehicle by one tick."""
        cfg = self.config
        cand = self.rng.random((cfg.vehicle_count, 3))
        waypoint_step(self.pos, self.way, self.speed, self.pause_until, cand, self.now,
                      cfg.tick_seconds, self.arena, cfg.speed_min, cfg.speed_max, cfg.pause_time)
        self.tick += 1

    @property
    def now(self) -> float:
        return float(self.tick * self.config.tick_seconds)

    # read-only views of the rows of pos
    x = property(lambda self: self.pos[0])
    y = property(lambda self: self.pos[1])

    def position_of(self, vehicle_id: int) -> tuple[float, float]:
        return (float(self.pos[0, vehicle_id]), float(self.pos[1, vehicle_id]))
