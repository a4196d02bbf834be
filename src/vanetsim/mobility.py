"""Random-waypoint mobility over a rectangular arena.

Vehicles spawn uniformly, pick a waypoint and a speed, drive straight at
constant speed, arrive, pause, and repeat. State lives in flat numpy
arrays; the per-tick update is delegated to the kernels module. One
uniform triple per vehicle is drawn every tick whether or not it is
consumed, so the generator advances by the same amount each tick and a
run's random stream does not depend on when vehicles happen to arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import waypoint_step
from .model import ValidationError


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
        # each test is written so that NaN fails it
        if not self.vehicle_count >= 1:
            raise ValidationError("vehicle_count must be at least 1")
        if not (0 < self.arena_width < math.inf and 0 < self.arena_height < math.inf):
            raise ValidationError("arena dimensions must be positive and finite")
        if not 0 <= self.speed_min <= self.speed_max < math.inf:
            raise ValidationError("need 0 <= speed_min <= speed_max < inf")
        if not 0 <= self.pause_time < math.inf:
            raise ValidationError("pause_time must be non-negative and finite")
        if not 0 < self.tick_seconds < math.inf:
            raise ValidationError("tick_seconds must be positive and finite")


@dataclass
class RandomWaypointModel:
    """Mutable mobility state for a fleet of vehicles.

    The clock is an integer tick count; ``now`` is derived from it, so
    simulated time never drifts by summing a fractional tick length.
    """

    config: MobilityConfig
    rng: np.random.Generator
    tick: int = field(default=0, init=False)
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    vx: np.ndarray = field(init=False)
    vy: np.ndarray = field(init=False)
    waypoint_x: np.ndarray = field(init=False)
    waypoint_y: np.ndarray = field(init=False)
    speed: np.ndarray = field(init=False)
    pause_until: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        cfg = self.config
        n = cfg.vehicle_count
        self.x = self.rng.random(n) * cfg.arena_width
        self.y = self.rng.random(n) * cfg.arena_height
        self.waypoint_x = self.rng.random(n) * cfg.arena_width
        self.waypoint_y = self.rng.random(n) * cfg.arena_height
        self.speed = cfg.speed_min + self.rng.random(n) * (cfg.speed_max - cfg.speed_min)
        self.vx = np.zeros(n)
        self.vy = np.zeros(n)
        self.pause_until = np.full(n, -np.inf)

    def step(self) -> None:
        """Advance every vehicle by one tick."""
        cfg = self.config
        cand = self.rng.random((cfg.vehicle_count, 3))
        waypoint_step(
            self.x, self.y, self.waypoint_x, self.waypoint_y,
            self.speed, self.pause_until, self.vx, self.vy,
            cand, self.now, cfg.tick_seconds,
            cfg.arena_width, cfg.arena_height,
            cfg.speed_min, cfg.speed_max, cfg.pause_time,
        )
        self.tick += 1

    @property
    def now(self) -> float:
        return float(self.tick * self.config.tick_seconds)

    def position_of(self, vehicle_id: int) -> tuple[float, float]:
        return (float(self.x[vehicle_id]), float(self.y[vehicle_id]))
