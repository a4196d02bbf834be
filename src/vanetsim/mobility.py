"""Random-waypoint mobility over a rectangular arena.

Vehicles spawn uniformly, pick a waypoint and a speed, drive straight at
constant speed, arrive, pause, and repeat. Positions and waypoints are
``(2, n)`` arrays of x and y rows, so the step makes one numpy call for
both axes. One uniform triple per vehicle is drawn every tick whether or
not it is consumed, so the generator advances by the same amount each
tick and a run's random stream does not depend on when vehicles happen
to arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ValidationError, check_range


@dataclass(frozen=True)
class MobilityConfig:
    """Fleet, arena and motion of a random-waypoint run.

    ``pause_time`` holds an arrived vehicle for ``ceil(pause_time /
    tick_seconds) - 1`` whole steps: its pause runs from the start of the
    tick it arrives in, so a pause of at most one tick never shows.
    """

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
        """Advance every vehicle by one tick, in place: a paused one stands still,
        one that can reach its waypoint snaps onto it, pauses and takes a fresh
        waypoint and speed from its row of the tick's triples, and the rest
        move ``speed * tick_seconds`` toward their waypoints."""
        cfg = self.config
        cand = self.rng.random((cfg.vehicle_count, 3))
        p, w, speed, now = self.pos, self.way, self.speed, self.now
        paused = now < self.pause_until
        d = w - p
        sq = d * d
        dist = np.sqrt(sq[0] + sq[1])
        step_len = speed * cfg.tick_seconds
        arrive = (dist <= step_len) & ~paused
        move = ~(arrive | paused)

        # each where= lane goes through the same IEEE operations as a masked gather would
        np.divide(d, dist, out=d, where=move)  # unit vector toward the waypoint
        np.add(p, np.multiply(d, step_len, out=d, where=move), out=p, where=move)

        if np.count_nonzero(arrive):
            np.copyto(p, w, where=arrive)
            np.copyto(self.pause_until, now + cfg.pause_time, where=arrive)
            np.multiply(cand[:, :2].T, self.arena, out=w, where=arrive)
            np.add(cfg.speed_min, cand[:, 2] * (cfg.speed_max - cfg.speed_min), out=speed, where=arrive)

        # guard against 1-ulp overshoot past the arena edge (positions are never -0.0)
        np.minimum(np.maximum(p, 0.0, out=p), self.arena, out=p)
        self.tick += 1

    @property
    def now(self) -> float:
        return float(self.tick * self.config.tick_seconds)

    def position_of(self, vehicle_id: int) -> tuple[float, float]:
        return (float(self.pos[0, vehicle_id]), float(self.pos[1, vehicle_id]))
