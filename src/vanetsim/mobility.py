"""Random-waypoint mobility over a rectangular arena.

Vehicles spawn uniformly, pick a waypoint and a speed, drive straight at
constant speed, arrive, pause, and repeat. Positions and waypoints are
``(2, n)`` arrays of x and y rows, so the step makes one numpy call for
both axes; the arena bounds, distances and step lengths the step works
with are ``(2, n)`` arrays too, a column a vehicle, so that none of its
calls broadcasts. Every tick takes one uniform triple per vehicle, a
row of ``(n, 3)``, whether or not it is consumed, so a run's random
stream does not depend on when vehicles happen to arrive. The rows of
``draw_rows(n)`` ticks are drawn at once into one kept ``(k, n, 3)``
array, which is the same stream bit for bit as one ``(n, 3)`` draw a tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ValidationError, check_range

# A draw of candidate rows keeps within this many bytes: 45 ticks' rows at
# 15 vehicles, so the draw's call cost is spread thin, while the block adds
# little to a small fleet's peak memory (64 KiB raised a 15-vehicle run's
# peak traced memory by its own size).
_DRAW_BYTES = 1 << 14
# The most vehicles whose contact pair codes a * n + b, up to n * n - n - 1,
# fit the int64 that ``kernels.NeighbourList`` sorts them as.
MAX_VEHICLES = (1 + math.isqrt(4 * int(np.iinfo(np.int64).max) + 5)) // 2


def draw_rows(vehicle_count: int) -> int:
    """How many ticks' ``(n, 3)`` candidate rows one draw makes: as many as fit in 16 KiB, at least one."""
    return max(1, _DRAW_BYTES // (24 * vehicle_count))


@dataclass(frozen=True)
class MobilityConfig:
    """Fleet, arena and motion of a random-waypoint run.

    ``pause_time`` holds an arrived vehicle for ``ceil(pause_time /
    tick_seconds) - 1`` whole steps: its pause runs from the start of the
    tick it arrives in, so a pause of at most one tick never shows.

    ``arena_width**2 + arena_height**2`` must be finite, so that no squared
    distance between two points of the arena overflows, and so must
    ``speed_max * tick_seconds``, the longest step a vehicle takes.
    ``vehicle_count`` is at most ``MAX_VEHICLES``; a smaller fleet too large
    for memory still fails where its arrays are allocated.
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
        if n > MAX_VEHICLES:
            raise ValidationError(f"vehicle_count must be at most {MAX_VEHICLES}, or its pair codes overflow int64")
        check_range("arena_width", self.arena_width, open_low=True)
        check_range("arena_height", self.arena_height, open_low=True)
        check_range("speed_min", self.speed_min)
        check_range("speed_max", self.speed_max, self.speed_min)
        check_range("pause_time", self.pause_time)
        check_range("tick_seconds", self.tick_seconds, open_low=True)
        w, h = float(self.arena_width), float(self.arena_height)
        if not math.isfinite(w * w + h * h):
            raise ValidationError(f"arena_width**2 + arena_height**2 must be finite, got {w!r} and {h!r}")
        if not math.isfinite(float(self.speed_max) * float(self.tick_seconds)):
            raise ValidationError(
                f"speed_max * tick_seconds must be finite, got {self.speed_max!r} and {self.tick_seconds!r}"
            )


@dataclass
class RandomWaypointModel:
    """Mutable mobility state for a fleet of vehicles.

    The clock is an integer tick count, and tick k's time is the float
    ``k * tick_seconds``, so simulated time never drifts by summing a
    fractional tick length.
    The step keeps each vehicle's step length and a bound on
    ``pause_until``, so replace ``speed`` or ``pause_until`` only through
    ``set_state``. It also keeps the block of candidate rows it last drew
    and takes the next row of it each tick.
    """

    config: MobilityConfig
    rng: np.random.Generator
    tick: int = field(default=0, init=False)
    pos: np.ndarray = field(init=False)
    way: np.ndarray = field(init=False)
    speed: np.ndarray = field(init=False)
    pause_until: np.ndarray = field(init=False)
    arena: np.ndarray = field(init=False)  # (2, n): the arena's width over its height, a column a vehicle

    def __post_init__(self) -> None:
        cfg = self.config
        n = cfg.vehicle_count
        self.arena = np.full((2, n), [[cfg.arena_width], [cfg.arena_height]], dtype=float)
        # row-major draws: every x, then every y, as two draws of n would be
        pos = self.rng.random((2, n)) * self.arena
        way = self.rng.random((2, n)) * self.arena
        speed = cfg.speed_min + self.rng.random(n) * (cfg.speed_max - cfg.speed_min)
        self.set_state(pos, way, speed, np.full(n, -np.inf))
        # the step's work buffers, (2, n) like the positions so that no call broadcasts
        self._d, self._sq, self._dist = np.empty((2, n)), np.empty((2, n)), np.empty((2, n))
        self._sq_swapped, self._dist0, self._zero = self._sq[::-1], self._dist[0], np.zeros((2, n))
        self._arrive = np.empty(n, dtype=bool)
        # candidate rows, refilled in place: a fresh block a draw, alive across ticks,
        # raised a 1 000-vehicle run's peak RSS by ~0.3 MB
        self._cands = np.empty((draw_rows(n), n, 3))
        self._row = len(self._cands)  # the first step draws

    def set_state(self, pos, way, speed, pause_until, tick: int = 0) -> None:
        """Put the fleet in the given state, with the step lengths and pause bound the step keeps."""
        self.pos, self.way, self.speed, self.pause_until, self.tick = pos, way, speed, pause_until, tick
        step_len = speed * self.config.tick_seconds
        self._step_len = np.stack((step_len, step_len))  # refreshed wherever speed changes
        self._step_len0 = self._step_len[0]
        self._pause_bound = float(np.max(pause_until))  # no vehicle is paused from this time on

    def step(self, out: np.ndarray | None = None) -> None:
        """Advance every vehicle by one tick: a paused one stands still, one
        that can reach its waypoint snaps onto it, pauses and takes a fresh
        waypoint and speed from its row of the tick's triples, and the rest
        move ``speed * tick_seconds`` toward their waypoints. The triples are
        the next row of the kept ``(k, n, 3)`` block, refilled by one draw
        when it runs out.

        The new positions go into ``out``, a ``(2, n)`` array that is ``pos``
        or does not overlap it, and ``out`` becomes ``pos``; by default, ``pos``.

        Every lane runs the same move; a held lane, paused or arriving, gets
        ``dist = inf`` and so steps ``d / inf * step_len = ±0``. The pause
        mask is built only while some vehicle may still be paused, and the
        held lanes' ``dist`` is set only on a tick with an arrival or a
        pending pause.
        """
        cfg = self.config
        row = self._row
        if row == len(self._cands):
            self.rng.random(out=self._cands)
            row = 0
        self._row = row + 1
        p, w, step_len, now = self.pos, self.way, self._step_len, float(self.tick * cfg.tick_seconds)
        out = p if out is None else out
        d, sq, dist = self._d, self._sq, self._dist
        np.subtract(w, p, out=d)
        np.multiply(d, d, out=sq)
        # both rows of dist are the distance: IEEE addition commutes, so dx² + dy² == dy² + dx²
        np.sqrt(np.add(sq, self._sq_swapped, out=dist), out=dist)
        arrive = hold = np.less_equal(self._dist0, self._step_len0, out=self._arrive)
        if now < self._pause_bound:
            paused = now < self.pause_until
            hold = arrive | paused
            arrive &= ~paused
        arrivals = np.count_nonzero(arrive)

        # p + ±0 == p as positions are never -0.0: draws and waypoints are +0.0 or more,
        # and an IEEE sum is -0.0 only when both of its terms are
        if arrivals or hold is not arrive:
            np.copyto(dist, np.inf, where=hold)
        np.add(p, np.multiply(np.divide(d, dist, out=d), step_len, out=d), out=out)

        if arrivals:
            cand = self._cands[row]
            np.copyto(out, w, where=arrive)
            until = now + cfg.pause_time
            np.copyto(self.pause_until, until, where=arrive)
            self._pause_bound = max(self._pause_bound, until)
            np.multiply(cand[:, :2].T, self.arena, out=w, where=arrive)
            np.add(cfg.speed_min, cand[:, 2] * (cfg.speed_max - cfg.speed_min), out=self.speed, where=arrive)
            np.multiply(self.speed, cfg.tick_seconds, out=step_len, where=arrive)

        # guard against 1-ulp overshoot past the arena edge
        np.minimum(np.maximum(out, self._zero, out=out), self.arena, out=out)
        self.pos = out
        self.tick += 1

    def position_of(self, vehicle_id: int) -> tuple[float, float]:
        return (float(self.pos[0, vehicle_id]), float(self.pos[1, vehicle_id]))
