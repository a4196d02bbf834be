"""Time contact detection per tick, three ways, and the waypoint step.

Contact detection: the two pair lists a run can keep, all pairs and the
Verlet neighbour list, and a full distance-matrix scan (the quadratic
oracle the acceptance test checks them against), each per tick over the
same random-waypoint trajectory (speeds 5-15 m/s, 1 s ticks, 100 m radio
range). The rows run at the baseline density (15 vehicles per 800x800 m),
then one more at perfbench's dense_fleet shape, 300 vehicles in 800 m.
Each list starts empty, as in a run, and its time includes its builds;
for the Verlet list the table also gives its rebuild count and splits its
time per tick into builds and filtering. The baseline rows show where the
Verlet list starts to beat the all-pairs list; that crossover is what
``kernels.NEIGHBOUR_LIST_MIN_VEHICLES`` is set from.
Waypoint stepping: one numpy tick per call at the baseline sizes.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --sizes 75,100,128 --ticks 300
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from vanetsim import kernels
from vanetsim.mobility import MobilityConfig, RandomWaypointModel

RADIO_RANGE = 100.0
SPEED_MAX = 15.0
TICK_SECONDS = 1.0
SKIN = min(RADIO_RANGE, 4.0 * SPEED_MAX * TICK_SECONDS)  # the rule engine.run uses
DENSE = (300, 800.0)  # perfbench's dense_fleet: vehicles, arena side in metres


def baseline_arena(n: int) -> float:
    """Side of the square arena that holds n vehicles at baseline density."""
    return 800.0 * (n / 15.0) ** 0.5


def trajectory(n: int, arena: float, ticks: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Positions of an n-vehicle fleet in a square arena at ticks 0..ticks."""
    cfg = MobilityConfig(vehicle_count=n, arena_width=arena, arena_height=arena, speed_max=SPEED_MAX)
    model = RandomWaypointModel(cfg, np.random.default_rng(n))
    frames = [(model.x.copy(), model.y.copy())]
    for _ in range(ticks):
        model.step()
        frames.append((model.x.copy(), model.y.copy()))
    return frames


class MatrixScan:
    """The quadratic oracle: a full distance matrix, upper triangle."""

    def pairs(self, x: np.ndarray, y: np.ndarray, radio_range: float):
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        ii, jj = np.nonzero(dx * dx + dy * dy <= radio_range * radio_range)
        keep = ii < jj
        return ii[keep], jj[keep]


class TimedNeighbourList(kernels.NeighbourList):
    """A Verlet list that counts its builds and the seconds they take."""

    def __init__(self, skin: float) -> None:
        super().__init__(skin)
        self.builds, self.build_s = 0, 0.0

    def _build(self, z: np.ndarray, cutoff: float) -> None:
        start = time.perf_counter()
        super()._build(z, cutoff)
        self.build_s += time.perf_counter() - start
        self.builds += 1


def time_per_tick(make_list, frames):
    """Best of three mean seconds per tick over the whole trajectory, and that trial's list.

    ``make_list(n)`` returns a fresh pair list, so a list is built inside
    each trial, as it is in each run.
    """
    best, best_list = float("inf"), None
    for _ in range(3):
        start = time.perf_counter()
        pair_list = make_list(len(frames[0][0]))
        for x, y in frames:
            pair_list.pairs(x, y, RADIO_RANGE)
        seconds = (time.perf_counter() - start) / len(frames)
        if seconds < best:
            best, best_list = seconds, pair_list
    return best, best_list


def bench_contacts(sizes: list[int], ticks: int) -> int | None:
    """Print the per-tick table; return the smallest size from which the Verlet list beats all pairs."""
    print(f"\ncontact detection per tick (radio range {RADIO_RANGE:g} m, skin {SKIN:g} m, {ticks} ticks)")
    header = (f"{'n':>6}  {'arena':>7}  {'matrix':>11}  {'all pairs':>11}  {'verlet':>11}  {'all/verlet':>10}"
              f"  {'rebuilds':>8}  {'build':>11}  {'filter':>11}")
    print(header)
    print("-" * len(header))
    crossover = None
    for n, arena in [(n, baseline_arena(n)) for n in sizes] + [DENSE]:
        frames = trajectory(n, arena, ticks)
        t_scan, _ = time_per_tick(lambda n: MatrixScan(), frames)
        t_all, _ = time_per_tick(kernels.AllPairs, frames)
        t_verlet, verlet = time_per_tick(lambda n: TimedNeighbourList(SKIN), frames)
        t_build = verlet.build_s / len(frames)
        ratio = t_all / t_verlet
        if (n, arena) != DENSE:
            if ratio <= 1.0:
                crossover = None
            elif crossover is None:
                crossover = n
        print(f"{n:>6}  {arena:>6.0f}m  {t_scan * 1e6:>9.1f}us  {t_all * 1e6:>9.1f}us  {t_verlet * 1e6:>9.1f}us"
              f"  {ratio:>9.2f}x  {verlet.builds:>8}  {t_build * 1e6:>9.1f}us  {(t_verlet - t_build) * 1e6:>9.1f}us")
    return crossover


def bench_waypoints(sizes: list[int], repeats: int) -> None:
    print("\nwaypoint stepping (one tick, pause 2 s)")
    header = f"{'n':>6}  {'per call':>11}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        rng = np.random.default_rng(n)
        arena = baseline_arena(n)
        state = (
            rng.random(n) * arena, rng.random(n) * arena,
            rng.random(n) * arena, rng.random(n) * arena,
            5.0 + rng.random(n) * 10.0, np.full(n, -np.inf),
            np.zeros(n), np.zeros(n),
        )
        cand = rng.random((n, 3))
        common = (arena, arena, 5.0, 15.0, 2.0)
        # the clock advances a tick per call, so pauses end and vehicles keep
        # moving and arriving as in a run
        tick = 0
        kernels.waypoint_step(*state, cand, 0.0, 1.0, *common)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for tick in range(tick + 1, tick + 1 + repeats):
                kernels.waypoint_step(*state, cand, float(tick), 1.0, *common)
            best = min(best, (time.perf_counter() - start) / repeats)
        print(f"{n:>6}  {best * 1e6:>9.1f}us")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", default="15,30,50,64,75,100,128,300,1000",
        help="comma-separated fleet sizes at the baseline density, ascending; the dense row always runs"
        " (default 15,30,50,64,75,100,128,300,1000)",
    )
    parser.add_argument("--ticks", type=int, default=100, help="trajectory length per size (default 100)")
    parser.add_argument("--repeats", type=int, default=100, help="waypoint-step calls per trial (default 100)")
    args = parser.parse_args()
    sizes = sorted(int(s) for s in args.sizes.split(",") if s.strip())

    crossover = bench_contacts(sizes, args.ticks)
    if crossover is None:
        print("\nthe Verlet list does not beat all pairs at the largest size measured")
    else:
        print(f"\nthe Verlet list beats all pairs from n={crossover} on, among the sizes measured")
    print(f"engine.run keeps it from n >= NEIGHBOUR_LIST_MIN_VEHICLES = {kernels.NEIGHBOUR_LIST_MIN_VEHICLES}")
    bench_waypoints(sizes, args.repeats)


if __name__ == "__main__":
    main()
