"""Time contact detection per tick, three ways, and the waypoint step.

Contact detection: the two pair lists a run can keep, all pairs and the
Verlet neighbour list, and a full distance-matrix scan (the quadratic
oracle the acceptance test checks them against), each per tick over the
same random-waypoint trajectory (speeds 5-15 m/s, 1 s ticks, 100 m radio
range). Every list is handed blocks of ticks through the one ``pairs``
interface, at its own ``block`` width, as every run filters it (the
all-pairs width is given in the table, the Verlet width in the column's
name); the matrix scan takes one row a call.
The rows run at the baseline density (15 vehicles per 800x800 m), then
one more at perfbench's dense_fleet shape, 300 vehicles in 800 m. Each
list starts empty, as in a run, and its time includes its builds; for
the Verlet list the table also gives its rebuild count and splits its
time per tick into builds (the cell grid's count-table search) and
filtering, and times its builds once more with the ``ordered`` flag
cleared, which skips the build's sort, as a run builds once every vehicle
carries the packet. The count follows from the list's schedule, not from
the trajectory: at top speed half the skin is 2 ticks, so a build serves
the 2 ticks either side of it, one build per five-tick block, from its
middle tick (21 in 101 ticks).
Each size times the lists in alternating trials over its one
trajectory: all pairs, the Verlet list, then the unordered Verlet list,
then the other way round, seven trials in all. A time is the median over
trials, and the all/verlet ratio the median of the trials' ratios, so a
drift in the host's speed during a run moves both sides of a ratio alike.
The baseline rows show where the Verlet list starts to beat the
all-pairs list; that crossover is what
``kernels.NEIGHBOUR_LIST_MIN_VEHICLES`` is set from.
Waypoint stepping: ``RandomWaypointModel.step``, the call a run makes
every tick, its share of the candidate draws included (one draw of rows
for ``mobility.draw_rows(n)`` ticks), at the baseline sizes, with no
pause and with a 2 s pause (while a vehicle may still be paused, the step
also builds a pause mask), in place, and with no pause once more with
``step(out=...)`` into two alternating contiguous ``(2, n)`` slots, as
``engine.contacts`` steps the fleet into its block.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --sizes 75,100,128 --ticks 300
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from vanetsim import kernels
from vanetsim.mobility import MobilityConfig, RandomWaypointModel

RADIO_RANGE = 100.0
SPEED_MAX = 15.0
TICK_SECONDS = 1.0
DENSE = (300, 800.0)  # perfbench's dense_fleet: vehicles, arena side in metres
MAX_STEP = SPEED_MAX * TICK_SECONDS  # the longest step a vehicle takes, as a run tells its Verlet list
SKIN = kernels.pair_list(DENSE[0], RADIO_RANGE, MAX_STEP).skin  # a run's Verlet list skin
TRIALS = 7  # trials per size; an odd count, so each median is one trial's


def baseline_arena(n: int) -> float:
    """Side of the square arena that holds n vehicles at baseline density."""
    return 800.0 * (n / 15.0) ** 0.5


def trajectory(n: int, arena: float, ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y of an n-vehicle fleet in a square arena at ticks 0..ticks, one row a tick."""
    cfg = MobilityConfig(vehicle_count=n, arena_width=arena, arena_height=arena, speed_max=SPEED_MAX)
    model = RandomWaypointModel(cfg, np.random.default_rng(n))
    frames = [model.pos.copy()]
    for _ in range(ticks):
        model.step()
        frames.append(model.pos.copy())
    xs, ys = np.stack(frames, axis=1)
    return xs, ys


class MatrixScan:
    """The quadratic oracle: a full distance matrix, upper triangle, over a block of one row."""

    def pairs(self, xs: np.ndarray, ys: np.ndarray):
        (x,), (y,) = xs, ys
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        ii, jj = np.nonzero(dx * dx + dy * dy <= RADIO_RANGE * RADIO_RANGE)
        keep = ii < jj
        return ii[keep], jj[keep], [np.count_nonzero(keep)]


class TimedNeighbourList(kernels.NeighbourList):
    """A Verlet list that counts its builds and the seconds they take."""

    def __init__(self, radio_range: float, skin: float, max_step: float, ordered: bool = True) -> None:
        super().__init__(radio_range, skin, max_step)
        self.ordered = ordered
        self.builds, self.build_s = 0, 0.0

    def _build(self, z: np.ndarray, cutoff: float) -> None:
        start = time.perf_counter()
        super()._build(z, cutoff)
        self.build_s += time.perf_counter() - start
        self.builds += 1


def per_tick(make_list, xs, ys, block=1):
    """Mean seconds per tick over the whole trajectory, and the list that filtered it.

    ``make_list(n)`` returns a fresh pair list, so a list is built inside
    each trial, as it is in each run. Each call filters a block of
    ``block`` ticks' rows.
    """
    start = time.perf_counter()
    pair_list = make_list(xs.shape[1])
    for first in range(0, len(xs), block):
        pair_list.pairs(xs[first:first + block], ys[first:first + block])
    return (time.perf_counter() - start) / len(xs), pair_list


def paired(xs, ys, all_block, verlet_block):
    """All pairs against the Verlet list over one trajectory, in TRIALS trials.

    A trial times all pairs, the Verlet list and the Verlet list with its
    ``ordered`` flag cleared back to back, in that order on even trials
    and the other way round on odd ones. Returns the median seconds per
    tick of the first two, the median over trials of all pairs' time over
    the Verlet list's, the median build seconds per tick of the Verlet
    list and of the unordered one, and the Verlet list's build count.
    """
    def verlet(ordered):
        return lambda: per_tick(lambda n: TimedNeighbourList(RADIO_RANGE, SKIN, MAX_STEP, ordered), xs, ys,
                                verlet_block)

    sides = (lambda: per_tick(lambda n: kernels.AllPairs(n, RADIO_RANGE), xs, ys, all_block),
             verlet(True), verlet(False))
    runs = ([], [], [])
    for trial in range(TRIALS):
        for side in (0, 1, 2) if trial % 2 == 0 else (2, 1, 0):
            runs[side].append(sides[side]())
    (t_all, _), (t_verlet, verlets), (_, unordered) = (zip(*side) for side in runs)
    ratio = statistics.median(a / v for a, v in zip(t_all, t_verlet))
    t_build, t_unordered = (statistics.median(v.build_s for v in lists) / len(xs) for lists in (verlets, unordered))
    return statistics.median(t_all), statistics.median(t_verlet), ratio, t_build, t_unordered, verlets[0].builds


def since_first_win(crossover: int | None, n: int, ratio: float) -> int | None:
    """The smallest size so far from which the Verlet list beats all pairs at every size, n's included."""
    if ratio <= 1.0:
        return None
    return n if crossover is None else crossover


def bench_contacts(sizes: list[int], ticks: int) -> int | None:
    """Print the per-tick table; return the smallest size from which the Verlet list beats all pairs."""
    print(f"\ncontact detection per tick (radio range {RADIO_RANGE:g} m, skin {SKIN:g} m, {ticks} ticks)")
    width = kernels.NeighbourList(RADIO_RANGE, SKIN, MAX_STEP).block
    header = (f"{'n':>6}  {'arena':>7}  {'matrix':>11}  {'block':>5}  {'all, block':>11}"
              f"  {f'verlet, {width}':>11}  {'all/verlet':>10}  {f'rebuilds, {width}':>11}  {'build':>11}"
              f"  {'filter':>11}  {'build, no sort':>14}")
    print(header)
    print("-" * len(header))
    crossover = None
    for n, arena in [(n, baseline_arena(n)) for n in sizes] + [DENSE]:
        xs, ys = trajectory(n, arena, ticks)
        block = kernels.AllPairs(n, RADIO_RANGE).block  # the width a run filters all pairs at
        t_scan = statistics.median(per_tick(lambda n: MatrixScan(), xs, ys)[0] for _ in range(3))
        t_all, t_verlet, ratio, t_build, t_unordered, builds = paired(xs, ys, block, width)
        if (n, arena) != DENSE:
            crossover = since_first_win(crossover, n, ratio)
        print(f"{n:>6}  {arena:>6.0f}m  {t_scan * 1e6:>9.1f}us  {block:>5}  {t_all * 1e6:>9.1f}us"
              f"  {t_verlet * 1e6:>9.1f}us  {ratio:>9.2f}x  {builds:>11}  {t_build * 1e6:>9.1f}us"
              f"  {(t_verlet - t_build) * 1e6:>9.1f}us  {t_unordered * 1e6:>12.1f}us")
    return crossover


def bench_waypoints(sizes: list[int], repeats: int) -> None:
    # every perfbench workload runs pause 0, where the step builds no pause mask; the last
    # column steps into two alternating contiguous (2, n) slots, as engine.contacts does
    columns = (("pause 0 s", 0.0, False), ("pause 2 s", 2.0, False), ("0 s, in slots", 0.0, True))
    print("\nwaypoint stepping (RandomWaypointModel.step) per call")
    header = f"{'n':>6}" + "".join(f"  {label:>13}" for label, *_ in columns)
    print(header)
    print("-" * len(header))
    for n in sizes:
        arena = baseline_arena(n)
        row = f"{n:>6}"
        for _, pause, into_slots in columns:
            cfg = MobilityConfig(vehicle_count=n, arena_width=arena, arena_height=arena, speed_max=SPEED_MAX,
                                 pause_time=pause, tick_seconds=TICK_SECONDS)
            # the clock advances a tick per call, so pauses end and vehicles keep
            # moving and arriving as in a run
            model = RandomWaypointModel(cfg, np.random.default_rng(n))
            slots = np.empty((2, 2, n)) if into_slots else [None, None]
            model.step()
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for i in range(repeats):
                    model.step(slots[i & 1])
                best = min(best, (time.perf_counter() - start) / repeats)
            row += f"  {best * 1e6:>11.1f}us"
        print(row)


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
    print()
    if crossover is None:
        print("the Verlet list does not beat all pairs at the largest size measured")
    else:
        print(f"the Verlet list beats all pairs from n={crossover} on, among the sizes measured")
    print(f"kernels.pair_list picks it from n >= NEIGHBOUR_LIST_MIN_VEHICLES = {kernels.NEIGHBOUR_LIST_MIN_VEHICLES},"
          f" with skin {SKIN:g} m here")
    bench_waypoints(sizes, args.repeats)


if __name__ == "__main__":
    main()
