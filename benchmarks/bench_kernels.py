"""Time the two contact-detection branches and the waypoint step.

Contact detection: the quadratic numpy scan against the k-d tree range
search, per call, at the baseline density (15 vehicles per 800x800 m,
100 m radio range). The table shows where the k-d tree starts to win;
that crossover is what ``kernels.KDTREE_MIN_VEHICLES`` is set from.
Waypoint stepping: one numpy tick per call at the same sizes.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --sizes 50,64,100 --repeats 200
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from vanetsim import kernels

RADIO_RANGE = 100.0


def time_call(fn, *args, repeats: int) -> float:
    """Best of three mean seconds per call, after one warmup invocation."""
    fn(*args)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn(*args)
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def baseline_arena(n: int) -> float:
    """Side of the square arena that holds n vehicles at baseline density."""
    return 800.0 * (n / 15.0) ** 0.5


def bench_contacts(sizes: list[int], repeats: int) -> int | None:
    """Print the per-call table; return the smallest size from which the tree wins."""
    print(f"\ncontact detection (radio range {RADIO_RANGE:g} m, baseline density)")
    header = f"{'n':>6}  {'numpy':>11}  {'kdtree':>11}  {'numpy/kdtree':>12}"
    print(header)
    print("-" * len(header))
    crossover = None
    for n in sizes:
        rng = np.random.default_rng(n)
        arena = baseline_arena(n)
        x, y = rng.random(n) * arena, rng.random(n) * arena
        t_np = time_call(kernels._contact_pairs_numpy, x, y, RADIO_RANGE, repeats=repeats)
        t_kd = time_call(kernels._contact_pairs_kdtree, x, y, RADIO_RANGE, repeats=repeats)
        ratio = t_np / t_kd
        if ratio <= 1.0:
            crossover = None
        elif crossover is None:
            crossover = n
        print(f"{n:>6}  {t_np * 1e6:>9.1f}us  {t_kd * 1e6:>9.1f}us  {ratio:>11.2f}x")
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
        common = (cand, 0.0, 1.0, arena, arena, 5.0, 15.0, 2.0)
        t = time_call(kernels.waypoint_step, *state, *common, repeats=repeats)
        print(f"{n:>6}  {t * 1e6:>9.1f}us")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", default="15,30,50,75,100,300,1000",
        help="comma-separated fleet sizes, ascending (default 15,30,50,75,100,300,1000)",
    )
    parser.add_argument("--repeats", type=int, default=100)
    args = parser.parse_args()
    sizes = sorted(int(s) for s in args.sizes.split(",") if s.strip())

    crossover = bench_contacts(sizes, args.repeats)
    if crossover is None:
        print("\nthe k-d tree does not win at the largest size measured")
    else:
        print(f"\nthe k-d tree wins from n={crossover} on, among the sizes measured")
    print(f"contact_pairs switches to it at n >= KDTREE_MIN_VEHICLES = {kernels.KDTREE_MIN_VEHICLES}")
    bench_waypoints(sizes, args.repeats)


if __name__ == "__main__":
    main()
