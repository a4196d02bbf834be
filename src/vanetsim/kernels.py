"""Hot per-tick kernels: radio contact detection and waypoint stepping.

There is one waypoint step, in numpy, and one ``contact_pairs``. Contact
detection picks its algorithm by fleet size alone: below
KDTREE_MIN_VEHICLES a quadratic numpy distance scan is cheapest, because
call overhead dominates; from there on a k-d tree range search (scipy's
cKDTree, Bentley 1975) wins, by more than an order of magnitude at 1 000
vehicles. Both branches keep a pair when ``dx*dx + dy*dy <= r*r`` and
return pairs sorted by (a, b), so the switch never changes a run's
output. ``benchmarks/bench_kernels.py`` measures the crossover that sets
the constant.
"""

from __future__ import annotations

import numpy as np

# Fleets at least this large use the k-d tree; smaller ones the quadratic scan.
KDTREE_MIN_VEHICLES = 64


def _contact_pairs_numpy(x: np.ndarray, y: np.ndarray, radio_range: float):
    """All unordered index pairs within radio_range, lexicographically sorted.

    Full distance matrix, so memory grows as n**2: meant for small fleets.
    """
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    ii, jj = np.nonzero(dx * dx + dy * dy <= radio_range * radio_range)
    keep = ii < jj  # upper triangle only: each pair once, a < b
    # row-major enumeration is already lexicographic in (a, b)
    return ii[keep].astype(np.int64), jj[keep].astype(np.int64)


def _contact_pairs_kdtree(x: np.ndarray, y: np.ndarray, radio_range: float):
    """The same pairs as the quadratic scan, from a k-d tree range search."""
    from scipy.spatial import cKDTree  # only large fleets pay for the import

    pairs = cKDTree(np.column_stack((x, y))).query_pairs(radio_range, output_type="ndarray")
    a, b = pairs[:, 0], pairs[:, 1]  # query_pairs already yields a < b
    order = np.lexsort((b, a))
    return a[order].astype(np.int64), b[order].astype(np.int64)


def contact_pairs(x: np.ndarray, y: np.ndarray, radio_range: float):
    """Unordered vehicle-index pairs within radio range, sorted by (a, b)."""
    if x.shape[0] >= KDTREE_MIN_VEHICLES:
        return _contact_pairs_kdtree(x, y, radio_range)
    return _contact_pairs_numpy(x, y, radio_range)


def waypoint_step(
    x, y, wx, wy, speed, pause_until, vx, vy, cand, now, dt, arena_w, arena_h, speed_min, speed_max, pause_time
) -> None:
    """Advance all vehicles one tick of random-waypoint motion, in place.

    Paused vehicles stand still; a vehicle that can reach its waypoint this
    tick snaps onto it, starts its pause and takes a fresh waypoint and
    speed from its row of ``cand``; every other vehicle moves ``speed * dt``
    toward its waypoint.
    """
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

    # guard against 1-ulp overshoot past the arena edge
    np.clip(x, 0.0, arena_w, out=x)
    np.clip(y, 0.0, arena_h, out=y)
