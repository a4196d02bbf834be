"""Hot per-tick kernels: radio contact detection and waypoint stepping.

There is one waypoint step and one ``contact_pairs``, both numpy. Every
contact test is the same predicate, ``dx*dx + dy*dy <= r*r``, and every
pair list comes out sorted by (a, b) with a < b, so the choice of
algorithm never changes a run's output.

Every run keeps one pair list and filters it each tick. Below
NEIGHBOUR_LIST_MIN_VEHICLES, where call overhead outweighs the pairs
tested, it is ``AllPairs``, built once; from there on it is a Verlet
``NeighbourList`` of the pairs within ``r + skin``, rebuilt once some
vehicle has moved more than ``skin / 2`` (Verlet 1967) by a cell-grid
range search. The grid sorts vehicles by the key of a square cell a hair
wider than the cutoff, so a pair in range lies in one cell or in two
adjacent ones, and compares each cell with itself and four neighbours
(cell lists; Allen & Tildesley, *Computer Simulation of Liquids*, §5.3).
A one-shot call scans all pairs below the constant and uses the grid from
it on. ``benchmarks/bench_kernels.py`` times both lists and the scan per
tick; where the Verlet list starts to beat all pairs sets the constant.
"""

from __future__ import annotations

import numpy as np

# Fleets at least this large keep a Verlet list (and a one-shot call uses the
# cell grid); smaller ones keep all pairs (and a one-shot call scans them).
NEIGHBOUR_LIST_MIN_VEHICLES = 100

# Cells are this much wider than the cutoff, so rounding in the cell index
# can never put two points in range two cells apart.
_CELL_MARGIN = 1e-6
# At most this many cells per axis: keys stay far inside int64, and cell
# indices stay small enough for _CELL_MARGIN to cover their rounding.
_MAX_CELLS = 1 << 20
# The neighbour list keeps pairs this much (relative) beyond r + skin, which
# covers the rounding in the displacement test and the distances.
_LIST_MARGIN = 1e-9


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


def _contact_pairs_grid(x: np.ndarray, y: np.ndarray, radio_range: float):
    """The same pairs as the quadratic scan, from a cell-grid range search."""
    n = x.shape[0]
    if n < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    x0, y0 = x.min(), y.min()
    span = max(x.max() - x0, y.max() - y0)
    # a huge span over a tiny range coarsens the cells instead of overflowing
    side = max(radio_range * (1.0 + _CELL_MARGIN), span / _MAX_CELLS) or 1.0
    cx = ((x - x0) / side).astype(np.int64)
    cy = ((y - y0) / side).astype(np.int64) + 1
    rows = int(cy.max()) + 2  # the first and last rows stay empty: cy -/+ 1 never wraps
    key = cx * rows + cy
    order = np.argsort(key)
    sorted_key = key[order]

    # Each vehicle visits its own cell and four of its eight neighbours, so
    # each pair of cells is visited once. Keys run up a column, so those five
    # cells are two runs of sorted_key: its own cell (only the vehicles after
    # it) and the one above, then the three cells of the next column.
    pos = np.arange(n)
    start = np.concatenate((pos + 1, np.searchsorted(sorted_key, sorted_key + (rows - 1))))
    end = np.searchsorted(sorted_key, np.concatenate((sorted_key + 2, sorted_key + (rows + 2))))
    count = end - start
    owner = np.repeat(np.concatenate((pos, pos)), count)
    # the k-th candidate of an owner sits at start + k
    other = np.arange(int(count.sum())) + np.repeat(start - (np.cumsum(count) - count), count)
    i, j = order[owner], order[other]

    dx = x[i] - x[j]
    dy = y[i] - y[j]
    near = dx * dx + dy * dy <= radio_range * radio_range
    i, j = i[near], j[near]
    code = np.minimum(i, j) * n + np.maximum(i, j)
    code.sort()
    return code // n, code % n


class AllPairs:
    """Every pair of an n-vehicle fleet, in (a, b) order; each call keeps those in range."""

    def __init__(self, n: int) -> None:
        a, b = np.triu_indices(n, 1)  # row-major, so already in (a, b) order
        self.a, self.b = a.astype(np.int64), b.astype(np.int64)

    def pairs(self, x: np.ndarray, y: np.ndarray, radio_range: float):
        dx = x[self.a] - x[self.b]
        dy = y[self.a] - y[self.b]
        near = dx * dx + dy * dy <= radio_range * radio_range
        return self.a[near], self.b[near]


class NeighbourList(AllPairs):
    """Verlet list for one fleet: every pair within ``radio_range + skin``.

    Filtering it gives exactly ``contact_pairs``' pairs as long as no
    vehicle has moved more than ``skin / 2`` since the list was built: a
    pair in range now was within ``r + skin`` then. Past that displacement,
    or on a new radio range, a call rebuilds the list from the cell grid
    first (Verlet 1967). The rule assumes no speed bound, so it holds for
    any motion.
    """

    def __init__(self, skin: float) -> None:
        self.skin = skin
        self.radio_range: float | None = None
        self.x0 = self.y0 = self.a = self.b = None

    def _stale(self, x: np.ndarray, y: np.ndarray, radio_range: float) -> bool:
        if radio_range != self.radio_range:
            return True
        dx = x - self.x0
        dy = y - self.y0
        return bool((dx * dx + dy * dy).max(initial=0.0) > 0.25 * self.skin * self.skin)

    def pairs(self, x: np.ndarray, y: np.ndarray, radio_range: float):
        if self._stale(x, y, radio_range):
            cutoff = (radio_range + self.skin) * (1.0 + _LIST_MARGIN)
            self.a, self.b = _contact_pairs_grid(x, y, cutoff)
            self.x0, self.y0 = x.copy(), y.copy()
            self.radio_range = radio_range
        return super().pairs(x, y, radio_range)


def contact_pairs(x: np.ndarray, y: np.ndarray, radio_range: float, neighbours: AllPairs | None = None):
    """Unordered vehicle-index pairs within radio range, sorted by (a, b).

    With ``neighbours`` the pairs come from (and refresh) that list; without
    it this is a one-shot search.
    """
    if neighbours is not None:
        return neighbours.pairs(x, y, radio_range)
    if x.shape[0] >= NEIGHBOUR_LIST_MIN_VEHICLES:
        return _contact_pairs_grid(x, y, radio_range)
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
    move = ~(arrive | paused)

    # each where= lane goes through the same IEEE operations as a masked gather would
    np.divide(dx, dist, out=dx, where=move)  # unit vector toward the waypoint
    np.divide(dy, dist, out=dy, where=move)
    vx.fill(0.0)  # arriving and paused vehicles stand
    vy.fill(0.0)
    np.multiply(dx, speed, out=vx, where=move)
    np.multiply(dy, speed, out=vy, where=move)
    np.add(x, np.multiply(dx, step_len, out=dx, where=move), out=x, where=move)
    np.add(y, np.multiply(dy, step_len, out=dy, where=move), out=y, where=move)

    if arrive.any():
        np.copyto(x, wx, where=arrive)
        np.copyto(y, wy, where=arrive)
        np.copyto(pause_until, now + pause_time, where=arrive)
        np.multiply(cand[:, 0], arena_w, out=wx, where=arrive)
        np.multiply(cand[:, 1], arena_h, out=wy, where=arrive)
        np.add(speed_min, cand[:, 2] * (speed_max - speed_min), out=speed, where=arrive)

    # guard against 1-ulp overshoot past the arena edge (positions are never -0.0)
    np.minimum(np.maximum(x, 0.0, out=x), arena_w, out=x)
    np.minimum(np.maximum(y, 0.0, out=y), arena_h, out=y)
