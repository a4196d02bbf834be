"""Hot per-tick kernels: radio contact detection and waypoint stepping.

There is one waypoint step and one cell-grid search, both numpy. Every
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
A one-shot ``contact_pairs`` filters a fresh list of the same kind.
``benchmarks/bench_kernels.py`` times both lists per tick; where the
Verlet list starts to beat all pairs sets the constant.

The Verlet list keeps its pair-sized work arrays for its whole life, and
each call gathers positions once, as one complex array. With 300 vehicles
in 800 m a build tests ~18 000 candidate pairs and a tick filters ~7 400
list pairs, so fresh temporaries would be 59-290 KB each: glibc maps those
over its 128 KiB mmap threshold afresh on every call, and trims the heap
above it, so their pages fault in again each time. Kept buffers took a
build there from ~950 to ~330-520 us and a tick's filter from ~210 to
~65-100 us on a 2-core Xeon (numpy 2.4). ``AllPairs`` keeps plain
temporaries: at 15 vehicles (105 pairs) they stay under 2 KB, so there is
no churn to save, and the buffered filter took the same ~6 us a tick.
"""

from __future__ import annotations

import numpy as np

# Fleets at least this large keep a Verlet list, smaller ones all pairs; a
# one-shot call filters a fresh list of the same kind.
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


class AllPairs:
    """Every pair of an n-vehicle fleet, in (a, b) order; each call keeps those in range."""

    def __init__(self, n: int) -> None:
        a, b = np.triu_indices(n, 1)  # row-major, so already in (a, b) order
        self.a, self.b = a.astype(np.int64), b.astype(np.int64)

    def pairs(self, x: np.ndarray, y: np.ndarray, radio_range: float):
        dx, dy = x[self.a] - x[self.b], y[self.a] - y[self.b]
        near = dx * dx + dy * dy <= radio_range * radio_range
        return self.a[near], self.b[near]


class NeighbourList:
    """Verlet list for one fleet: every pair within ``radio_range + skin``.

    Filtering it gives exactly the pairs in range as long as no vehicle has
    moved more than ``skin / 2`` since the list was built: a pair in range
    now was within ``r + skin`` then. Past that displacement, on a new radio
    range or a new fleet size, a call rebuilds the list from the cell grid
    first (Verlet 1967). The rule assumes no speed bound, so it holds for
    any motion.

    The list and the arrays of every distance test live in buffers the list
    keeps for its whole life; a build that needs more room doubles them.
    Only the candidate indices a build expands with ``np.repeat`` and the
    indices of the pairs in range are fresh, and so are the pairs a call
    returns.
    """

    def __init__(self, skin: float) -> None:
        self.skin = skin
        self.radio_range: float | None = None  # none yet: the first call builds the list
        self.z0 = np.zeros(0, np.complex128)
        self._grow(0)
        self.a, self.b = self._a, self._b

    def _grow(self, size: int) -> None:
        """Buffers for ``size`` pairs: the list is a prefix of ``_a`` and ``_b``."""
        self._za, self._zb = np.empty(size, np.complex128), np.empty(size, np.complex128)
        self._d2 = np.empty(size)
        self._a, self._b = np.empty(size, np.int64), np.empty(size, np.int64)
        self._iota = np.arange(size, dtype=np.int64)

    def _stale(self, z: np.ndarray, radio_range: float) -> bool:
        if radio_range != self.radio_range or z.shape != self.z0.shape:
            return True
        v = (z - self.z0).view(np.float64)  # dx, dy interleaved
        v *= v
        return bool(np.maximum.reduce(v[0::2] + v[1::2], initial=0.0) > 0.25 * self.skin * self.skin)

    def _near(self, z: np.ndarray, a: np.ndarray, b: np.ndarray, cutoff: float) -> np.ndarray:
        """Indices k of the pairs (a[k], b[k]) of points z that lie within cutoff."""
        m = len(a)
        d = z.take(a, out=self._za[:m], mode="clip")
        d -= z.take(b, out=self._zb[:m], mode="clip")
        v = d.view(np.float64)  # dx, dy interleaved
        v *= v
        d2 = np.add(v[0::2], v[1::2], out=self._d2[:m])
        return (d2 <= cutoff * cutoff).nonzero()[0]

    def _build(self, z: np.ndarray, cutoff: float) -> None:
        """Every pair within cutoff, sorted by (a, b), from a cell-grid range search."""
        n = z.shape[0]
        if n < 2:
            self.a, self.b = self._a[:0], self._b[:0]
            return
        x, y = z.real, z.imag
        x0, y0 = x.min(), y.min()
        span = max(x.max() - x0, y.max() - y0)
        # a huge span over a tiny range coarsens the cells instead of overflowing
        side = max(cutoff * (1.0 + _CELL_MARGIN), span / _MAX_CELLS) or 1.0
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
        total = int(count.sum())
        if total > len(self._d2):
            self._grow(max(total, 2 * len(self._d2)))
        owner = np.repeat(np.concatenate((pos, pos)), count)
        other = np.repeat(start - (np.cumsum(count) - count), count)
        other += self._iota[:total]  # the k-th candidate of an owner sits at start + k
        near = self._near(z[order], owner, other, cutoff)

        # the pairs in range as (min, max) of their vehicle indices, sorted
        # by the code a * n + b
        k = len(near)
        a = owner.take(near, out=self._a[:k], mode="clip")
        b = other.take(near, out=self._b[:k], mode="clip")
        i = order.take(a, out=owner[:k], mode="clip")
        j = order.take(b, out=other[:k], mode="clip")
        np.minimum(i, j, out=a)
        np.maximum(i, j, out=b)
        code = np.multiply(a, n, out=i)
        code += b
        code.sort()
        np.floor_divide(code, n, out=a)
        np.subtract(code, np.multiply(a, n, out=b), out=b)
        self.a, self.b = a, b

    def pairs(self, x: np.ndarray, y: np.ndarray, radio_range: float):
        z = np.empty(x.shape[0], np.complex128)  # one gather per pair end: (z[a] - z[b]).real == dx
        z.real, z.imag = x, y
        if self._stale(z, radio_range):
            self._build(z, (radio_range + self.skin) * (1.0 + _LIST_MARGIN))
            self.z0 = z
            self.radio_range = radio_range
        near = self._near(z, self.a, self.b, radio_range)
        return self.a[near], self.b[near]


def contact_pairs(x: np.ndarray, y: np.ndarray, radio_range: float,
                  neighbours: AllPairs | NeighbourList | None = None):
    """Unordered vehicle-index pairs within radio range, sorted by (a, b).

    With ``neighbours`` the pairs come from (and refresh) that list; without
    it this is a one-shot search through a fresh list, all pairs below
    NEIGHBOUR_LIST_MIN_VEHICLES and the cell grid from there on.
    """
    if neighbours is None:
        n = x.shape[0]
        neighbours = AllPairs(n) if n < NEIGHBOUR_LIST_MIN_VEHICLES else NeighbourList(0.0)
    return neighbours.pairs(x, y, radio_range)


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

    if np.count_nonzero(arrive):
        np.copyto(x, wx, where=arrive)
        np.copyto(y, wy, where=arrive)
        np.copyto(pause_until, now + pause_time, where=arrive)
        np.multiply(cand[:, 0], arena_w, out=wx, where=arrive)
        np.multiply(cand[:, 1], arena_h, out=wy, where=arrive)
        np.add(speed_min, cand[:, 2] * (speed_max - speed_min), out=speed, where=arrive)

    # guard against 1-ulp overshoot past the arena edge (positions are never -0.0)
    np.minimum(np.maximum(x, 0.0, out=x), arena_w, out=x)
    np.minimum(np.maximum(y, 0.0, out=y), arena_h, out=y)
