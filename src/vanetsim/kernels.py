"""Hot per-tick kernels: radio contact detection.

Every contact test is one function, ``_near``: ``dx*dx + dy*dy <= r*r``
over pairs of positions held as one complex array, so that
``(z[a] - z[b]).real`` is dx. It tests every pair of an all-pairs block
at once, and a Verlet list's candidates in a build and its pairs in each
row. Every pair comes out with a < b and, while the run routes, sorted by
(a, b), so the choice of algorithm never changes a run's output; a run
that only counts clears the Verlet list's ``ordered`` flag to skip the sort.

Every run keeps one pair list, from ``pair_list``, and filters every
tick through it. Below NEIGHBOUR_LIST_MIN_VEHICLES, where call overhead
outweighs the pairs tested, it is ``AllPairs``, built once; from there on it is a
Verlet ``NeighbourList`` of the pairs within ``r + skin`` (Verlet 1967),
built by a cell-grid range search on a schedule set by how far a vehicle
can move in a tick. The grid sorts vehicles by the key of a square cell a
hair wider than the cutoff, so a pair in range lies in one cell or in two
adjacent ones, and compares each cell with itself and four neighbours
(cell lists; Allen & Tildesley, *Computer Simulation of Liquids*, §5.3).
A table of per-cell counts, summed, gives where each cell's run of sorted
vehicles starts. The cells widen on a wide or sparse fleet, so neither
axis nor the grid has more than ``_CELLS_PER_VEHICLE`` cells per vehicle
and the table stays O(n) for any extents.
``benchmarks/bench_kernels.py`` times both lists per tick; where the
Verlet list starts to beat all pairs sets the constant.

A list serves one run, so its radio range is fixed when it is made.
Both lists have one entry point, ``pairs(xs, ys)``: it filters a
``(k, n)`` block of the x and y positions of k ticks, at most the list's
``block``, and returns ``(a, b, ends)``, where row i's pairs are
``a[ends[i - 1]:ends[i]]`` and ``b[...]`` (from 0 for row 0). ``AllPairs``
filters a block as one flat array, so it pays its per-call cost once for
up to ``block`` ticks. The Verlet list filters a block row by row, and
its caller's contract is that successive rows are successive ticks, each
moving a vehicle at most ``max_step``: a list built at tick c then serves
every tick within ``skin / (2 * max_step)`` ticks of c, before c as well
as after, so it is built at most once a call, from a middle row of the
block, and never tested for staleness. ``contact_pairs(xs, ys, neighbours)``
is the one call the engine makes a block.

Both lists keep ``_near``'s work arrays for their whole life: fresh
temporaries past glibc's 128 KiB mmap threshold would be mapped afresh,
their pages faulting in, on every call. ``AllPairs``'s are fixed, and its
``block`` keeps each within ``_KEPT_BYTES``, that threshold. The Verlet
list's grow with its candidates, ~18 000 in a build with 300 vehicles in
800 m, so they pass the threshold when they grow, not on every call.
"""

from __future__ import annotations

import math

import numpy as np

NEIGHBOUR_LIST_MIN_VEHICLES = 100

# Cells are this much wider than the cutoff, so rounding in the cell index
# can never put two points in range two cells apart.
_CELL_MARGIN = 1e-6
# Cells are coarsened so that neither axis, nor the grid as a whole, has
# more than this many cells per vehicle: the count table stays O(n) for
# any extents, keys stay far inside int64, and cell indices stay small
# enough for _CELL_MARGIN to cover their rounding.
_CELLS_PER_VEHICLE = 4
# glibc's default mmap threshold: an all-pairs list keeps each of its
# arrays, and each block's positions, within this many bytes.
_KEPT_BYTES = 1 << 17
# The neighbour list keeps pairs this much (relative) beyond r + skin, which
# covers the rounding in the steps (within max_step * (1 + 1e-9)) and the distances.
_LIST_MARGIN = 1e-9


def _near(z: np.ndarray, a: np.ndarray, b: np.ndarray, cutoff: float, work) -> np.ndarray:
    """Indices k of the pairs (a[k], b[k]) of points z within cutoff, computed in ``work``:
    the caller's kept complex, complex and float arrays, each at least len(a) long."""
    m = len(a)
    za, zb, d2 = work
    d = z.take(a, out=za[:m], mode="clip")
    d -= z.take(b, out=zb[:m], mode="clip")
    v = d.view(np.float64)  # dx, dy interleaved
    v *= v
    return (np.add(v[0::2], v[1::2], out=d2[:m]) <= cutoff * cutoff).nonzero()[0]


def _positions(xs: np.ndarray, ys: np.ndarray, block: int) -> np.ndarray:
    """A block's positions as one complex array, x + iy; a block taller than ``block`` is refused."""
    if len(xs) > block:
        raise ValueError(f"a block of {len(xs)} rows is taller than {block}")
    z = np.empty(xs.shape, np.complex128)
    z.real, z.imag = xs, ys
    return z


class AllPairs:
    """Every pair of an n-vehicle fleet, in (a, b) order; each call keeps those in range.

    A block of k ticks is filtered as one flat array of k rows of m pairs,
    gathered through index tables that add i * n to row i's pair ends, so
    flat pair j is row j // m's pair j % m. ``block`` is the most rows for
    which each array the list keeps, and a block's complex positions, fit
    in ``_KEPT_BYTES``.
    """

    def __init__(self, n: int, radio_range: float) -> None:
        self.radio_range = radio_range
        self.ordered = True  # ignored: the flat filter yields (a, b) order at no cost
        v = np.arange(n)
        self.a, self.b = np.less.outer(v, v).nonzero()  # the pairs a < b, row-major, so in (a, b) order
        m = len(self.a)
        self.block = max(1, _KEPT_BYTES // (16 * max(m, n, 1)))
        rows = n * np.arange(self.block)[:, None]
        self._fa, self._fb = (self.a + rows).ravel(), (self.b + rows).ravel()
        self._ends = m * np.arange(1, self.block + 1)  # where each row's pairs end in the flat block
        size = self.block * m
        self._work = np.empty(size, np.complex128), np.empty(size, np.complex128), np.empty(size)

    def pairs(self, xs: np.ndarray, ys: np.ndarray):
        k, m = len(xs), len(self.a)
        z = _positions(xs, ys, self.block).ravel()
        # row by row, in (a, b) order
        near = _near(z, self._fa[:k * m], self._fb[:k * m], self.radio_range, self._work)
        pair = near % m
        return self.a[pair], self.b[pair], near.searchsorted(self._ends[:k]).tolist()


class NeighbourList:
    """Verlet list for one fleet: every pair within ``radio_range + skin``.

    The caller's contract: successive rows, within a call and from one
    call to the next, are successive ticks, and each tick moves a vehicle
    at most ``max_step``. A pair in range at some tick is then within
    ``r + skin`` at every tick up to ``reach = floor(skin / (2 * max_step))``
    ticks away, before or after, so a list built at tick c serves ticks
    c - reach to c + reach exactly (Verlet 1967); ``reach`` is unbounded
    when ``max_step`` is 0. The list keeps only a count of the rows it
    still serves. A call of k rows builds it at most once, from row
    ``min(reach, k - 1)``, when that count does not cover the k rows.
    Every row is then filtered through that one list. ``block``, the most
    rows a call takes, is ``min(5, 2 * reach + 1)``: at ``pair_list``'s
    skin, reach is 2 ticks at top speed, so one build serves a 5-tick
    block from its middle row; once the skin is capped at the radio
    range, 3 or 1. A build sorts its pairs by (a, b), and so every row,
    while ``ordered``; cleared, it keeps the same pairs in the grid's order.

    The list, the build's count table and the arrays of every distance
    test live in buffers the list keeps for its whole life; a build that
    needs more room doubles them.
    Only the candidate indices a build expands with ``np.repeat`` and the
    indices of the pairs in range are fresh, and so are the pairs a call
    returns.
    """

    def __init__(self, radio_range: float, skin: float, max_step: float) -> None:
        self.radio_range, self.skin = radio_range, skin
        self.reach = skin // (2.0 * max_step) if max_step else math.inf  # the exact floor of the ratio
        self.block = int(min(5, 2 * self.reach + 1))
        self.ordered = True
        self._served = 0  # rows after the last call that the list still serves; none yet
        self._first = np.zeros(1, np.int64)  # the count table; its first entry stays 0
        self._grow(0)
        self.a, self.b = self._a, self._b

    def _grow(self, size: int) -> None:
        """Buffers for ``size`` pairs: the list is a prefix of ``_a`` and ``_b``."""
        self._work = np.empty(size, np.complex128), np.empty(size, np.complex128), np.empty(size)
        self._a, self._b = np.empty(size, np.int64), np.empty(size, np.int64)
        self._iota = np.arange(size, dtype=np.int64)

    def _build(self, z: np.ndarray, cutoff: float) -> None:
        """Every pair within cutoff, sorted by (a, b) if ``ordered``, from a cell-grid range search."""
        n = z.shape[0]
        if n < 2:
            self.a, self.b = self._a[:0], self._b[:0]
            return
        x, y = z.real, z.imag
        x0, y0 = x.min(), y.min()
        wx, wy = x.max() - x0, y.max() - y0
        # a wide or sparse fleet coarsens the cells, so the grid has at most
        # `cells` columns, rows (bar the two empty ones) and cells in all;
        # the area's share is a product of roots, which cannot overflow
        cells = _CELLS_PER_VEHICLE * n
        side = max(cutoff * (1.0 + _CELL_MARGIN), wx / cells, wy / cells,
                   math.sqrt(wx / cells) * math.sqrt(wy)) or 1.0
        cx = ((x - x0) / side).astype(np.int64)
        cy = ((y - y0) / side).astype(np.int64) + 1
        rows = int(cy.max()) + 2  # the first and last rows stay empty: cy -/+ 1 never wraps
        key = cx * rows + cy
        order = np.argsort(key)
        sorted_key = key[order]

        # first[c] counts the vehicles in cells before c, so the vehicles of
        # cells c..d-1 are sorted_key's run first[c]:first[d]; the table runs
        # one column past the last, which the runs below reach.
        size = (int(cx.max()) + 2) * rows
        if size >= len(self._first):
            self._first = np.zeros(max(size + 1, 2 * len(self._first)), np.int64)
        first = self._first[:size + 1]
        np.cumsum(np.bincount(sorted_key, minlength=size), out=first[1:])

        # Each vehicle visits its own cell and four of its eight neighbours, so
        # each pair of cells is visited once. Keys run up a column, so those five
        # cells are two runs of sorted_key: its own cell (only the vehicles after
        # it) and the one above, then the three cells of the next column.
        pos = np.arange(n)
        start = np.concatenate((pos + 1, first.take(sorted_key + (rows - 1))))
        end = first.take(np.concatenate((sorted_key + 2, sorted_key + (rows + 2))))
        count = end - start
        total = int(count.sum())
        if total > len(self._a):
            self._grow(max(total, 2 * len(self._a)))
        owner = np.repeat(np.concatenate((pos, pos)), count)
        other = np.repeat(start - (np.cumsum(count) - count), count)
        other += self._iota[:total]  # the k-th candidate of an owner sits at start + k
        near = _near(z[order], owner, other, cutoff, self._work)

        # the pairs in range as (min, max) of their vehicle indices, sorted
        # by the code a * n + b while the list is ordered
        k = len(near)
        a = owner.take(near, out=self._a[:k], mode="clip")
        b = other.take(near, out=self._b[:k], mode="clip")
        i = order.take(a, out=owner[:k], mode="clip")
        j = order.take(b, out=other[:k], mode="clip")
        np.minimum(i, j, out=a)
        np.maximum(i, j, out=b)
        if self.ordered:
            code = np.multiply(a, n, out=i)
            code += b
            code.sort()
            np.floor_divide(code, n, out=a)
            np.subtract(code, np.multiply(a, n, out=b), out=b)
        self.a, self.b = a, b

    def pairs(self, xs: np.ndarray, ys: np.ndarray):
        k = len(xs)
        z = _positions(xs, ys, self.block)
        if self._served < k:
            c = int(min(self.reach, k - 1))  # serves rows 0 to c + reach, every row of the call
            self._build(z[c], (self.radio_range + self.skin) * (1.0 + _LIST_MARGIN))
            self._served = c + self.reach + 1
        self._served -= k
        a, b, ends, end = [], [], [], 0
        for row in z:
            near = _near(row, self.a, self.b, self.radio_range, self._work)
            a.append(self.a[near])
            b.append(self.b[near])
            end += len(near)
            ends.append(end)
        return np.concatenate(a), np.concatenate(b), ends


def pair_list(n: int, radio_range: float, max_step: float) -> AllPairs | NeighbourList:
    """The pair list for n vehicles in ``radio_range`` that each move at most ``max_step`` a tick."""
    if n < NEIGHBOUR_LIST_MIN_VEHICLES:
        return AllPairs(n, radio_range)
    # half the skin is 2 ticks at top speed: a build at a 5-tick block's middle
    # row serves the whole block
    return NeighbourList(radio_range, min(radio_range, 4.0 * max_step), max_step)


def contact_pairs(xs: np.ndarray, ys: np.ndarray, neighbours: AllPairs | NeighbourList):
    """A block's vehicle-index pairs within the list's radio range, as ``neighbours.pairs`` returns them."""
    return neighbours.pairs(xs, ys)
