"""Contact detection (the cell grid, both pair lists and a fresh list as a run picks it) against oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import fresh_list_pairs, reference_pairs
from vanetsim import kernels


def brute_force_pairs(x, y, radio_range):
    """Independent reference: plain double loop, set of (a, b) with a < b."""
    n = len(x)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 <= radio_range**2:
                out.add((i, j))
    return out


def as_pair_list(a, b):
    return list(zip(a.tolist(), b.tolist()))


def grid_pairs(x, y, radio_range):
    """The cell-grid search alone, at exactly radio_range: a fresh list's build."""
    neighbours = kernels.NeighbourList(radio_range, 0.0, 0.0)
    z = np.empty(len(x), np.complex128)
    z.real, z.imag = x, y
    neighbours._build(z, radio_range)
    return neighbours.a.copy(), neighbours.b.copy()


def all_pairs(x, y, radio_range):
    a, b, _ = kernels.AllPairs(len(x), radio_range).pairs(x[None], y[None])
    return a, b


@pytest.fixture(params=["all_pairs", "grid", "one_shot"])
def pair_fn(request):
    return {"all_pairs": all_pairs, "grid": grid_pairs, "one_shot": fresh_list_pairs}[request.param]


class TestContactPairs:
    @pytest.mark.parametrize("n,rr", [(2, 10.0), (15, 100.0), (60, 35.0), (200, 50.0)])
    def test_matches_brute_force(self, pair_fn, n, rr):
        rng = np.random.default_rng(n)
        x = rng.random(n) * 800.0
        y = rng.random(n) * 800.0
        a, b = pair_fn(x, y, rr)
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, rr)

    def test_output_is_lexicographically_sorted(self, pair_fn):
        rng = np.random.default_rng(3)
        x = rng.random(100) * 200.0
        y = rng.random(100) * 200.0
        a, b = pair_fn(x, y, 40.0)
        pairs = as_pair_list(a, b)
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    def test_boundary_distance_is_inclusive(self, pair_fn):
        x = np.array([0.0, 10.0, 30.0])
        y = np.zeros(3)
        a, b = pair_fn(x, y, 10.0)
        assert as_pair_list(a, b) == [(0, 1)]
        # off-axis ties: distance exactly r along 3-4-5 and 5-12-13 triangles
        for pts, rr in [
            ([(0.0, 0.0), (60.0, 80.0), (200.0, 0.0)], 100.0),
            ([(7.0, 3.0), (-53.0, -77.0), (500.0, 500.0)], 100.0),
            ([(100.0, 100.0), (150.0, 220.0), (0.0, 400.0)], 130.0),
        ]:
            x, y = np.array(pts).T
            a, b = pair_fn(x, y, rr)
            assert as_pair_list(a, b) == [(0, 1)]

    def test_degenerate_sizes(self, pair_fn):
        for n in (0, 1):
            a, b = pair_fn(np.zeros(n), np.zeros(n), 5.0)
            assert len(a) == len(b) == 0
            assert a.dtype == b.dtype == np.int64
        a, b = pair_fn(np.array([0.0, 3.0]), np.array([0.0, 4.0]), 5.0)
        assert as_pair_list(a, b) == [(0, 1)]
        a, b = pair_fn(np.array([0.0, 3.0]), np.array([0.0, 4.0]), 4.9)
        assert len(a) == 0

    def test_exact_range_across_cell_edges(self, pair_fn):
        # cells start at the smallest coordinates, (0, 0), and are a hair
        # wider than r, so each pair below is exactly r apart and straddles a
        # cell edge: along x, along y, and along both diagonals
        r = 10.0
        pts = [(0.0, 0.0), (7.0, 50.0), (17.0, 50.0), (55.0, 7.0), (55.0, 17.0),
               (27.0, 27.0), (33.0, 35.0), (86.0, 95.0), (92.0, 87.0)]
        x, y = np.array(pts).T
        a, b = pair_fn(x, y, r)
        assert as_pair_list(a, b) == [(1, 2), (3, 4), (5, 6), (7, 8)]
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, r)

    @pytest.mark.parametrize("spacing", ["radio_range", "cell_side"])
    def test_points_on_multiples_of_the_spacing(self, pair_fn, spacing):
        r = 25.0
        step = r if spacing == "radio_range" else r * (1.0 + kernels._CELL_MARGIN)
        gx, gy = np.meshgrid(np.arange(12) * step, np.arange(9) * step)
        x, y = gx.ravel(), gy.ravel()
        a, b = pair_fn(x, y, r)
        expected = brute_force_pairs(x, y, r)
        assert set(as_pair_list(a, b)) == expected
        # a lattice at exactly r pairs every horizontal and vertical neighbour
        assert len(expected) == (11 * 9 + 12 * 8 if spacing == "radio_range" else 0)

    def test_negative_coordinates(self, pair_fn):
        rng = np.random.default_rng(5)
        x = rng.random(150) * 600.0 - 1e4
        y = -rng.random(150) * 600.0
        a, b = pair_fn(x, y, 60.0)
        assert len(a) > 0
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, 60.0)

    @pytest.mark.parametrize("r", [1e-3, 1e-9])
    def test_span_that_would_overflow_cell_keys(self, pair_fn, r):
        # 1e12 / 1e-3 = 1e15 cells a side would overflow int64 keys, and
        # 1e12 / 1e-9 the cell indices themselves (a cast numpy warns
        # about); the grid coarsens its cells instead, and warns about nothing
        rng = np.random.default_rng(8)
        x = np.concatenate(([0.0, 1e12], rng.random(60) * 1e12))
        y = np.concatenate(([1e12, 0.0], rng.random(60) * 1e12))
        x[7], y[7] = x[6], y[6] + 5e-4  # within 1e-3
        x[9], y[9] = 0.0, 1e12 - 1e-3  # about r from vehicle 0, give or take an ulp
        x[11], y[11] = x[10], y[10]  # coincident
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = pair_fn(x, y, r)
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, r)
        assert (10, 11) in set(as_pair_list(a, b))

    def test_coincident_points_all_pair(self, pair_fn):
        n = 10
        a, b = pair_fn(np.full(n, 3.0), np.full(n, 4.0), 1.0)
        assert len(a) == n * (n - 1) // 2

    def test_spread_cloud_triggers_sparse_fallback(self, pair_fn):
        # tiny range over a huge arena: one close pair among far-apart points
        rng = np.random.default_rng(11)
        n = 50
        x = rng.random(n) * 1e6
        y = rng.random(n) * 1e6
        x[1] = x[0] + 0.5
        y[1] = y[0]
        a, b = pair_fn(x, y, 2.0)
        assert set(as_pair_list(a, b)) == brute_force_pairs(x, y, 2.0)

    @pytest.mark.parametrize(
        "n", [kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1, kernels.NEIGHBOUR_LIST_MIN_VEHICLES, 1000]
    )
    def test_one_shot_matches_quadratic_oracle(self, n):
        # both sides of the crossover, plus a fleet far above it
        rng = np.random.default_rng(n)
        arena = 800.0 * (n / 15.0) ** 0.5  # baseline density
        x = rng.random(n) * arena
        y = rng.random(n) * arena
        a, b = fresh_list_pairs(x, y, 100.0)
        na, nb = reference_pairs(x, y, 100.0)
        assert len(a) > 0
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, na) and np.array_equal(b, nb)



class TestStacks:
    """A (k, n) block of ticks filters to each row's pairs, split at ``ends``, row by row."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1),
        lattice=st.booleans(),
        data=st.data(),
    )
    @example(seed=0, n=0, lattice=False, data=None)
    @example(seed=1, n=15, lattice=True, data=None)
    @example(seed=1, n=kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1, lattice=True, data=None)
    def test_all_pairs_stack_equals_each_row(self, seed, n, lattice, data):
        # on the integer lattice 3-4-5 and axis-aligned ties at exactly r are common
        r = 5.0
        neighbours = kernels.AllPairs(n, r)
        # the explicit examples take a whole block
        k = neighbours.block if data is None else data.draw(st.integers(1, neighbours.block), label="k")
        rng = np.random.default_rng(seed)
        side = 2.0 * r * max(n, 1) ** 0.5
        x, y = rng.random((k, n)) * side, rng.random((k, n)) * side
        if lattice:
            x, y = np.round(x), np.round(y)
        a, b, ends = kernels.contact_pairs(x, y, neighbours)
        assert a.dtype == b.dtype == np.int64
        assert len(ends) == k and ends[-1] == len(a)
        for i, (start, end) in enumerate(zip([0, *ends], ends)):
            ea, eb, _ = neighbours.pairs(x[i:i + 1], y[i:i + 1])
            assert np.array_equal(a[start:end], ea) and np.array_equal(b[start:end], eb)

    def test_neighbour_list_block_is_one_row(self):
        rng = np.random.default_rng(3)
        n = kernels.NEIGHBOUR_LIST_MIN_VEHICLES + 50
        x, y = rng.random((1, n)) * 300.0, rng.random((1, n)) * 300.0
        a, b, ends = kernels.pair_list(n, 30.0, 0.0).pairs(x, y)  # a fresh Verlet list
        ea, eb = reference_pairs(x[0], y[0], 30.0)
        assert ends == [len(a)] and np.array_equal(a, ea) and np.array_equal(b, eb)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 90),
        k=st.integers(1, 5),
        step_share=st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.5]),
        jump=st.booleans(),
        lattice=st.booleans(),
    )
    @example(seed=0, n=0, k=1, step_share=0.2, jump=False, lattice=False)
    @example(seed=1, n=60, k=5, step_share=0.05, jump=True, lattice=False)
    @example(seed=2, n=90, k=5, step_share=0.2, jump=True, lattice=True)
    def test_neighbour_list_stack_equals_each_row(self, seed, n, k, step_share, jump, lattice):
        # random walks of up to step_share * skin per axis a tick, each k
        # ticks long and handed to the list in calls of its block's rows:
        # the smallest share serves 7 ticks either side of a build, the
        # largest none. With a jump one vehicle leaves by three skins for one
        # tick of each walk and comes back the next, and the list is told its
        # steps, so each call is one row. On the integer lattice ties at
        # exactly r are common; rounding moves a vehicle up to 1 more per axis.
        rng = np.random.default_rng(seed)
        r, skin = 10.0, 4.0
        side = 2.0 * r * max(n, 1) ** 0.5
        step = step_share * skin + lattice
        neighbours = kernels.NeighbourList(r, skin, math.hypot(step + 3.0 * skin * jump, step))
        x, y = rng.random(n) * side, rng.random(n) * side
        for _ in range(6):  # later walks start from the list an earlier call built
            xs, ys = np.cumsum(rng.uniform(-1.0, 1.0, (2, k, n)) * step_share * skin, axis=1) + [[x], [y]]
            if jump and n and k > 1:
                xs[rng.integers(k - 1), rng.integers(n)] += 3.0 * skin
            if lattice:
                xs, ys = np.round(xs), np.round(ys)
            for first in range(0, k, neighbours.block):
                rows = slice(first, first + neighbours.block)
                assert_rows_exact(neighbours.pairs(xs[rows], ys[rows]), xs[rows], ys[rows], r)
            x, y = xs[-1], ys[-1]

    @pytest.mark.parametrize("neighbours", [kernels.AllPairs(15, 1.0), kernels.NeighbourList(1.0, 1.0, 0.25)],
                             ids=["all_pairs", "neighbour_list"])
    def test_a_block_taller_than_block_is_refused(self, neighbours):
        xs = np.zeros((neighbours.block + 1, 15))
        with pytest.raises((IndexError, ValueError)):
            neighbours.pairs(xs, xs)

    def test_lists_keep_their_work_arrays_under_one_policy(self):
        # each list keeps the predicate's work arrays for its life; all pairs
        # keeps every array, and sizes its block's positions, within 128 KiB
        for n in (2, 15, 40, kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1):
            neighbours = kernels.AllPairs(n, 100.0)
            assert neighbours.block >= 1 and 16 * neighbours.block * n <= 128 * 1024
            assert all(buf.nbytes <= 128 * 1024 for buf in buffers(neighbours))
        assert kernels.AllPairs(15, 100.0).block == 78  # 105 pairs: 301 baseline ticks in 4 calls
        # a build serves reach ticks either side of it at top speed: 2, 1, 0 and unbounded
        assert [kernels.NeighbourList(1.0, 1.0, step).block for step in (0.25, 0.4, 0.6, 0.0)] == [5, 3, 1, 5]
        # a dense Verlet fleet, 300 vehicles in 800 m, grows its arrays with its
        # ~11 000 candidates, past the threshold, on its first build and then keeps them
        rng = np.random.default_rng(2)
        xs, ys = walk(rng, *rng.random((2, 300)) * 800.0, 60, 15.0)
        neighbours = kernels.NeighbourList(100.0, 60.0, 15.0)
        kept = []
        for first in range(0, 60, neighbours.block):
            rows = slice(first, first + neighbours.block)
            neighbours.pairs(xs[rows], ys[rows])
            kept.append({id(buf) for buf in buffers(neighbours) if buf.nbytes > 128 * 1024})
        assert kept[0] and all(ids == kept[0] for ids in kept)

    def test_every_distance_test_is_the_one_predicate(self, monkeypatch):
        calls = []
        near = kernels._near
        monkeypatch.setattr(kernels, "_near", lambda z, a, *rest: calls.append(len(a)) or near(z, a, *rest))
        rng = np.random.default_rng(8)
        xs, ys = np.repeat(rng.random((2, 1, 15)) * 200.0, 3, axis=1)  # a fleet that stands still, 3 ticks
        assert_rows_exact(kernels.AllPairs(15, 50.0).pairs(xs, ys), xs, ys, 50.0)
        assert calls == [3 * 105]  # one test of the whole flat block
        calls.clear()
        neighbours = kernels.NeighbourList(50.0, 10.0, 0.0)
        assert_rows_exact(neighbours.pairs(xs, ys), xs, ys, 50.0)
        assert len(calls) == 4 and calls[1:] == [len(neighbours.a)] * 3  # a build, then each row


def assert_rows_exact(found, xs, ys, radio_range):
    """A block's ``(a, b, ends)`` splits into each row's exact pairs."""
    a, b, ends = found
    assert a.dtype == b.dtype == np.int64
    assert len(ends) == len(xs) and ends[-1] == len(a)
    for i, (start, end) in enumerate(zip([0, *ends], ends)):
        ea, eb = reference_pairs(xs[i], ys[i], radio_range)
        assert np.array_equal(a[start:end], ea) and np.array_equal(b[start:end], eb)


def buffers(neighbours):
    """The arrays a pair list keeps between calls, its work arrays among them."""
    kept = [v for v in vars(neighbours).values() if isinstance(v, np.ndarray)]
    return kept + list(neighbours._work)


@pytest.fixture
def builds(monkeypatch):
    """The positions of every NeighbourList build, in call order."""
    log = []
    build = kernels.NeighbourList._build
    monkeypatch.setattr(kernels.NeighbourList, "_build",
                        lambda self, z, cutoff: log.append(z.copy()) or build(self, z, cutoff))
    return log


def walk(rng, x, y, k, max_step):
    """k ticks of every vehicle stepping max_step from (x, y) in random directions, one row a tick."""
    angle = rng.uniform(0.0, 2.0 * np.pi, (k, len(x)))
    return x + np.cumsum(max_step * np.cos(angle), axis=0), y + np.cumsum(max_step * np.sin(angle), axis=0)


class TestNeighbourList:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 90),
        radio_range=st.sampled_from([5.0, 10.0, 25.0]),
        skin_share=st.sampled_from([0.0, 0.1, 0.6, 1.0]),
        step_share=st.sampled_from([0.0, 0.05, 0.3, 1.5, 4.0]),
        lattice=st.booleans(),
        packing=st.sampled_from([1.0, 0.1]),
    )
    @example(seed=0, n=0, radio_range=5.0, skin_share=0.1, step_share=0.3, lattice=False, packing=1.0)
    @example(seed=0, n=1, radio_range=5.0, skin_share=0.1, step_share=0.3, lattice=False, packing=1.0)
    @example(seed=1, n=kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1, radio_range=25.0, skin_share=0.6,
             step_share=1.5, lattice=True, packing=1.0)
    @example(seed=2, n=90, radio_range=10.0, skin_share=0.6, step_share=0.05, lattice=False, packing=0.1)
    def test_equals_one_shot_search_every_tick(self, seed, n, radio_range, skin_share, step_share, lattice,
                                               packing):
        # random walks; a step share of 0 is a standing fleet and shares
        # above 0.5 step past the skin; on the integer lattice 3-4-5 and
        # axis-aligned ties at exactly r are common. A packing of 1 leaves
        # ~0.8 vehicles within r of each, 0.1 about half the fleet. The
        # all-pairs list is checked too.
        rng = np.random.default_rng(seed)
        skin = skin_share * radio_range
        side = packing * 2.0 * radio_range * max(n, 1) ** 0.5
        x, y = rng.random(n) * side, rng.random(n) * side
        step = step_share * max(skin, radio_range)
        # a step of up to `step` per axis, and rounding moves a vehicle up to 0.5 more
        max_step = math.hypot(step + 0.5 * lattice, step + 0.5 * lattice)
        lists = [kernels.NeighbourList(radio_range, skin, max_step), kernels.AllPairs(n, radio_range)]
        for _ in range(25):
            ea, eb = fresh_list_pairs(x, y, radio_range)
            for neighbours in lists:
                a, b, _ = neighbours.pairs(x[None], y[None])
                assert np.array_equal(a, ea) and np.array_equal(b, eb)
                assert a.dtype == b.dtype == np.int64
            x = x + rng.uniform(-step, step, n)
            y = y + rng.uniform(-step, step, n)
            if lattice:
                x, y = np.round(x), np.round(y)

    def test_builds_once_a_block_at_its_middle_row(self, builds):
        # every vehicle steps 2 m a tick and half the 8 m skin is 2 ticks of
        # that, so a build at a 5-row block's middle row serves the whole
        # block; the last block is 3 rows, built at its last
        rng = np.random.default_rng(8)
        n, r, max_step = 150, 30.0, 2.0
        neighbours = kernels.NeighbourList(r, 8.0, max_step)
        assert (neighbours.reach, neighbours.block) == (2, 5)
        x, y = rng.random((2, n)) * 1000.0
        for first in range(0, 23, 5):
            xs, ys = walk(rng, x, y, min(5, 23 - first), max_step)
            assert_rows_exact(neighbours.pairs(xs, ys), xs, ys, r)
            c = min(2, len(xs) - 1)
            assert len(builds) == first // 5 + 1
            assert np.array_equal(builds[-1].real, xs[c]) and np.array_equal(builds[-1].imag, ys[c])
            x, y = xs[-1], ys[-1]

    @pytest.mark.parametrize("max_step, reach, block", [(5.0, 0, 1), (4.0, 1, 3), (2.0, 2, 5), (0.0, math.inf, 5)])
    def test_one_row_calls_build_every_reach_plus_one_calls(self, builds, max_step, reach, block):
        rng = np.random.default_rng(2)
        neighbours = kernels.NeighbourList(30.0, 8.0, max_step)
        assert (neighbours.reach, neighbours.block) == (reach, block)
        x, y = rng.random((2, 200)) * 500.0
        for call in range(12):
            xs, ys = walk(rng, x, y, 1, max_step)
            assert_rows_exact(neighbours.pairs(xs, ys), xs, ys, 30.0)
            assert len(builds) == (1 if reach == math.inf else call // (reach + 1) + 1)
            x, y = xs[-1], ys[-1]

    @pytest.mark.parametrize("max_step, reach", [(5.0, 0), (4.0, 1), (2.0, 2), (0.0, math.inf)])
    def test_unordered_builds_give_each_row_the_same_pairs(self, max_step, reach):
        # one list sorts its builds and one does not, over one trajectory in
        # blocks of the lists' width: each row holds the same pairs, a < b
        rng = np.random.default_rng(2)
        ordered, unordered = kernels.NeighbourList(30.0, 8.0, max_step), kernels.NeighbourList(30.0, 8.0, max_step)
        unordered.ordered = False
        assert ordered.reach == reach
        x, y = rng.random((2, 200)) * 500.0
        shuffled = 0
        for _ in range(12):
            xs, ys = walk(rng, x, y, ordered.block, max_step)
            a, b, ends = ordered.pairs(xs, ys)
            assert_rows_exact((a, b, ends), xs, ys, 30.0)
            ua, ub, unordered_ends = unordered.pairs(xs, ys)
            assert unordered_ends == ends and ua.dtype == ub.dtype == np.int64 and np.all(ua < ub)
            for start, end in zip([0, *ends], ends):
                rows = [list(zip(p[start:end].tolist(), q[start:end].tolist())) for p, q in ((a, b), (ua, ub))]
                assert sorted(rows[1]) == rows[0]
                shuffled += rows[1] != rows[0]
            x, y = xs[-1], ys[-1]
        assert shuffled  # the unordered list skips the sort

    @pytest.mark.parametrize("slack", [1.0, 1.0 + 1e-12], ids=["exact", "rounded_up"])
    @pytest.mark.parametrize("max_step", [4.0, 2.0], ids=["reach_1", "reach_2"])
    def test_pairs_at_the_edge_of_the_reach(self, builds, max_step, slack):
        # two vehicles part at top speed from r to r + 2 * skin apart, then
        # close again to r, in two blocks; each block is built at its middle
        # row, where they are r + skin apart, reach ticks from a row in range.
        # At "exact" every distance is exact in floats; "rounded_up" steps a
        # hair past max_step, as a step's rounding may, which the list's
        # margin covers.
        r, skin = 30.0, 8.0
        neighbours = kernels.NeighbourList(r, skin, max_step)
        reach = (neighbours.block - 1) // 2
        t = np.arange(2 * neighbours.block)
        s = max_step * slack * np.minimum(t, t[-1] - t)
        xs, ys = np.stack((-s, r + s), axis=1), np.zeros((len(t), 2))
        found = []
        for first in range(0, len(xs), neighbours.block):
            rows = slice(first, first + neighbours.block)
            a, b, ends = neighbours.pairs(xs[rows], ys[rows])
            assert_rows_exact((a, b, ends), xs[rows], ys[rows], r)
            found += np.diff([0, *ends]).tolist()
            assert np.array_equal(builds[-1].real, xs[first + reach])
        assert len(builds) == 2
        assert found[0] == found[-1] == 1 and sum(found) == 2

    def test_returned_pairs_survive_later_calls(self, builds):
        # the list reuses its buffers on every call; what it returned earlier
        # must not change, whether later calls rebuild or only filter
        rng = np.random.default_rng(4)
        x, y = rng.random(300) * 800.0, rng.random(300) * 800.0  # the dense fleet's density
        neighbours = kernels.NeighbourList(100.0, skin=60.0, max_step=math.hypot(12.0, 12.0))
        returned, kept = [], []
        for _ in range(12):
            a, b, _ = neighbours.pairs(x[None], y[None])
            assert len(a) > 0
            for arr in (a, b):
                assert not any(np.shares_memory(arr, buf) for buf in buffers(neighbours))
            returned.append((a, b))
            kept.append((a.copy(), b.copy()))
            x = x + rng.uniform(-12.0, 12.0, 300)
            y = y + rng.uniform(-12.0, 12.0, 300)
        assert 1 < len(builds) < 12  # both rebuilding and filter-only calls
        for (a, b), (ka, kb) in zip(returned, kept):
            assert np.array_equal(a, ka) and np.array_equal(b, kb)

    def test_packing_fleet_outgrows_its_buffers(self):
        # the fleet packs into a small square, so the candidate pairs outgrow
        # the buffers of the first builds mid-run, then spreads out again
        rng = np.random.default_rng(6)
        n, r = 150, 20.0
        home_x, home_y = rng.random(n) * 1500.0, rng.random(n) * 1500.0
        pack_x, pack_y = 700.0 + rng.random(n) * 30.0, 700.0 + rng.random(n) * 30.0
        max_step = np.hypot(pack_x - home_x, pack_y - home_y).max() / 20.0
        neighbours = kernels.NeighbourList(r, skin=10.0, max_step=max_step)
        sizes = []
        for tick in range(41):
            share = 1.0 - abs(tick - 20) / 20.0  # 0 spread out, 1 packed
            x = home_x + share * (pack_x - home_x)
            y = home_y + share * (pack_y - home_y)
            a, b, _ = neighbours.pairs(x[None], y[None])
            ra, rb = reference_pairs(x, y, r)
            assert np.array_equal(a, ra) and np.array_equal(b, rb)
            sizes.append(max(buf.size for buf in buffers(neighbours)))
        assert sizes[-1] > 10 * sizes[0]
        assert len(a) < 100  # spread out again

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("r", [8.0, 10.0, 12.0])
    def test_tiny_fleets(self, n, r):
        # vehicle 1 starts 9 m from vehicle 0, moves out of every range and back
        neighbours = kernels.NeighbourList(r, skin=2.0, max_step=9.0)
        x = np.array([0.0, 9.0])[:n]
        y = np.zeros(n)
        for dx in (0.0, 0.5, 3.0, 0.0, -9.0):
            x = x + np.array([0.0, dx])[:n]
            a, b, _ = neighbours.pairs(x[None], y[None])
            ra, rb = reference_pairs(x, y, r)
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, ra) and np.array_equal(b, rb)
        assert n < 2 or len(a) == 1  # vehicle 1 ends 3.5 m from vehicle 0

    def test_pair_codes_of_a_huge_fleet(self):
        # pair codes a * n + b reach n * n - n - 1, past int32 at this size
        n = 46_342
        # a lattice 10 m apart with a 1 m range: only the vehicles moved
        # next to another one are in range, the top indices among them
        side = int(np.ceil(np.sqrt(n)))
        x, y = np.arange(n) % side * 10.0, np.arange(n) // side * 10.0
        x[n - 1], y[n - 1] = x[n - 2] + 0.5, y[n - 2]
        x[n - 3], y[n - 3] = x[5], y[5] + 0.25
        x[n - 5], y[n - 5] = x[n - 4] - 0.75, y[n - 4]
        expected = [(5, n - 3), (n - 5, n - 4), (n - 2, n - 1)]
        neighbours = kernels.NeighbourList(1.0, skin=0.5, max_step=0.1)
        for dy in (0.0, 0.1):  # a build, then a filter of the list it kept
            a, b, _ = neighbours.pairs(x[None], (y + dy)[None])
            assert as_pair_list(a, b) == expected
            assert a.dtype == b.dtype == np.int64
        assert as_pair_list(*grid_pairs(x, y, 1.0)) == expected


@pytest.mark.parametrize(
    "n, radio_range, side",
    [
        (62, 1e-9, (1e12, 0.0)),  # a line: capping only the area would ask for a ~1e21-cell table
        (500, 1.0, (1e12, 1e12)),
        (2000, 100.0, (1e6, 1e6)),
    ],
    ids=["line_1e12", "square_1e12", "sparse_2000"],
)
def test_extreme_arenas_give_exact_pairs_from_o_n_buffers(n, radio_range, side):
    # a fifth of the fleet sits next to vehicles of the rest, a half range
    # away, so some pairs are in range; the rest is spread over the arena
    rng = np.random.default_rng(n)
    x, y = rng.random(n) * side[0], rng.random(n) * side[1]
    twins = n // 5
    x[-twins:] = x[:twins] + 0.5 * radio_range
    y[-twins:] = y[:twins]
    neighbours = kernels.NeighbourList(radio_range, skin=0.0, max_step=0.0)
    a, b, _ = neighbours.pairs(x[None], y[None])
    ra, rb = reference_pairs(x, y, radio_range)
    assert np.array_equal(a, ra) and np.array_equal(b, rb)
    assert len(a) > 0
    # cells are capped at 4 per vehicle along each axis and in all
    assert max(buf.size for buf in buffers(neighbours)) <= 16 * n


@pytest.mark.parametrize(
    "n,radio_range,max_step,skin,block",
    [
        (kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1, 100.0, 15.0, None, 1),
        (kernels.NEIGHBOUR_LIST_MIN_VEHICLES, 100.0, 15.0, 60.0, 5),  # half the skin is two ticks at top speed
        (1000, 40.0, 15.0, 40.0, 3),  # never wider than the range: one tick either side
        (1000, 100.0, 40.0, 100.0, 3),
        (1000, 100.0, 60.0, 100.0, 1),  # a build serves its own tick alone
        (1000, 100.0, 0.0, 0.0, 5),  # a fleet that stands still, as a one-shot search
    ],
)
def test_pair_list_picks_the_list_and_its_skin(n, radio_range, max_step, skin, block):
    neighbours = kernels.pair_list(n, radio_range, max_step)
    assert neighbours.block == block and neighbours.radio_range == radio_range
    if skin is None:
        assert type(neighbours) is kernels.AllPairs
        stand = np.zeros((1, n))  # every vehicle on one spot: all pairs in range
        assert neighbours.pairs(stand, stand)[2] == [n * (n - 1) // 2]
    else:
        assert type(neighbours) is kernels.NeighbourList and neighbours.skin == skin

