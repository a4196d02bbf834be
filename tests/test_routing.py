import random

import pytest

from conftest import links_of, make_tree
from vanetsim.model import ForwardingTree, ValidationError
from vanetsim.routing import (
    collect_records,
    descendant_counts,
    handle_encounter,
    path_from_root,
    stored_time,
)

def new_tree(source: int = 0) -> ForwardingTree:
    return make_tree(root=source)


def meet(tree, a, b, a_pos, b_pos, now):
    """One encounter with the two vehicles standing at ``a_pos`` and ``b_pos``."""
    x = {a: a_pos[0], b: b_pos[0]}
    y = {a: a_pos[1], b: b_pos[1]}
    return handle_encounter(tree, a, b, x, y, now)


class TestHandleEncounter:
    def test_copies_to_the_empty_side(self):
        tree = new_tree()
        assert meet(tree, 0, 5, (30.0, 40.0), (33.0, 44.0), 2.0) == 5
        assert links_of(tree) == [(0, 5, 2.0, 55.0, 50.0)]  # received at (33, 44)
        assert tree.parent[5] == 0
        assert tree.depth[5] == 1
        assert tree.carries[5]

    def test_direction_is_carrier_to_noncarrier(self):
        tree = new_tree()
        # same encounter, ids swapped: the carrier still gives
        assert meet(tree, 9, 0, (1.0, 0.0), (2.0, 0.0), 1.0) == 9
        assert [link[:2] for link in links_of(tree)] == [(0, 9)]

    def test_a_handoff_to_vehicle_0_returns_0(self):
        tree = new_tree(3)
        assert meet(tree, 3, 0, (1.0, 0.0), (2.0, 0.0), 1.0) == 0
        assert meet(tree, 0, 5, (1.0, 0.0), (2.0, 0.0), 2.0) == 5  # 0 carries and gives
        assert tree.order == [3, 0, 5]

    def test_link_distance_measured_at_the_giver(self):
        tree = new_tree()
        giver_pos = (30.0, 40.0)  # 50 m from the (0, 0) origin
        assert meet(tree, 0, 5, giver_pos, (90.0, 90.0), 1.0) == 5
        assert tree.relay_distance[5] == 50.0
        assert [relay for parent, _, _, _, relay in links_of(tree) if parent == 0] == [50.0]

    def test_forward_count_increments_per_handoff(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 1.0)
        meet(tree, 0, 2, (3.0, 0.0), (4.0, 0.0), 2.0)
        assert [relay for parent, _, _, _, relay in links_of(tree) if parent == 0] == [0.0, 3.0]
        assert [r.forward_count for r in collect_records(tree, 5.0)] == [0, 0]

    def test_both_carriers_is_a_noop(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 1.0)
        assert meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 2.0) is None
        assert meet(tree, 1, 0, (1.0, 0.0), (0.0, 0.0), 2.0) is None
        assert len(links_of(tree)) == 1

    def test_neither_carries_is_a_noop(self):
        tree = new_tree()
        assert meet(tree, 4, 5, (0.0, 0.0), (1.0, 0.0), 1.0) is None
        assert tree.order == [0]
        assert tree.carries.nonzero()[0].tolist() == [0]

    def test_positions_are_read_only_on_a_handoff(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 1.0)
        # no coordinates at all: a pair that cannot hand off must not ask
        assert handle_encounter(tree, 4, 5, {}, {}, 2.0) is None
        assert handle_encounter(tree, 0, 1, {}, {}, 2.0) is None

    def test_each_vehicle_joins_the_tree_once(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 1.0)
        meet(tree, 1, 2, (5.0, 0.0), (6.0, 0.0), 2.0)
        meet(tree, 0, 2, (0.0, 0.0), (6.0, 0.0), 3.0)  # 2 already has it
        tos = [child for _, child, _, _, _ in links_of(tree)]
        assert sorted(tos) == [1, 2]
        assert len(set(tos)) == len(tos)


class TestStoredTime:
    def test_elapsed_since_receipt(self):
        tree = new_tree()
        assert meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 10.0) == 1
        assert stored_time(tree.joined_at[1], 25.0) == 15.0

    def test_never_negative(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 10.0)
        assert stored_time(tree.joined_at[1], 5.0) == 0.0


class TestCollectRecords:
    def test_excludes_the_source_and_sorts_by_id(self):
        tree = new_tree()
        meet(tree, 0, 7, (0.0, 0.0), (1.0, 0.0), 1.0)
        meet(tree, 7, 3, (2.0, 0.0), (3.0, 0.0), 2.0)
        records = collect_records(tree, 10.0)
        assert [r.vehicle_id for r in records] == [3, 7]

    def test_record_contents(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (3.0, 4.0), 2.0)
        meet(tree, 1, 2, (6.0, 8.0), (9.0, 12.0), 5.0)
        rec1, rec2 = collect_records(tree, 12.0)
        assert rec1.vehicle_id == 1
        assert rec1.stored_time == 10.0
        assert rec1.forward_count == 1
        assert rec1.relay_distances == [10.0]  # giver stood at (6, 8)
        assert rec1.receive_distance == 5.0  # received at (3, 4)
        assert rec2.vehicle_id == 2
        assert rec2.forward_count == 0
        assert rec2.relay_distances == []
        assert rec2.receive_distance == 15.0

    def test_copies_are_independent(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 1.0)
        meet(tree, 1, 2, (2.0, 0.0), (3.0, 0.0), 2.0)
        (rec,) = [r for r in collect_records(tree, 5.0) if r.vehicle_id == 1]
        rec.relay_distances.append(99.0)
        (again,) = [r for r in collect_records(tree, 5.0) if r.vehicle_id == 1]
        assert again.relay_distances == [2.0]
        assert len(links_of(tree)) == 2


class TestTreeQueries:
    def tree(self) -> ForwardingTree:
        #        0
        #       / \
        #      1   2
        #     / \    \
        #    3   4    5
        return make_tree([(0, 1, 1.0), (0, 2, 1.0), (1, 3, 2.0), (1, 4, 2.0), (2, 5, 3.0)])

    def test_descendant_counts(self):
        assert descendant_counts(self.tree()) == {0: 5, 1: 2, 2: 1, 3: 0, 4: 0, 5: 0}

    def test_descendants_of_bare_root(self):
        assert descendant_counts(make_tree(root=4)) == {4: 0}

    def test_descendants_match_a_walk_up_the_parents(self):
        rng = random.Random(3)
        tree = make_tree([(rng.randrange(to_id), to_id) for to_id in range(1, 40)])  # parent is some earlier node
        parent = {child: parent for parent, child, *_ in links_of(tree)}
        walked = dict.fromkeys(tree.order, 0)
        for node in tree.order:
            while node in parent:
                node = parent[node]
                walked[node] += 1
        assert descendant_counts(tree) == walked

    def test_path_from_root(self):
        assert path_from_root(self.tree(), 4) == [0, 1, 4]

    def test_path_to_root_is_empty(self):
        assert path_from_root(self.tree(), 0) == [0]

    def test_path_to_stranger_raises(self):
        with pytest.raises(KeyError):
            path_from_root(self.tree(), 42)


class TestMultiHopWithinOneTick:
    def test_chain_forms_when_pairs_arrive_in_order(self):
        # lexicographic pair order lets a fresh copy travel multiple hops in
        # one tick: (0,1) infects 1, then (1,2) infects 2
        tree = new_tree()
        for a, b in [(0, 1), (1, 2)]:
            meet(tree, a, b, (float(a), 0.0), (float(b), 0.0), 0.0)
        assert set(tree.order) == {0, 1, 2}
        assert path_from_root(tree, 2) == [0, 1, 2]


class TestTreeIndex:
    def test_new_tree_holds_only_its_root(self):
        tree = new_tree(3)
        assert tree.root == 3
        assert tree.order == [3]
        assert tree.depth[3] == 0
        assert links_of(tree) == []
        assert (tree.parent == -1).all()

    def test_depth_counts_hops_from_the_root(self):
        tree = new_tree()
        for a, b in [(0, 1), (1, 2), (0, 3)]:
            meet(tree, a, b, (0.0, 0.0), (1.0, 0.0), 1.0)
        assert {v: tree.depth[v] for v in tree.order} == {0: 0, 1: 1, 2: 2, 3: 1}
        assert all(tree.depth[v] == len(path_from_root(tree, v)) - 1 for v in tree.order)

    def test_added_handoffs_are_indexed_by_taker(self):
        tree = make_tree([(0, 1, 1.0), (1, 2, 2.0)])
        assert tree.parent[2] == 1
        assert tree.depth[2] == 2
        assert tree.joined_at[2] == 2.0

    def test_add_rejects_a_second_copy(self):
        tree = make_tree([(0, 1)])
        with pytest.raises(ValidationError):
            tree.add(0, 1, 0.0, 11.0, 10.0)
        with pytest.raises(ValidationError):
            tree.add(1, 0, 0.0, 11.0, 10.0)

    def test_add_rejects_a_sender_outside_the_tree(self):
        with pytest.raises(ValidationError):
            make_tree([(5, 6)])
