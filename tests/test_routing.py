import random

import pytest

from conftest import make_link
from vanetsim.model import ForwardingTree, ValidationError
from vanetsim.routing import (
    collect_records,
    descendant_counts,
    handle_encounter,
    path_from_root,
    stored_time,
)

def new_tree(source: int = 0) -> ForwardingTree:
    return ForwardingTree(root=source, origin=(0.0, 0.0))


def meet(tree, a, b, a_pos, b_pos, now):
    """One encounter with the two vehicles standing at ``a_pos`` and ``b_pos``."""
    x = {a: a_pos[0], b: b_pos[0]}
    y = {a: a_pos[1], b: b_pos[1]}
    return handle_encounter(tree, a, b, x, y, now)


class TestHandleEncounter:
    def test_copies_to_the_empty_side(self):
        tree = new_tree()
        link = meet(tree, 0, 5, (30.0, 40.0), (33.0, 44.0), 2.0)
        assert link is not None
        assert (link.from_id, link.to_id) == (0, 5)
        assert link.timestamp == 2.0
        assert tree.link_to[5].from_id == 0
        assert tree.depth[5] == 1
        assert tree.link_to[5].to_position == (33.0, 44.0)

    def test_direction_is_carrier_to_noncarrier(self):
        tree = new_tree()
        # same encounter, ids swapped: the carrier still gives
        link = meet(tree, 9, 0, (1.0, 0.0), (2.0, 0.0), 1.0)
        assert link is not None
        assert (link.from_id, link.to_id) == (0, 9)

    def test_link_distance_measured_at_the_giver(self):
        tree = new_tree()
        giver_pos = (30.0, 40.0)  # 50 m from the (0, 0) origin
        link = meet(tree, 0, 5, giver_pos, (90.0, 90.0), 1.0)
        assert link.distance_from_origin == 50.0
        assert [l.distance_from_origin for l in tree.links if l.from_id == 0] == [50.0]

    def test_forward_count_increments_per_handoff(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 1.0)
        meet(tree, 0, 2, (3.0, 0.0), (4.0, 0.0), 2.0)
        sent = [l for l in tree.links if l.from_id == 0]
        assert [l.distance_from_origin for l in sent] == [0.0, 3.0]
        assert [r.forward_count for r in collect_records(tree, 5.0)] == [0, 0]

    def test_both_carriers_is_a_noop(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 1.0)
        assert meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 2.0) is None
        assert meet(tree, 1, 0, (1.0, 0.0), (0.0, 0.0), 2.0) is None
        assert len(tree.links) == 1

    def test_neither_carries_is_a_noop(self):
        tree = new_tree()
        assert meet(tree, 4, 5, (0.0, 0.0), (1.0, 0.0), 1.0) is None
        assert tree.depth == {0: 0}

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
        tos = [l.to_id for l in tree.links]
        assert sorted(tos) == [1, 2]
        assert len(set(tos)) == len(tos)


class TestStoredTime:
    def test_elapsed_since_receipt(self):
        tree = new_tree()
        link = meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 10.0)
        assert link is not None
        assert stored_time(tree.link_to[1].timestamp, 25.0) == 15.0

    def test_never_negative(self):
        tree = new_tree()
        meet(tree, 0, 1, (0.0, 0.0), (1.0, 0.0), 10.0)
        assert stored_time(tree.link_to[1].timestamp, 5.0) == 0.0


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
        assert len(tree.links) == 2


class TestTreeQueries:
    def tree(self) -> ForwardingTree:
        #        0
        #       / \
        #      1   2
        #     / \    \
        #    3   4    5
        return ForwardingTree(
            root=0,
            origin=(0.0, 0.0),
            links=[
                make_link(0, 1, 1.0),
                make_link(0, 2, 1.0),
                make_link(1, 3, 2.0),
                make_link(1, 4, 2.0),
                make_link(2, 5, 3.0),
            ],
        )

    def test_descendant_counts(self):
        assert descendant_counts(self.tree()) == {0: 5, 1: 2, 2: 1, 3: 0, 4: 0, 5: 0}

    def test_descendants_of_bare_root(self):
        assert descendant_counts(ForwardingTree(root=4, origin=(0.0, 0.0))) == {4: 0}

    def test_descendants_match_a_walk_up_the_parents(self):
        rng = random.Random(3)
        tree = ForwardingTree(root=0, origin=(0.0, 0.0))
        for to_id in range(1, 40):
            tree.add(make_link(rng.randrange(to_id), to_id))  # parent is some earlier node
        walked = dict.fromkeys(tree.depth, 0)
        for node in tree.depth:
            while node in tree.link_to:
                node = tree.link_to[node].from_id
                walked[node] += 1
        assert descendant_counts(tree) == walked

    def test_path_from_root(self):
        path = path_from_root(self.tree(), 4)
        assert [(l.from_id, l.to_id) for l in path] == [(0, 1), (1, 4)]

    def test_path_to_root_is_empty(self):
        assert path_from_root(self.tree(), 0) == []

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
        assert set(tree.depth) == {0, 1, 2}
        path = path_from_root(tree, 2)
        assert [(l.from_id, l.to_id) for l in path] == [(0, 1), (1, 2)]


class TestTreeIndex:
    def test_new_tree_holds_only_its_root(self):
        tree = new_tree(3)
        assert tree.root == 3
        assert tree.depth == {3: 0}
        assert tree.links == []
        assert tree.link_to == {}

    def test_depth_counts_hops_from_the_root(self):
        tree = new_tree()
        for a, b in [(0, 1), (1, 2), (0, 3)]:
            meet(tree, a, b, (0.0, 0.0), (1.0, 0.0), 1.0)
        assert tree.depth == {0: 0, 1: 1, 2: 2, 3: 1}
        assert all(tree.depth[v] == len(path_from_root(tree, v)) for v in tree.depth)

    def test_constructor_links_are_indexed(self):
        tree = ForwardingTree(root=0, origin=(0.0, 0.0), links=[make_link(0, 1), make_link(1, 2)])
        assert tree.link_to[2].from_id == 1
        assert tree.depth[2] == 2

    def test_add_rejects_a_second_copy(self):
        tree = ForwardingTree(root=0, origin=(0.0, 0.0), links=[make_link(0, 1)])
        with pytest.raises(ValidationError):
            tree.add(make_link(0, 1))
        with pytest.raises(ValidationError):
            tree.add(make_link(1, 0))

    def test_add_rejects_a_sender_outside_the_tree(self):
        with pytest.raises(ValidationError):
            ForwardingTree(root=0, origin=(0.0, 0.0), links=[make_link(5, 6)])
