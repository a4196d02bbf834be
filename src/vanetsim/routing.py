"""Epidemic store-carry-forward routing.

A packet starts at its source vehicle, the root of its forwarding tree.
The tree also holds the origin, where the source stood at t=0; every
distance is measured from it.
Whenever a carrier meets a non-carrier inside radio range, the packet is
copied over and the handoff is added to the tree. Carriers keep their
copy, so each vehicle joins the tree at most once and the tree is the
packet's whole routing state: its ``carries`` mask marks the carriers,
and each carrier's parent, receipt time and distances sit at its id.
A carrier's forwards are the nodes whose parent it is. Within a tick a
copy moves only along that tick's contacts, from the vehicles that
carried at its start, so the engine routes only contacts in such a
carrier's component, not both carried, in (a, b) order: a receiver can
forward again within the tick.
"""

from __future__ import annotations

from .model import ContributionRecord, ForwardingTree, distance


def handle_encounter(tree: ForwardingTree, a_id: int, b_id: int, x, y, now: float) -> int | None:
    """Copy the packet across one contact if exactly one side carries it.

    ``x`` and ``y`` hold every vehicle's coordinates, indexed by id; only
    the two ends of a handoff are read. Returns the id of the vehicle that
    took the packet, or None when no handoff happened (neither side
    carries, or both already do). Id 0 is a handoff too: test the result
    against None.
    """
    carries = tree.carries
    if carries[a_id]:
        if carries[b_id]:
            return None
        giver, taker = a_id, b_id
    elif carries[b_id]:
        giver, taker = b_id, a_id
    else:
        return None
    origin = tree.origin
    receive = distance((float(x[taker]), float(y[taker])), origin)
    relay = distance((float(x[giver]), float(y[giver])), origin)  # measured where the giver stood
    tree.add(giver, taker, now, receive, relay)
    return taker


def stored_time(received_at: float, settle_time: float) -> float:
    """Seconds a vehicle has held its copy by settlement time."""
    return max(0.0, settle_time - received_at)


def collect_records(tree: ForwardingTree, settle_time: float) -> list[ContributionRecord]:
    """Contribution records for every carrier except the paying source.

    Ordered by vehicle id so downstream settlement is deterministic. A
    record's relay distances are those of the handoffs it made, in order.
    """
    parent, joined_at = tree.parent.tolist(), tree.joined_at.tolist()
    receive, relay = tree.receive_distance.tolist(), tree.relay_distance.tolist()
    sent: dict[int, list[float]] = {}
    for vid in tree.order[1:]:
        sent.setdefault(parent[vid], []).append(relay[vid])
    records = []
    for vid in tree.carries.nonzero()[0].tolist():
        if vid == tree.root:
            continue
        relays = sent.get(vid, [])
        records.append(
            ContributionRecord(
                vehicle_id=vid,
                stored_time=stored_time(joined_at[vid], settle_time),
                forward_count=len(relays),
                relay_distances=relays,
                receive_distance=receive[vid],
            )
        )
    return records


def descendant_counts(tree: ForwardingTree) -> dict[int, int]:
    """Proper-descendant count per tree node (leaves map to 0), keyed in join order.

    Every node joins after its parent, so walking ``order`` backwards
    finishes every subtree before its root is added to its parent.
    """
    parent = tree.parent.tolist()
    counts = dict.fromkeys(tree.order, 0)
    for vid in tree.order[:0:-1]:
        counts[parent[vid]] += counts[vid] + 1
    return counts


def path_from_root(tree: ForwardingTree, node: int) -> list[int]:
    """The vehicles that carried the packet from the root to ``node``, both ends included."""
    if not tree.carries[node]:
        raise KeyError(f"vehicle {node} is not in the tree")
    parent = tree.parent.tolist()
    path = [node]
    while node != tree.root:
        node = parent[node]
        path.append(node)
    path.reverse()
    return path
