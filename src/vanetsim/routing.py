"""Epidemic store-carry-forward routing.

A packet starts at its source vehicle, the root of its forwarding tree.
The tree also holds the origin, where the source stood at t=0; every
relay distance is measured from it.
Whenever a carrier meets a non-carrier inside radio range, the packet is
copied over and the handoff is added to the tree. Carriers keep their
copy, so each vehicle joins the tree at most once and the tree is the
packet's whole routing state: its nodes are the carriers, a carrier's
receipt time and position are on the link that reached it, and its
forwards are the links it sent. Within a tick a copy moves only along
that tick's contacts, from the vehicles that carried at its start, so the
engine routes only contacts in such a carrier's component, not both
carried, in (a, b) order: a receiver can forward again within the tick.
"""

from __future__ import annotations

from .model import ContributionRecord, ForwardingTree, TreeLink, distance


def handle_encounter(
    tree: ForwardingTree, a_id: int, b_id: int, x, y, now: float
) -> TreeLink | None:
    """Copy the packet across one contact if exactly one side carries it.

    ``x`` and ``y`` hold every vehicle's coordinates, indexed by id; only
    the two ends of a handoff are read. Returns the new tree link, or None
    when no handoff happened (neither side carries, or both already do).
    """
    carriers = tree.depth
    a_has = a_id in carriers
    if a_has == (b_id in carriers):
        return None
    giver, taker = (a_id, b_id) if a_has else (b_id, a_id)
    giver_pos = (float(x[giver]), float(y[giver]))
    # the link's distance is measured where the relaying node stood
    link = TreeLink(
        from_id=giver,
        to_id=taker,
        timestamp=now,
        to_position=(float(x[taker]), float(y[taker])),
        distance_from_origin=distance(giver_pos, tree.origin),
    )
    tree.add(link)
    return link


def stored_time(received_at: float, settle_time: float) -> float:
    """Seconds a vehicle has held its copy by settlement time."""
    return max(0.0, settle_time - received_at)


def collect_records(tree: ForwardingTree, settle_time: float) -> list[ContributionRecord]:
    """Contribution records for every carrier except the paying source.

    Ordered by vehicle id so downstream settlement is deterministic. A
    record's relay distances are those of the links it sent, in order.
    """
    origin = tree.origin
    sent: dict[int, list[float]] = {}
    for link in tree.links:
        sent.setdefault(link.from_id, []).append(link.distance_from_origin)
    records = []
    for vid in sorted(tree.link_to):
        received = tree.link_to[vid]
        relays = sent.get(vid, [])
        records.append(
            ContributionRecord(
                vehicle_id=vid,
                stored_time=stored_time(received.timestamp, settle_time),
                forward_count=len(relays),
                relay_distances=relays,
                receive_distance=distance(received.to_position, origin),
            )
        )
    return records


def descendant_counts(tree: ForwardingTree) -> dict[int, int]:
    """Proper-descendant count per tree node (leaves map to 0).

    Links arrive in tree-growing order, so walking them backwards finishes
    every subtree before the link that hangs it on its parent.
    """
    counts = dict.fromkeys(tree.depth, 0)
    for link in reversed(tree.links):
        counts[link.from_id] += counts[link.to_id] + 1
    return counts


def path_from_root(tree: ForwardingTree, node: int) -> list[TreeLink]:
    """The chain of links that brought the packet from the root to ``node``."""
    if node != tree.root and node not in tree.link_to:
        raise KeyError(f"vehicle {node} is not in the tree")
    chain: list[TreeLink] = []
    while node != tree.root:
        link = tree.link_to[node]
        chain.append(link)
        node = link.from_id
    chain.reverse()
    return chain
