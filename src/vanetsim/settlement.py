"""Turning a packet's relay history into credit transfers.

Three settlement styles:

* proportional: the source's fixed reward budget is split across the
  non-source carriers in proportion to their contribution scores. Zero
  total contribution means nothing is paid and the budget stays put.
* packet purse: the source loads the budget onto the packet and each
  handoff drains a fixed hop price from it, in handoff order, until the
  purse runs dry. Later handoffs earn nothing.
* packet trade: the packet travels for free and the destination, once
  reached, pays the hop price to every vehicle that sold the packet
  onward along its delivery path. The source is never debited.

Each settle function takes the packet's forwarding tree, whose root is
the source, and the prices it needs as plain numbers, already checked
by ``PacketSpec`` and ``EngineConfig``; proportional records carry
non-negative scores. Nothing here checks them again. A run settles its
one packet once. The resulting report is the only record of who paid
whom: its ``balances`` credit every share and debit the payer the paid
total.
"""

from __future__ import annotations

import math

from .model import ContributionRecord, ForwardingTree, SettlementReport
from .routing import path_from_root

# tolerates float noise in budget/price division when counting fundable hops
_FUND_EPS = 1e-9


def settle_proportional(
    tree: ForwardingTree, records: list[ContributionRecord], budget: float
) -> SettlementReport:
    """Split ``budget`` by contribution share; the tree's root, the source, pays.

    Records must already be scored. The paid total never exceeds the
    budget: rounding overshoot is shaved off the largest share.
    """
    total_c = math.fsum(rec.contribution for rec in records)

    if total_c <= 0.0 or budget == 0.0:
        return SettlementReport(shares={rec.vehicle_id: 0.0 for rec in records}, payer_id=tree.root)

    shares = {rec.vehicle_id: budget * (rec.contribution / total_c) for rec in records}
    paid = math.fsum(shares.values())
    guard = 0
    while paid > budget:
        # overshoot is a few ulps at most; shave it off the largest share
        largest = max(shares, key=lambda vid: (shares[vid], -vid))
        shares[largest] = max(0.0, shares[largest] - (paid - budget))
        paid = math.fsum(shares.values())
        guard += 1
        if guard > 10:  # pragma: no cover - would indicate broken float logic
            raise AssertionError("budget shaving failed to converge")

    return SettlementReport(shares=shares, payer_id=tree.root, overspend=max(0.0, paid - budget))


def fundable_hops(budget: float, hop_price: float) -> int:
    """How many hop payments a purse of ``budget`` can cover."""
    if budget <= 0:
        return 0
    return int(math.floor(budget / hop_price + _FUND_EPS))


def settle_packet_purse(tree: ForwardingTree, budget: float, hop_price: float) -> SettlementReport:
    """Pay handoffs from a purse of ``budget`` in the order they happened; the source loads it.

    Each funded handoff pays its sender one hop price. Once the purse
    cannot cover the next hop, every remaining handoff goes unpaid: the
    packet is economically dead from that point on, which is the scheme's
    known failure mode. ``shortfall`` reports the unfunded demand.
    """
    takers = tree.order[1:]  # one handoff each, in the order they happened
    paid_links = min(len(takers), fundable_hops(budget, hop_price))

    # every funded handoff pays its sender, the source included: its own
    # handoffs are a wash once the payer debit is applied
    parent = tree.parent.tolist()
    shares = dict.fromkeys(tree.order, 0.0)
    for vid in takers[:paid_links]:
        shares[parent[vid]] += hop_price

    demand = len(takers) * hop_price
    shortfall = max(0.0, demand - budget)
    return SettlementReport(
        shares=shares, payer_id=tree.root, shortfall=shortfall, paid_link_count=paid_links
    )


def settle_packet_trade(
    tree: ForwardingTree, destination_id: int, hop_price: float
) -> SettlementReport:
    """Destination pays each seller on its delivery path one hop price.

    If the packet never reached the destination nobody pays anything.
    The source is never debited; at most it earns for the first sale.
    """
    shares = dict.fromkeys(tree.order, 0.0)
    if tree.carries[destination_id]:
        for seller in path_from_root(tree, destination_id)[:-1]:
            shares[seller] += hop_price
    shares.pop(destination_id, None)

    return SettlementReport(shares=shares, payer_id=destination_id)

