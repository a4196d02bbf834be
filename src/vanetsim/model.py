"""Shared domain types for the simulator and the reward accounting.

``ForwardingTree`` is a run's one record of its packet: numpy arrays
indexed by vehicle id, read by the router, the settlement and the
summary. Each reader takes Python values from them (``tolist``) before
its per-node loop, so no numpy scalar reaches a record or an export.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

Vec2 = tuple[float, float]

WEIGHT_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a config or domain object violates its invariants."""


class PayloadClass(Enum):
    SAFETY = "safety"
    ADDED_VALUE = "added_value"


class Scheme(Enum):
    BASIC_LINEAR = "basic_linear"
    FIRST_PROPOSAL = "first_proposal"
    SECOND_PROPOSAL = "second_proposal"
    PACKET_PURSE = "packet_purse"
    PACKET_TRADE = "packet_trade"


PROPORTIONAL_SCHEMES = frozenset(
    {Scheme.BASIC_LINEAR, Scheme.FIRST_PROPOSAL, Scheme.SECOND_PROPOSAL}
)
# the schemes that score time and forwards only: their distance weight is 0
TWO_TERM_SCHEMES = frozenset({Scheme.BASIC_LINEAR, Scheme.FIRST_PROPOSAL})


def is_finite(value) -> bool:
    """Whether a real number is finite as a float: NaN, an infinity and an int too large for a float are not."""
    try:
        return math.isfinite(value)
    except OverflowError:  # the int cannot be converted
        return False


def check_range(name: str, value, low: float = 0.0, high: float = math.inf, *, open_low: bool = False) -> None:
    """Raise a ValidationError naming ``name`` unless ``value`` is finite and in [low, high].

    ``open_low`` leaves ``low`` out. A bool, a string or None fails, as NaN
    and an int too large for a float do.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and is_finite(value) and (low < value if open_low else low <= value) and value <= high):
        interval = f"{'(' if open_low else '['}{float(low):g}, {high:g}{']' if high < math.inf else ')'}"
        raise ValidationError(f"{name} must be a finite number in {interval}, got {value!r}")


def distance(a: Vec2, b: Vec2) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)


@dataclass(frozen=True)
class WeightSet:
    """Convex balance between the storage-time, forwarding and distance credits.

    The three weights must sum to 1; two-term metrics use (alpha, 1-alpha, 0).
    """

    time_weight: float
    forward_weight: float
    distance_weight: float

    def __post_init__(self) -> None:
        for name in ("time_weight", "forward_weight", "distance_weight"):
            check_range(name, getattr(self, name), 0.0, 1.0)
        total = self.time_weight + self.forward_weight + self.distance_weight
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1 (got {total!r})")

    @property
    def is_two_term(self) -> bool:
        return self.distance_weight == 0.0


@dataclass(frozen=True)
class PacketSpec:
    """The single packet a run injects at its source at t=0: reward budget and validity limits."""

    reward_budget: float = 100.0
    deadline: float = 300.0
    interest_radius: float = 500.0
    payload_class: PayloadClass = PayloadClass.SAFETY
    packet_id: str = "p0"

    def __post_init__(self) -> None:
        if not isinstance(self.payload_class, PayloadClass):
            raise ValidationError(f"payload_class must be a PayloadClass, got {self.payload_class!r}")
        check_range("reward_budget", self.reward_budget)
        check_range("deadline", self.deadline, open_low=True)
        check_range("interest_radius", self.interest_radius, open_low=True)


class ForwardingTree:
    """Relay tree of the run's packet over a fleet of ``n`` vehicles, rooted at the source.

    It is the packet's only relay record, one entry per vehicle id in
    each array. ``root`` is the source, which pays under the budget
    schemes, and ``origin`` is where it stood at t=0, the point every
    distance is measured from. ``carries`` marks the tree's nodes, and
    ``order`` lists them in join order, root first. A node v other than
    the root got the packet from ``parent[v]`` at ``joined_at[v]``,
    ``depth[v]`` hops from the root, while it stood ``receive_distance[v]``
    and its parent ``relay_distance[v]`` from the origin. ``parent`` is -1
    at the root and off the tree; the other arrays hold 0 there. Nodes
    that have carried the packet never re-enter, so every node comes after
    its parent in ``order``. Grow the tree through ``add`` only.
    """

    def __init__(self, root: int, origin: Vec2, n: int) -> None:
        self.root, self.origin = root, origin
        self.carries = np.zeros(n, dtype=bool)
        self.carries[root] = True
        self.parent = np.full(n, -1)
        self.depth = np.zeros(n, dtype=int)
        self.joined_at, self.receive_distance, self.relay_distance = np.zeros((3, n))
        self.order = [root]

    def add(self, giver: int, taker: int, now: float, receive_distance: float, relay_distance: float) -> None:
        """Record a handoff from a tree member to a vehicle not yet in the tree."""
        if self.carries[taker]:
            raise ValidationError(f"vehicle {taker} is already in the tree")
        if not self.carries[giver]:
            raise ValidationError(f"vehicle {giver} is not in the tree")
        self.carries[taker] = True
        self.parent[taker] = giver
        self.depth[taker] = self.depth[giver] + 1
        self.joined_at[taker] = now
        self.receive_distance[taker] = receive_distance
        self.relay_distance[taker] = relay_distance
        self.order.append(taker)


@dataclass
class ContributionRecord:
    """One node's reported participation in disseminating the packet."""

    vehicle_id: int
    stored_time: float
    forward_count: int
    relay_distances: list[float]
    receive_distance: float  # origin -> receive position; used when f == 0
    contribution: float = 0.0


@dataclass
class SettlementReport:
    """Final per-node reward shares for the packet, and what the summary exports about them.

    It is the run's only record of who paid whom: ``balances`` posts the
    shares as credits and the paid total as the payer's debit.
    """

    shares: dict[int, float]
    payer_id: int
    overspend: float = 0.0
    shortfall: float = 0.0  # purse scheme: demand beyond the loaded budget
    paid_link_count: int | None = None  # purse scheme only

    @property
    def total_paid(self) -> float:
        return math.fsum(self.shares.values())

    @property
    def balances(self) -> dict[int, float]:
        """Vehicle id -> net credit after settlement; vehicles absent from it hold 0."""
        balances = dict(self.shares)
        balances[self.payer_id] = balances.get(self.payer_id, 0.0) - self.total_paid
        return balances
