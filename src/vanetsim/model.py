"""Shared domain types for the simulator and the reward accounting."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(frozen=True)
class TreeLink:
    """One relay event: an encounter that copied the packet to a new node."""

    from_id: int
    to_id: int
    timestamp: float
    to_position: Vec2
    distance_from_origin: float  # origin -> forwarder position at relay time


@dataclass
class ForwardingTree:
    """Relay tree of the run's packet, rooted at the source vehicle.

    It is the packet's only relay record. ``root`` is the source, which
    pays under the budget schemes, and ``origin`` is where it stood at
    t=0, the point relay distances are measured from. Every vehicle
    appears at most once: nodes that have already carried the packet
    never re-enter, so links arrive in strictly tree-growing order.
    ``add`` indexes each link by the vehicle it reached (``link_to``,
    whose ``from_id`` is the parent) and gives that vehicle its hop count
    from the root (``depth``, root at 0). The keys of ``depth`` are the
    tree's nodes, so membership is ``vehicle_id in tree.depth``. Links
    passed to the constructor are added in order; append through ``add``
    only, never to ``links`` directly.
    """

    root: int
    origin: Vec2
    links: list[TreeLink] = field(default_factory=list)
    link_to: dict[int, TreeLink] = field(init=False, repr=False, compare=False)
    depth: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        links, self.links = self.links, []
        self.link_to = {}
        self.depth = {self.root: 0}
        for link in links:
            self.add(link)

    def add(self, link: TreeLink) -> None:
        """Append a handoff from a tree member to a vehicle not yet in the tree."""
        if link.to_id in self.depth:
            raise ValidationError(f"vehicle {link.to_id} is already in the tree")
        if link.from_id not in self.depth:
            raise ValidationError(f"vehicle {link.from_id} is not in the tree")
        self.depth[link.to_id] = self.depth[link.from_id] + 1
        self.link_to[link.to_id] = link
        self.links.append(link)


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
