"""Discrete-tick simulation driver.

One run: place a fleet, inject a single packet at a source vehicle at
t=0, then run one loop over the ticks within both the run and the packet
deadline. Every tick after 0 moves the fleet; each tick detects radio
contacts and hands the packet across them epidemically. Every run keeps
one pair list and filters it each tick by the contact predicate: below
NEIGHBOUR_LIST_MIN_VEHICLES ``AllPairs``, every pair, built once; from
there on a Verlet ``NeighbourList`` of the pairs within ``radio_range +
skin``, ``skin = min(radio_range, 4 * speed_max * tick_seconds)``, rebuilt
once some vehicle has moved more than ``skin / 2``. Both give exactly the
one-shot ``contact_pairs``. Within a tick the packet spreads only along
its pairs from the tick's first carriers, so only pairs in a carrier's
component (grown in numpy) and not both carried are walked, in (a, b)
order: a vehicle reached early in a tick can forward within it.
Routing stops early at first delivery when the run is configured for
delivery-triggered settlement (always the case for the packet-trade
scheme); mobility stops with routing. The run then settles once, at the
delivery time if a delivery ended it, otherwise at the earlier of the
run's duration and the deadline. Simulated time at tick k is the float
k * tick_seconds, never a running sum, so fractional ticks do not drift.
Everything is driven by two child RNG streams of the run seed, one for
mobility and one for the engine's own draws, so a (scenario, seed) pair
fully determines the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .incentives import IncentiveConfig
from .kernels import NEIGHBOUR_LIST_MIN_VEHICLES, AllPairs, NeighbourList, contact_pairs
from .mobility import MobilityConfig, RandomWaypointModel
from .model import (
    PROPORTIONAL_SCHEMES,
    ContributionRecord,
    ForwardingTree,
    Packet,
    PayloadClass,
    Scheme,
    SettlementReport,
    ValidationError,
    Vehicle,
)
from .routing import collect_records, handle_encounter
from .settlement import (
    apply_settlement,
    settle_packet_purse,
    settle_packet_trade,
    settle_proportional,
)


@dataclass(frozen=True)
class PacketSpec:
    """Parameters of the single packet a run injects."""

    reward_budget: float = 100.0
    deadline: float = 300.0
    interest_radius: float = 500.0
    payload_class: PayloadClass = PayloadClass.SAFETY
    packet_id: str = "p0"

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not 0 <= self.reward_budget < math.inf:
            raise ValidationError("reward_budget must be non-negative and finite")
        if not 0 < self.deadline < math.inf:
            raise ValidationError("deadline must be positive and finite")
        if not 0 < self.interest_radius < math.inf:
            raise ValidationError("interest_radius must be positive and finite")


@dataclass(frozen=True)
class EngineConfig:
    radio_range: float = 100.0
    duration: float = 600.0
    source_id: int | None = None  # None: drawn from the engine RNG stream
    destination_id: int | None = None  # None: drawn when a destination is needed
    settle_on_delivery: bool = False
    hop_price: float = 1.0

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not 0 < self.radio_range < math.inf:
            raise ValidationError("radio_range must be positive and finite")
        if not 0 <= self.duration < math.inf:
            raise ValidationError("duration must be non-negative and finite")
        if not 0 < self.hop_price < math.inf:
            raise ValidationError("hop_price must be positive and finite")


@dataclass
class RunResult:
    """Everything a finished run produced."""

    seed: int
    scheme: Scheme
    source_id: int
    destination_id: int | None
    packet: Packet
    tree: ForwardingTree
    records: list[ContributionRecord]
    report: SettlementReport
    vehicles: dict[int, Vehicle]
    settle_time: float
    final_time: float
    ticks_run: int
    contact_events: int
    delivered: bool | None


def _settle(
    tree: ForwardingTree,
    packet: Packet,
    destination_id: int | None,
    incentives: IncentiveConfig,
    engine_cfg: EngineConfig,
    settle_time: float,
) -> tuple[list[ContributionRecord], SettlementReport]:
    records = collect_records(tree, packet, settle_time)
    scheme = incentives.scheme
    if scheme in PROPORTIONAL_SCHEMES:
        incentives.score_records(records, packet)
        report = settle_proportional(packet, records, scheme)
    elif scheme is Scheme.PACKET_PURSE:
        report = settle_packet_purse(packet, tree, engine_cfg.hop_price)
    elif scheme is Scheme.PACKET_TRADE:
        report = settle_packet_trade(packet, tree, destination_id, engine_cfg.hop_price)
    else:  # pragma: no cover - enum is exhaustive
        raise ValidationError(f"unhandled scheme {scheme}")
    return records, report


def run(
    mobility_cfg: MobilityConfig,
    engine_cfg: EngineConfig,
    incentive_cfg: IncentiveConfig,
    packet_spec: PacketSpec,
    seed: int,
) -> RunResult:
    """Simulate one packet's lifetime and settle its rewards."""
    n = mobility_cfg.vehicle_count
    mob_seq, eng_seq = np.random.SeedSequence(seed).spawn(2)
    rng_engine = np.random.default_rng(eng_seq)
    model = RandomWaypointModel(mobility_cfg, np.random.default_rng(mob_seq))

    source = engine_cfg.source_id
    if source is None:
        forbidden = engine_cfg.destination_id
        candidates = [i for i in range(n) if i != forbidden]
        if not candidates:
            raise ValidationError("no vehicle left to act as the source")
        source = candidates[int(rng_engine.integers(0, len(candidates)))]
    elif not 0 <= source < n:
        raise ValidationError(f"source_id {source} outside fleet of {n}")

    scheme = incentive_cfg.scheme
    settle_on_delivery = engine_cfg.settle_on_delivery or scheme is Scheme.PACKET_TRADE
    destination = engine_cfg.destination_id
    if destination is None and settle_on_delivery:
        others = [i for i in range(n) if i != source]
        if not others:
            raise ValidationError("delivery settlement needs at least 2 vehicles")
        destination = others[int(rng_engine.integers(0, len(others)))]
    if destination is not None and not 0 <= destination < n:
        raise ValidationError(f"destination_id {destination} outside fleet of {n}")
    if destination is not None and destination == source:
        raise ValidationError("destination must differ from the source")

    packet = Packet(
        id=packet_spec.packet_id,
        source_id=source,
        origin_position=model.position_of(source),
        reward_budget=packet_spec.reward_budget,
        deadline=packet_spec.deadline,
        interest_radius=packet_spec.interest_radius,
    )
    tree = ForwardingTree(root=source)

    dt = mobility_cfg.tick_seconds
    ticks_total = int(round(engine_cfg.duration / dt))
    # the last tick run: the model's clock reads k * dt, within the deadline
    past = (k for k in range(ticks_total + 1) if k * dt > packet.deadline)
    last_tick = next(past, ticks_total + 1) - 1
    contact_events = 0
    delivered_at: float | None = None
    carried = np.zeros(n, dtype=bool)
    carried[source] = True
    if n < NEIGHBOUR_LIST_MIN_VEHICLES:
        neighbours = AllPairs(n)
    else:  # ~2 ticks at top speed between rebuilds; the list stays exact at any speed
        neighbours = NeighbourList(min(engine_cfg.radio_range, 4.0 * mobility_cfg.speed_max * dt))
    for tick in range(last_tick + 1):
        if tick:
            model.step()
        now = model.now
        x, y = model.x, model.y
        a, b = contact_pairs(x, y, engine_cfg.radio_range, neighbours)
        contact_events += len(a)
        if len(tree.depth) == n:
            continue  # every vehicle carries: no contact can hand off
        # both ends carried at tick start, so both still carry: no handoff possible
        keep = ~(carried[a] & carried[b])
        a, b = a[keep], b[keep]
        reach = carried.copy()  # a pair out of every carrier's component cannot hand off
        grow = reach[a] != reach[b]
        while np.count_nonzero(grow):
            reach[a[grow]] = reach[b[grow]] = True
            grow = reach[a] != reach[b]
        keep = reach[a]
        for i, j in zip(a[keep].tolist(), b[keep].tolist()):
            link = handle_encounter(tree, packet, i, j, x, y, now)
            if link is None:
                continue
            carried[link.to_id] = True
            if link.to_id == destination:  # a vehicle joins the tree once
                delivered_at = now
                if settle_on_delivery:
                    break
        if settle_on_delivery and delivered_at is not None:
            break  # the packet's life ended at this tick

    if settle_on_delivery and delivered_at is not None:
        settle_time = delivered_at
    else:  # not model.now, which stops short of a deadline between ticks; never an int
        settle_time = float(min(ticks_total * dt, packet.deadline))
    records, report = _settle(tree, packet, destination, incentive_cfg, engine_cfg, settle_time)
    vehicles = {
        i: Vehicle(
            id=i, position=model.position_of(i), velocity=(float(model.vx[i]), float(model.vy[i]))
        )
        for i in range(n)
    }
    apply_settlement(report, vehicles)

    return RunResult(
        seed=seed,
        scheme=scheme,
        source_id=source,
        destination_id=destination,
        packet=packet,
        tree=tree,
        records=records,
        report=report,
        vehicles=vehicles,
        settle_time=settle_time,
        final_time=model.now,
        ticks_run=model.tick,
        contact_events=contact_events,
        delivered=None if destination is None else delivered_at is not None,
    )
