"""Discrete-tick simulation driver.

One run places a fleet, injects a single packet at a source vehicle at
t=0, runs the ticks of the packet's life through two layers and settles
once. The packet's forwarding tree is its relay record: the source is
its root, and its origin is where the source stood at t=0. ``contacts``
is the physics: it steps the fleet once every tick after 0 and yields
each tick's radio contacts, filtered from the one pair list the run keeps
(``kernels.pair_list``). ``_route_tick`` hands the packet across them in
(a, b) order, walking only the pairs that ``routing`` says can carry it. The packet's life ends at
``end = min(duration, deadline)``: the last tick is the last k with
k * tick_seconds <= end, and the run settles at end. A run configured for
delivery-triggered settlement (always so under packet trade) stops
routing and mobility at the tick of first delivery instead, and settles
at its time. Simulated time at tick k is the float k * tick_seconds,
never a running sum, so fractional ticks do not drift. Two child RNG
streams of the run seed, one for mobility and one for the engine's own
draws, drive everything, so a (scenario, seed) pair fully determines the
outcome. The rules a fleet must meet to hold the run's source and
destination are ``endpoint_problems``; a scenario file is checked against
the same rules, and ``run`` checks them before its first draw. The
``RunResult`` holds everything the summary reads, the ``IncentiveConfig``
the run was scored with included, and the settlement report's
``balances`` are the run's only credit postings.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .incentives import IncentiveConfig
from .kernels import contact_pairs, pair_list
from .mobility import MobilityConfig, RandomWaypointModel
from .model import (
    PROPORTIONAL_SCHEMES,
    ContributionRecord,
    ForwardingTree,
    PacketSpec,
    Scheme,
    SettlementReport,
    ValidationError,
)
from .routing import collect_records, handle_encounter
from .settlement import settle_packet_purse, settle_packet_trade, settle_proportional


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


def _settles_on_delivery(engine_cfg: EngineConfig, scheme: Scheme) -> bool:
    return engine_cfg.settle_on_delivery or scheme is Scheme.PACKET_TRADE


def endpoint_problems(vehicle_count: int, engine_cfg: EngineConfig, scheme: Scheme) -> list[str]:
    """Every reason a fleet of ``vehicle_count`` cannot hold the run's source and destination.

    A run has a destination when one is given or when it settles on
    delivery (always so under packet trade), which draws one; either way
    the source and the destination are two vehicles.
    """
    n = vehicle_count
    source, destination = engine_cfg.source_id, engine_cfg.destination_id
    problems = []
    if source is not None and not 0 <= source < n:
        problems.append(f"engine.source_id: must be in [0, {n})")
    if destination is not None and not 0 <= destination < n:
        problems.append(f"engine.destination_id: must be in [0, {n})")
    if destination is not None and destination == source:
        problems.append("engine.destination_id: must differ from source_id")
    if n < 2 and (destination is not None or _settles_on_delivery(engine_cfg, scheme)):
        problems.append(
            "mobility.vehicle_count: a run with a destination (destination_id,"
            " settle_on_delivery or packet trade) needs at least 2 vehicles"
        )
    return problems


@dataclass
class RunResult:
    """Everything a finished run produced; the source is the tree's root.

    ``incentives`` is the config the run was scored with, so a summary
    needs nothing but the result. Who paid whom is ``report.balances``.
    """

    seed: int
    incentives: IncentiveConfig
    destination_id: int | None
    packet: PacketSpec
    tree: ForwardingTree
    records: list[ContributionRecord]
    report: SettlementReport
    settle_time: float
    final_time: float
    ticks_run: int
    contact_events: int

    @property
    def source_id(self) -> int:
        return self.tree.root

    @property
    def delivered(self) -> bool | None:
        """Whether the packet reached the destination; None when the run has none."""
        return None if self.destination_id is None else self.destination_id in self.tree.link_to


def _settle(
    tree: ForwardingTree,
    packet: PacketSpec,
    destination_id: int | None,
    incentives: IncentiveConfig,
    engine_cfg: EngineConfig,
    settle_time: float,
) -> tuple[list[ContributionRecord], SettlementReport]:
    records = collect_records(tree, settle_time)
    scheme = incentives.scheme
    if scheme in PROPORTIONAL_SCHEMES:
        incentives.score_records(records, packet)
        report = settle_proportional(tree, records, packet.reward_budget)
    elif scheme is Scheme.PACKET_PURSE:
        report = settle_packet_purse(tree, packet.reward_budget, engine_cfg.hop_price)
    elif scheme is Scheme.PACKET_TRADE:
        report = settle_packet_trade(tree, destination_id, engine_cfg.hop_price)
    else:  # pragma: no cover - enum is exhaustive
        raise ValidationError(f"unhandled scheme {scheme}")
    return records, report


def contacts(model: RandomWaypointModel, radio_range: float, last_tick: int) -> Iterator[tuple]:
    """Yield ``(now, model.x, model.y, a, b)`` for ticks 0..last_tick; each after 0 steps the model first."""
    cfg = model.config
    neighbours = pair_list(cfg.vehicle_count, radio_range, cfg.speed_max * cfg.tick_seconds)
    for tick in range(last_tick + 1):
        if tick:
            model.step()
        a, b = contact_pairs(model.x, model.y, radio_range, neighbours)
        yield model.now, model.x, model.y, a, b


def _route_tick(
    tree: ForwardingTree, carried: np.ndarray, a: np.ndarray, b: np.ndarray,
    x: np.ndarray, y: np.ndarray, now: float, stop_at: int | None,
) -> bool:
    """Hand the packet across one tick's contacts, marking new carriers; True once ``stop_at`` joins."""
    if len(tree.depth) == len(carried):
        return False  # every vehicle carries: no contact can hand off
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
        link = handle_encounter(tree, i, j, x, y, now)
        if link is not None:
            carried[link.to_id] = True
            if link.to_id == stop_at:
                return True
    return False


def run(
    mobility_cfg: MobilityConfig,
    engine_cfg: EngineConfig,
    incentive_cfg: IncentiveConfig,
    packet_spec: PacketSpec,
    seed: int,
) -> RunResult:
    """Simulate one packet's lifetime and settle its rewards."""
    n = mobility_cfg.vehicle_count
    scheme = incentive_cfg.scheme
    problems = endpoint_problems(n, engine_cfg, scheme)
    if problems:
        raise ValidationError("; ".join(problems))
    mob_seq, eng_seq = np.random.SeedSequence(seed).spawn(2)
    rng_engine = np.random.default_rng(eng_seq)
    model = RandomWaypointModel(mobility_cfg, np.random.default_rng(mob_seq))

    source = engine_cfg.source_id
    if source is None:
        candidates = [i for i in range(n) if i != engine_cfg.destination_id]
        source = candidates[int(rng_engine.integers(0, len(candidates)))]
    settle_on_delivery = _settles_on_delivery(engine_cfg, scheme)
    destination = engine_cfg.destination_id
    if destination is None and settle_on_delivery:
        others = [i for i in range(n) if i != source]
        destination = others[int(rng_engine.integers(0, len(others)))]
    tree = ForwardingTree(root=source, origin=model.position_of(source))

    dt = mobility_cfg.tick_seconds
    end = float(min(engine_cfg.duration, packet_spec.deadline))  # never an int
    # k * dt rounds: count down from past end / dt to the last tick whose clock reads at most end
    last_tick = next(k for k in range(math.floor(end / dt) + 1, -1, -1) if k * dt <= end)
    stop_at = destination if settle_on_delivery else None
    carried = np.zeros(n, dtype=bool)
    carried[source] = True
    contact_events = 0
    for now, x, y, a, b in contacts(model, engine_cfg.radio_range, last_tick):
        contact_events += len(a)
        if _route_tick(tree, carried, a, b, x, y, now, stop_at):
            break  # the packet's life ended at this tick

    settle_time = tree.link_to[stop_at].timestamp if stop_at in tree.link_to else end
    records, report = _settle(tree, packet_spec, destination, incentive_cfg, engine_cfg, settle_time)
    return RunResult(
        seed=seed,
        incentives=incentive_cfg,
        destination_id=destination,
        packet=packet_spec,
        tree=tree,
        records=records,
        report=report,
        settle_time=settle_time,
        final_time=model.now,
        ticks_run=model.tick,
        contact_events=contact_events,
    )
