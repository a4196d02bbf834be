"""Discrete-tick simulation driver.

One run places a fleet, injects a single packet at a source vehicle at
t=0, runs the ticks of the packet's life through two layers and settles
once. The packet's forwarding tree is its relay record: the source is
its root, and its origin is where the source stood at t=0. ``contacts``
is the physics: it steps the fleet once every tick after 0, each step
writing the tick's positions straight into that tick's contiguous slot
of the block, and yields a block of ticks at a time, their positions and
radio contacts, filtered from the one pair list the run keeps
(``kernels.pair_list``) by one ``contact_pairs`` call per block, with
the row ends that split the block's pairs into its ticks, whatever the
block's width. A block is up to the pair list's ``block`` ticks: many
for an all-pairs list, up to five for a Verlet list, which one build at
the block's middle tick serves. ``_route_block`` hands the packet across
a block's ticks in turn, each in (a, b) order, walking only the pairs
that ``routing`` says can carry it. It splits out only the ticks on
which a carrier meets a non-carrier: after a tick with none, one test
over the rest of the block finds the next, so ticks that cannot hand off
cost no Python each, and none is routed once every vehicle carries, so
from the next block on the run only counts contacts and clears the pair
list's ``ordered`` flag: a Verlet build skips its sort. The packet's life
ends at ``end = min(duration, deadline)``, in whole ticks: the last tick
is end / tick_seconds, read as an integer within a few ulps of one and
rounded down otherwise. The run settles at end, or at the first delivery
when that settles it (always so under packet trade). Its tick stops
routing, and the run's clock, tick count and contact count are that
tick's, though the fleet may have stepped to the end of its block. A run
never settles past end, though the last tick's clock can read an ulp
past it (3 * 0.1 > 0.3): a handoff then is held for 0 s.
Simulated time at tick k is the float k * tick_seconds, never a running
sum, so fractional ticks do not drift. Two child RNG streams of the run
seed, one for mobility and one for the engine's own draws, drive
everything, so a (scenario, seed) pair fully determines the outcome.
``run_problems`` is the one list of rules across the configs: the fleet
must hold the run's source and destination, the deadline in
``time_scale`` units must keep every score finite, and the tick count
must be finite and at most 2**53. ``run`` applies it before its first
draw, and a scenario file is checked against the same list, so
``validate`` and ``run`` refuse the same configs. The ``RunResult`` holds
everything the summary reads, the ``IncentiveConfig`` the run was scored
with included, and the settlement report's ``balances`` are the run's
only credit postings.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .incentives import IncentiveConfig
from .kernels import AllPairs, NeighbourList, contact_pairs, pair_list
from .mobility import MobilityConfig, RandomWaypointModel
from .model import (
    PROPORTIONAL_SCHEMES,
    ContributionRecord,
    ForwardingTree,
    PacketSpec,
    Scheme,
    SettlementReport,
    ValidationError,
    check_range,
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
        check_range("radio_range", self.radio_range, open_low=True)
        check_range("duration", self.duration)
        check_range("hop_price", self.hop_price, open_low=True)


def _settles_on_delivery(engine_cfg: EngineConfig, scheme: Scheme) -> bool:
    return engine_cfg.settle_on_delivery or scheme is Scheme.PACKET_TRADE


def run_problems(
    mobility_cfg: MobilityConfig, engine_cfg: EngineConfig, incentive_cfg: IncentiveConfig, packet_spec: PacketSpec
) -> list[str]:
    """Every reason the four configs cannot make one run; empty if they can.

    Endpoints: the source and the destination are vehicles of the fleet,
    and two of them. A run has a destination when one is given or when it
    settles on delivery (always so under packet trade), which draws one.

    Scale: stored times are read against the deadline in ``time_scale``
    units, T, so T must be positive and finite. A stored time is at most
    the deadline, so a score, a blend by weights that sum to 1, is at most
    the largest of its time credit (T; T * T in the first proposal's
    product mode, 1 in its ratio mode), its forwards (n - 1) and the second
    proposal's distance credit (the interest radius). Settlement sums up to
    n - 1 scores, so n - 1 times that bound must be finite too.

    Ticks: the last tick is ``min(duration, deadline) / tick_seconds`` in
    whole ticks, so that ratio must be finite; a subnormal tick overflows it.
    Tick k's clock is ``k * tick_seconds``, with k made a float, which is
    exact only up to 2**53, so the last tick is at most 2**53.
    """
    n = mobility_cfg.vehicle_count
    source, destination = engine_cfg.source_id, engine_cfg.destination_id
    problems = []
    for name, vehicle in (("source_id", source), ("destination_id", destination)):
        integral = isinstance(vehicle, (int, np.integer)) and not isinstance(vehicle, bool)
        if vehicle is not None and not (integral and 0 <= vehicle < n):
            problems.append(f"engine.{name}: must be an integer in [0, {n})")
    if destination is not None and destination == source:
        problems.append("engine.destination_id: must differ from source_id")
    if n < 2 and (destination is not None or _settles_on_delivery(engine_cfg, incentive_cfg.scheme)):
        problems.append(
            "mobility.vehicle_count: a run with a destination (destination_id,"
            " settle_on_delivery or packet trade) needs at least 2 vehicles"
        )

    scaled = packet_spec.deadline / incentive_cfg.time_scale
    if not 0 < scaled < math.inf:  # written so that NaN fails it; without a T there is no bound
        problems.append("incentives.time_scale: packet.deadline / time_scale must be positive and finite")
    else:
        carriers, product = max(n - 1, 1), incentive_cfg.first_proposal_mode == "product"
        credit = {Scheme.BASIC_LINEAR: scaled, Scheme.FIRST_PROPOSAL: scaled * scaled if product else 1.0,
                  Scheme.SECOND_PROPOSAL: max(scaled, packet_spec.interest_radius)}.get(incentive_cfg.scheme, 0.0)
        if not carriers * max(credit, carriers) < math.inf:
            problems.append(f"incentives: {carriers} carriers' scores, each up to {credit:g} with"
                            f" deadline / time_scale = {scaled:g}, must sum to a finite total")

    ticks = float(min(engine_cfg.duration, packet_spec.deadline)) / mobility_cfg.tick_seconds
    if not ticks < math.inf:
        problems.append("mobility.tick_seconds: min(engine.duration, packet.deadline)"
                        " / tick_seconds must be finite")
    elif ticks > 2**53:
        problems.append("mobility.tick_seconds: min(engine.duration, packet.deadline)"
                        " / tick_seconds must be at most 2**53")
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
    else:
        report = settle_packet_trade(tree, destination_id, engine_cfg.hop_price)
    return records, report


def contacts(
    model: RandomWaypointModel, neighbours: AllPairs | NeighbourList, last_tick: int
) -> Iterator[tuple]:
    """Yield ``(first, xs, ys, a, b, ends)`` for blocks of ticks 0..last_tick.

    A block holds up to ``neighbours.block`` ticks from ``first`` on:
    ``xs[i]`` and ``ys[i]`` are tick first + i's positions, and its pairs
    are ``a[ends[i - 1]:ends[i]]`` and ``b[...]`` (from 0 for i = 0),
    filtered for the whole block in one ``contact_pairs`` call. The block
    is one kept ``(width, 2, n)`` array; each tick after 0 is one
    ``model.step(slot)`` into its contiguous ``(2, n)`` slot, which becomes
    the model's ``pos``. ``xs`` and ``ys`` view the slots' rows until the
    next block is yielded. The list filters a block after the previous
    one is routed, so a flag the caller sets in between holds for it.
    """
    width = neighbours.block
    stack = np.empty((width, 2, model.config.vehicle_count))  # stack[i]: tick i's contiguous (2, n) positions
    xs, ys = stack[:, 0], stack[:, 1]
    step = model.step
    stack[0] = model.pos  # tick 0's positions, the only ones copied
    for first in range(0, last_tick + 1, width):
        k = min(width, last_tick + 1 - first)
        for slot in stack[0 if first else 1:k]:
            step(slot)
        a, b, ends = contact_pairs(xs[:k], ys[:k], neighbours)
        yield first, xs[:k], ys[:k], a, b, ends


def _route_block(
    tree: ForwardingTree, carried: np.ndarray, first: int, xs: np.ndarray, ys: np.ndarray, a: np.ndarray,
    b: np.ndarray, ends: list[int], tick_seconds: float, stop_at: int | None,
) -> int | None:
    """Hand the packet across a block from ``contacts``, marking new carriers; the tick ``stop_at`` joins on.

    The result is that tick's index i in the block, where routing stops, or
    None if ``stop_at`` did not join. Only a tick on which a carrier meets a
    non-carrier can hand off, and its pairs are routed in (a, b) order.
    After a tick that has no such pair, one test over the rest of the block
    finds the next tick that has one, and its slices serve that tick, as
    ``carried`` cannot change in between. After a tick that handed off, the
    next tick is tested on its own.
    """
    n, k = len(carried), len(ends)
    i = start = 0
    while i < k and len(tree.depth) < n:  # once every vehicle carries, no contact can hand off
        end = ends[i]
        ta, tb = a[start:end], b[start:end]
        ca, cb = carried[ta], carried[tb]
        grow = ca != cb
        if not np.count_nonzero(grow):  # a quiet tick
            m = len(a) - end
            if not m:
                return None
            # one buffer of at least 1 KiB: numpy keeps freed arrays under 1 KiB for reuse,
            # by exact size, so tests of many sizes would pile up over a sweep
            test = np.empty(max(3 * m, 1024), dtype=bool)
            ca = np.take(carried, a[end:], out=test[:m], mode="clip")
            cb = np.take(carried, b[end:], out=test[m:2 * m], mode="clip")
            hits = np.not_equal(ca, cb, out=test[2 * m:3 * m])
            hit = int(hits.argmax())
            if not hits[hit]:
                return None
            i = bisect_right(ends, end + hit)  # the tick that holds the first hit
            s, e = ends[i - 1] - end, ends[i] - end
            start, end = ends[i - 1], ends[i]
            ta, tb, ca, cb, grow = a[start:end], b[start:end], ca[s:e], cb[s:e], hits[s:e]
        reach = carried.copy()  # a pair out of every carrier's component cannot hand off
        while np.count_nonzero(grow):
            reach[ta[grow]] = reach[tb[grow]] = True
            grow = reach[ta] != reach[tb]
        # nor can a pair whose ends both carried at tick start, as both still carry
        keep = reach[ta] > (ca & cb)
        x, y, now = xs[i], ys[i], float((first + i) * tick_seconds)  # now is the model's clock at the tick
        for p, q in zip(ta[keep].tolist(), tb[keep].tolist()):
            link = handle_encounter(tree, p, q, x, y, now)
            if link is not None:
                carried[link.to_id] = True
                if link.to_id == stop_at:
                    return i
        i, start = i + 1, end
    return None


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
    problems = run_problems(mobility_cfg, engine_cfg, incentive_cfg, packet_spec)
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

    end = float(min(engine_cfg.duration, packet_spec.deadline))  # never an int
    # whole ticks: a ratio within a few ulps of an integer (0.3 / 0.1 is 2.9999999999999996) is that integer
    ticks = end / mobility_cfg.tick_seconds
    last_tick = round(ticks) if abs(ticks - round(ticks)) <= 4 * math.ulp(ticks) else math.floor(ticks)
    stop_at = destination if settle_on_delivery else None
    carried = np.zeros(n, dtype=bool)
    carried[source] = True
    contact_events, ticks_run = 0, last_tick
    tick_seconds = mobility_cfg.tick_seconds
    neighbours = pair_list(n, engine_cfg.radio_range, mobility_cfg.speed_max * tick_seconds)
    for first, xs, ys, a, b, ends in contacts(model, neighbours, last_tick):
        i = _route_block(tree, carried, first, xs, ys, a, b, ends, tick_seconds, stop_at)
        if i is not None:  # the packet's life ended at the block's tick i; the fleet may have stepped past it
            contact_events, ticks_run = contact_events + ends[i], first + i
            break
        contact_events += len(a)
        if len(tree.depth) == n:  # a full tree routes no more: later blocks are only counted
            neighbours.ordered = False

    settle_time = min(tree.link_to[stop_at].timestamp, end) if stop_at in tree.link_to else end
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
        final_time=float(ticks_run * tick_seconds),  # the model's clock at that tick
        ticks_run=ticks_run,
        contact_events=contact_events,
    )
