import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from vanetsim import engine, kernels, routing
from vanetsim.engine import EngineConfig, PacketSpec, run
from vanetsim.incentives import IncentiveConfig
from vanetsim.kernels import contact_pairs
from vanetsim.metrics import build_summary, summary_to_json
from vanetsim.mobility import MobilityConfig, RandomWaypointModel
from vanetsim.model import ForwardingTree, Scheme, ValidationError, WeightSet, distance

MOB = MobilityConfig()  # 15 vehicles, 800 x 800
ENG = EngineConfig(radio_range=100.0, duration=300.0)
INC = IncentiveConfig()
PKT = PacketSpec(deadline=300.0)


def run_default(seed: int = 7, eng: EngineConfig = ENG, inc: IncentiveConfig = INC,
                pkt: PacketSpec = PKT, mob: MobilityConfig = MOB):
    return run(mob, eng, inc, pkt, seed)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"reward_budget": -1.0},
        {"deadline": 0.0},
        {"deadline": -5.0},
        {"interest_radius": 0.0},
        {"reward_budget": math.nan},
        {"deadline": math.nan},
        {"interest_radius": math.nan},
        {"reward_budget": math.inf},
        {"deadline": math.inf},
        {"interest_radius": math.inf},
    ],
)
def test_packet_spec_rejects_bad_limits(kwargs):
    with pytest.raises(ValidationError):
        PacketSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"radio_range": 0.0},
        {"duration": -1.0},
        {"duration": math.inf},
        {"hop_price": 0.0},
        {"radio_range": math.nan},
        {"duration": math.nan},
        {"hop_price": math.nan},
        {"radio_range": math.inf},
        {"hop_price": math.inf},
    ],
)
def test_engine_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        EngineConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_reproduces_everything(self):
        r1 = run_default(seed=11)
        r2 = run_default(seed=11)
        assert r1.source_id == r2.source_id
        assert r1.tree.links == r2.tree.links
        assert r1.report.shares == r2.report.shares
        assert r1.settle_time == r2.settle_time
        assert r1.contact_events == r2.contact_events
        assert r1.report.balances == r2.report.balances

    def test_different_seeds_differ(self):
        r1 = run_default(seed=1)
        r2 = run_default(seed=2)
        assert (
            r1.source_id != r2.source_id
            or r1.tree.links != r2.tree.links
            or r1.report.shares != r2.report.shares
        )


class TestSourceAndDestination:
    def test_explicit_source_is_used(self):
        eng = EngineConfig(radio_range=100.0, duration=50.0, source_id=4)
        result = run_default(eng=eng)
        assert result.source_id == 4
        assert result.tree.root == 4

    def test_source_out_of_range_rejected(self):
        eng = EngineConfig(radio_range=100.0, duration=50.0, source_id=15)
        with pytest.raises(ValidationError):
            run_default(eng=eng)

    def test_destination_must_differ_from_source(self):
        eng = EngineConfig(
            radio_range=100.0, duration=50.0, source_id=3, destination_id=3
        )
        with pytest.raises(ValidationError):
            run_default(eng=eng)

    def test_random_source_avoids_explicit_destination(self):
        for seed in range(20):
            eng = EngineConfig(radio_range=100.0, duration=10.0, destination_id=0)
            result = run_default(seed=seed, eng=eng)
            assert result.source_id != 0

    def test_no_destination_drawn_unless_needed(self):
        result = run_default()
        assert result.destination_id is None
        assert result.delivered is None


NEEDS_TWO = (
    "mobility.vehicle_count: a run with a destination (destination_id,"
    " settle_on_delivery or packet trade) needs at least 2 vehicles"
)


class TestEndpointProblems:
    @pytest.mark.parametrize(
        "vehicle_count, engine_kwargs, scheme, expected",
        [
            (3, {"source_id": 3}, Scheme.SECOND_PROPOSAL, "engine.source_id: must be in [0, 3)"),
            (3, {"destination_id": -1}, Scheme.SECOND_PROPOSAL,
             "engine.destination_id: must be in [0, 3)"),
            (3, {"source_id": 1, "destination_id": 1}, Scheme.SECOND_PROPOSAL,
             "engine.destination_id: must differ from source_id"),
            (1, {"destination_id": 0}, Scheme.SECOND_PROPOSAL, NEEDS_TWO),
            (1, {"settle_on_delivery": True}, Scheme.SECOND_PROPOSAL, NEEDS_TWO),
            (1, {}, Scheme.PACKET_TRADE, NEEDS_TWO),
        ],
    )
    def test_each_rule_is_reported_alone(self, vehicle_count, engine_kwargs, scheme, expected):
        eng = EngineConfig(duration=1.0, **engine_kwargs)
        assert engine.endpoint_problems(vehicle_count, eng, scheme) == [expected]

    @pytest.mark.parametrize(
        "vehicle_count, engine_kwargs, scheme",
        [
            (1, {}, Scheme.SECOND_PROPOSAL),
            (1, {"source_id": 0}, Scheme.PACKET_PURSE),
            (2, {"source_id": 0, "destination_id": 1}, Scheme.PACKET_TRADE),
        ],
    )
    def test_holdable_endpoints_have_no_problems(self, vehicle_count, engine_kwargs, scheme):
        eng = EngineConfig(duration=1.0, **engine_kwargs)
        assert engine.endpoint_problems(vehicle_count, eng, scheme) == []

    def test_run_raises_every_problem_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("run drew from the seed before checking its endpoints")

        monkeypatch.setattr(engine.np.random, "SeedSequence", no_draws)
        eng = EngineConfig(duration=1.0, source_id=5, destination_id=5)
        with pytest.raises(ValidationError) as exc:
            run_default(eng=eng, mob=MobilityConfig(vehicle_count=1))
        assert "engine.source_id: must be in [0, 1)" in str(exc.value)
        assert "engine.destination_id: must differ from source_id" in str(exc.value)


class TestSettlementTiming:
    def test_settles_at_deadline_when_run_is_longer(self):
        eng = EngineConfig(radio_range=100.0, duration=500.0)
        pkt = PacketSpec(deadline=120.0)
        result = run_default(eng=eng, pkt=pkt)
        assert result.settle_time == 120.0
        # the run ends with the packet's life, not at the configured duration
        assert result.final_time == 120.0
        assert result.ticks_run == 120

    def test_settles_at_end_when_run_is_shorter(self):
        eng = EngineConfig(radio_range=100.0, duration=60.0)
        pkt = PacketSpec(deadline=300.0)
        result = run_default(eng=eng, pkt=pkt)
        assert result.settle_time == pytest.approx(60.0)

    def test_no_forwarding_counted_after_deadline(self):
        eng = EngineConfig(radio_range=100.0, duration=500.0)
        pkt = PacketSpec(deadline=120.0)
        result = run_default(eng=eng, pkt=pkt)
        assert all(l.timestamp <= 120.0 for l in result.tree.links)
        # stored time is cut at the deadline too
        assert all(r.stored_time <= 120.0 for r in result.records)

    def test_fractional_tick_run_ends_on_the_exact_duration(self):
        mob = MobilityConfig(vehicle_count=5, tick_seconds=0.1)
        eng = EngineConfig(radio_range=100.0, duration=600.0)
        result = run_default(mob=mob, eng=eng, pkt=PacketSpec(deadline=600.0))
        assert result.ticks_run == 6000
        assert result.final_time == 600.0  # was 600.0000000000679 by summing ticks
        assert result.settle_time == 600.0
        assert all(l.timestamp == round(l.timestamp * 10) * 0.1 for l in result.tree.links)

    def test_zero_duration_settles_immediately(self):
        eng = EngineConfig(radio_range=100.0, duration=0.0)
        result = run_default(eng=eng)
        assert result.settle_time == 0.0
        assert result.ticks_run == 0

    def test_delivery_without_settle_on_delivery_runs_to_the_deadline(self):
        eng = EngineConfig(radio_range=100.0, duration=500.0, source_id=0, destination_id=5)
        result = run_default(seed=2, eng=eng)
        assert result.delivered is True
        reached = result.tree.link_to[5].timestamp
        assert 0.0 < reached < max(l.timestamp for l in result.tree.links)  # routing went on
        assert result.settle_time == PKT.deadline
        assert result.ticks_run == 300

    def test_destination_never_reached_is_not_delivered(self):
        eng = EngineConfig(radio_range=100.0, duration=300.0, source_id=0, destination_id=5)
        for seed in range(5):
            result = run_default(seed=seed, eng=eng, pkt=PacketSpec(deadline=30.0))
            assert result.delivered is False
            assert 5 not in result.tree.depth
            assert result.settle_time == 30.0

    def test_settle_on_delivery_freezes_at_first_delivery(self):
        eng = EngineConfig(
            radio_range=100.0, duration=300.0, settle_on_delivery=True, source_id=0
        )
        found = None
        for seed in range(30):
            result = run_default(seed=seed, eng=eng)
            if result.delivered:
                found = result
                break
        assert found is not None, "no delivery in 30 seeds"
        assert found.settle_time <= 300.0
        assert all(l.timestamp <= found.settle_time for l in found.tree.links)
        assert found.destination_id in found.tree.depth


@pytest.mark.parametrize(
    "inc,pkt",
    [
        (INC, PKT),
        (INC, PacketSpec(deadline=120.0)),  # routing stops long before the run ends
        (IncentiveConfig(scheme=Scheme.PACKET_TRADE), PKT),  # routing stops at delivery
    ],
    ids=["deadline_at_end", "deadline_mid_run", "trade"],
)
def test_vehicles_hold_end_of_run_state(inc, pkt):
    seed = 7
    result = run_default(seed=seed, inc=inc, pkt=pkt)
    # the run ends at the tick it settles on: the deadline's or the delivery's
    assert result.final_time == result.settle_time
    assert result.ticks_run == round(result.settle_time / MOB.tick_seconds)
    balances = result.report.balances
    assert math.fsum(balances.values()) == pytest.approx(0.0, abs=1e-9)
    assert any(balance != 0.0 for balance in balances.values())


@pytest.mark.parametrize(
    "eng,inc,pkt,steps,settle",
    [
        (EngineConfig(duration=500.0), INC, PacketSpec(deadline=120.0), 120, 120.0),
        (EngineConfig(duration=500.0), INC, PacketSpec(deadline=150.5), 150, 150.5),
        (EngineConfig(duration=600.0), IncentiveConfig(scheme=Scheme.PACKET_TRADE), PKT, None, None),
        (EngineConfig(duration=60.0), INC, PKT, 60, 60.0),
        (EngineConfig(duration=10.6), INC, PKT, 10, 10.6),
        (EngineConfig(duration=10.4), INC, PKT, 10, 10.4),
        (EngineConfig(duration=0.0), INC, PKT, 0, 0.0),
    ],
    ids=["deadline_mid_run", "deadline_between_ticks", "delivery", "duration_first",
         "duration_between_ticks_up", "duration_between_ticks_down", "zero"],
)
def test_mobility_steps_stop_with_the_packets_life(monkeypatch, eng, inc, pkt, steps, settle):
    calls = []
    step = RandomWaypointModel.step

    def counting_step(model):
        calls.append(model.tick + 1)
        step(model)

    monkeypatch.setattr(RandomWaypointModel, "step", counting_step)
    result = run_default(seed=7, eng=eng, inc=inc, pkt=pkt)
    if steps is None:  # settled on delivery: the last step is the delivery tick's
        assert result.delivered
        settle = result.tree.link_to[result.destination_id].timestamp
        steps = round(settle / MOB.tick_seconds)
        assert steps < round(pkt.deadline / MOB.tick_seconds)
    assert calls == list(range(1, steps + 1))
    assert result.ticks_run == steps
    assert result.final_time == steps * MOB.tick_seconds
    assert result.settle_time == settle


def test_small_fleet_builds_its_pair_list_once(monkeypatch):
    builds, calls = [], []
    init, pairs = kernels.AllPairs.__init__, kernels.AllPairs.pairs

    def counting_init(self, n):
        builds.append(n)
        init(self, n)

    def counting_pairs(self, x, y, radio_range):
        calls.append(radio_range)
        return pairs(self, x, y, radio_range)

    def no_search(*args):
        raise AssertionError("a run with an all-pairs list never searches the cell grid")

    monkeypatch.setattr(kernels.AllPairs, "__init__", counting_init)
    monkeypatch.setattr(kernels.AllPairs, "pairs", counting_pairs)
    monkeypatch.setattr(kernels.NeighbourList, "_build", no_search)
    result = run_default(seed=7)
    assert MOB.vehicle_count == 15 and result.ticks_run == 300
    assert builds == [15]
    assert len(calls) == 301  # ticks 0..300


def test_run_past_the_deadline_exports_the_same_summary():
    def summary(duration):
        result = run_default(seed=3, eng=EngineConfig(duration=duration), pkt=PKT)
        return summary_to_json(build_summary(result, "scenario-hash"))

    assert summary(600.0) == summary(300.0)


def _joined_to(carriers, pairs):
    """Every vehicle joined to a carrier by a chain of the given pairs."""
    adjacent = defaultdict(list)
    for i, j in pairs:
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen, todo = set(carriers), list(carriers)
    while todo:
        for k in adjacent[todo.pop()]:
            if k not in seen:
                seen.add(k)
                todo.append(k)
    return seen


def _route_every_pair(result, mob, eng, settle_on_delivery):
    """Replay a run's routing with no pair filter: every contact pair is offered.

    Returns the tree, the contact count, the handoff calls the filtered
    engine must make per tick time (pairs not both carried at tick start
    whose component in the tick's contact graph holds a carrier at tick
    start, on ticks that start with some vehicle still uncarried) and the
    first tick time that started with every vehicle carrying.
    """
    mob_seq, _ = np.random.SeedSequence(result.seed).spawn(2)
    model = RandomWaypointModel(mob, np.random.default_rng(mob_seq))
    tree = ForwardingTree(root=result.source_id, origin=result.tree.origin)
    contact_events = 0
    expected_calls = Counter()
    full_from = None
    for tick in range(result.ticks_run + 1):
        if tick:
            model.step()
        now = model.now
        a, b = contact_pairs(model.x, model.y, eng.radio_range)
        contact_events += len(a)
        pairs = list(zip(a.tolist(), b.tolist()))
        carried_at_start = set(tree.depth)
        reached = _joined_to(carried_at_start, pairs)
        if len(carried_at_start) == mob.vehicle_count and full_from is None:
            full_from = now
        delivered = False
        for i, j in pairs:
            if full_from is None and not (i in carried_at_start and j in carried_at_start) and i in reached:
                expected_calls[now] += 1
            link = routing.handle_encounter(tree, i, j, model.x, model.y, now)
            if settle_on_delivery and link is not None and link.to_id == result.destination_id:
                delivered = True
                break
        if delivered:
            break
    return tree, contact_events, expected_calls, full_from


def _stand_fleet(monkeypatch, xs, ys):
    """A fleet at speed 0 that stands on the given positions for the whole run."""
    init = RandomWaypointModel.__post_init__

    def placed(model):
        init(model)
        model.x, model.y = np.array(xs, dtype=float), np.array(ys, dtype=float)

    monkeypatch.setattr(RandomWaypointModel, "__post_init__", placed)
    return MobilityConfig(vehicle_count=len(xs), speed_min=0.0, speed_max=0.0)


def _logged_encounters(monkeypatch):
    """Every (now, a, b) the engine offers to ``handle_encounter``, in order."""
    offered = []

    def logging_handle_encounter(tree, a_id, b_id, x, y, now):
        offered.append((now, a_id, b_id))
        return routing.handle_encounter(tree, a_id, b_id, x, y, now)

    monkeypatch.setattr(engine, "handle_encounter", logging_handle_encounter)
    return offered


DENSE = MobilityConfig(vehicle_count=150, arena_width=400.0, arena_height=400.0)


@pytest.mark.parametrize(
    "mob,eng,inc,seed,settle_on_delivery",
    [
        *[
            (DENSE, EngineConfig(radio_range=30.0, duration=100.0), INC, seed, False)
            for seed in range(3)
        ],
        (MOB, EngineConfig(radio_range=100.0, duration=300.0, settle_on_delivery=True), INC, 0, True),
        (MOB, ENG, IncentiveConfig(scheme=Scheme.PACKET_TRADE), 3, True),
    ],
    ids=["dense0", "dense1", "dense2", "settle_on_delivery", "trade"],
)
def test_pair_filter_matches_routing_every_pair(monkeypatch, mob, eng, inc, seed, settle_on_delivery):
    offered = _logged_encounters(monkeypatch)
    result = run(mob, eng, inc, PacketSpec(deadline=eng.duration), seed)
    calls = Counter(now for now, _, _ in offered)
    tree, contact_events, expected_calls, full_from = _route_every_pair(
        result, mob, eng, settle_on_delivery
    )
    assert result.tree.links == tree.links
    assert result.contact_events == contact_events
    assert calls == expected_calls
    assert sum(calls.values()) < contact_events  # the filter dropped pairs
    if settle_on_delivery:
        assert result.delivered
    else:  # the tree fills mid-run; no call is made from the next tick on
        assert full_from is not None
        assert all(now < full_from for now in calls)


def test_component_without_a_carrier_is_never_routed(monkeypatch):
    # source 0 and vehicle 3 meet; 1-2-4 is a chain of contacts far away,
    # its pairs interleaved with the carrier's in (a, b) order; 5 is alone
    mob = _stand_fleet(monkeypatch, [0, 500, 550, 50, 600, 900], [0, 500, 500, 0, 500, 900])
    offered = _logged_encounters(monkeypatch)
    eng = EngineConfig(radio_range=60.0, duration=5.0, source_id=0)
    result = run(mob, eng, INC, PacketSpec(deadline=5.0), 0)
    assert result.contact_events == 3 * 6  # (0, 3), (1, 2) and (2, 4) on ticks 0..5
    assert offered == [(0.0, 0, 3)]  # later ticks hold no uncarried vehicle it can reach
    assert [(l.from_id, l.to_id, l.timestamp) for l in result.tree.links] == [(0, 3, 0.0)]
    tree, contact_events, _, _ = _route_every_pair(result, mob, eng, False)
    assert result.tree.links == tree.links
    assert result.contact_events == contact_events


@pytest.mark.parametrize(
    "source,hops",
    [
        (0, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0)]),  # pairs in (a, b) order relay it at once
        (3, [(3, 2, 0.0), (2, 1, 1.0), (1, 0, 2.0)]),  # against the order: a hop a tick
    ],
    ids=["with_pair_order", "against_pair_order"],
)
def test_chain_is_routed_like_every_pair(monkeypatch, source, hops):
    # source-A-B-C 90 m apart with a 100 m range: each vehicle meets only its neighbours
    mob = _stand_fleet(monkeypatch, [0, 90, 180, 270], [0, 0, 0, 0])
    offered = _logged_encounters(monkeypatch)
    eng = EngineConfig(radio_range=100.0, duration=4.0, source_id=source)
    result = run(mob, eng, INC, PacketSpec(deadline=4.0), 0)
    assert [(l.from_id, l.to_id, l.timestamp) for l in result.tree.links] == hops
    tree, contact_events, expected_calls, _ = _route_every_pair(result, mob, eng, False)
    assert result.tree.links == tree.links
    assert result.contact_events == contact_events
    assert Counter(now for now, _, _ in offered) == expected_calls


class TestAccounting:
    def test_proportional_budget_conservation(self):
        for seed in range(10):
            result = run_default(seed=seed)
            paid = result.report.total_paid
            assert paid <= PKT.reward_budget + 1e-12
            if result.records and math.fsum(r.contribution for r in result.records) > 0:
                assert paid == pytest.approx(PKT.reward_budget, rel=1e-9)

    def test_credit_is_conserved_across_the_fleet(self):
        for scheme in (Scheme.SECOND_PROPOSAL, Scheme.PACKET_PURSE, Scheme.PACKET_TRADE):
            if scheme is Scheme.SECOND_PROPOSAL:
                inc = IncentiveConfig(scheme=scheme)
            else:
                inc = IncentiveConfig(scheme=scheme, weights=WeightSet(0.25, 0.5, 0.25))
            result = run_default(seed=3, inc=inc)
            net = math.fsum(result.report.balances.values())
            assert net == pytest.approx(0.0, abs=1e-9)

    def test_source_has_no_share_in_proportional_runs(self):
        result = run_default(seed=5)
        assert result.source_id not in result.report.shares
        assert result.source_id not in [r.vehicle_id for r in result.records]

    def test_purse_run_reports_prefix_payment(self):
        inc = IncentiveConfig(scheme=Scheme.PACKET_PURSE)
        pkt = PacketSpec(reward_budget=3.0, deadline=300.0)
        eng = EngineConfig(radio_range=100.0, duration=300.0, hop_price=1.0)
        result = run_default(seed=7, inc=inc, pkt=pkt, eng=eng)
        links = len(result.tree.links)
        assert result.report.paid_link_count == min(links, 3)
        if links > 3:
            assert result.report.shortfall == pytest.approx(float(links - 3))

    def test_trade_run_settles_on_delivery(self):
        inc = IncentiveConfig(scheme=Scheme.PACKET_TRADE)
        result = run_default(seed=9, inc=inc)
        assert result.destination_id is not None
        assert result.report.payer_id == result.destination_id
        if result.delivered:
            # payer covers exactly its path, one hop price per link
            depth = len(
                [l for l in _path(result.tree, result.destination_id)]
            )
            assert result.report.total_paid == pytest.approx(depth * 1.0)
        else:
            assert result.report.total_paid == 0.0


def _path(tree, node):
    from vanetsim.routing import path_from_root

    return path_from_root(tree, node)


class TestTreeShape:
    def test_links_grow_the_tree_strictly(self):
        result = run_default(seed=13)
        seen = {result.tree.root}
        for link in result.tree.links:
            assert link.from_id in seen
            assert link.to_id not in seen
            seen.add(link.to_id)

    def test_link_distance_matches_giver_position(self):
        result = run_default(seed=13)
        origin = result.tree.origin
        for link in result.tree.links:
            expect = distance(link.from_position, origin)
            assert link.distance_from_origin == expect
