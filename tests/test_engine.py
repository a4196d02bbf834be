import math
import sys
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_engine import reference_run
from test_acceptance import contact_blocks, contact_ticks, fresh_list_pairs
from vanetsim import engine, kernels, routing
from vanetsim.engine import EngineConfig, PacketSpec, run
from vanetsim.incentives import IncentiveConfig
from vanetsim.metrics import build_summary, summary_to_json
from vanetsim.mobility import MobilityConfig, RandomWaypointModel
from vanetsim.model import ForwardingTree, Scheme, ValidationError, WeightSet
from vanetsim.scenario import load_scenario, with_updates

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
        {"payload_class": "safety"},
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
            (3, {"source_id": 3}, Scheme.SECOND_PROPOSAL, "engine.source_id: must be an integer in [0, 3)"),
            (3, {"destination_id": -1}, Scheme.SECOND_PROPOSAL,
             "engine.destination_id: must be an integer in [0, 3)"),
            (3, {"source_id": 1.5}, Scheme.SECOND_PROPOSAL,
             "engine.source_id: must be an integer in [0, 3)"),
            (3, {"destination_id": 2.0}, Scheme.SECOND_PROPOSAL,
             "engine.destination_id: must be an integer in [0, 3)"),
            (3, {"source_id": True}, Scheme.SECOND_PROPOSAL,
             "engine.source_id: must be an integer in [0, 3)"),
            (3, {"destination_id": True}, Scheme.SECOND_PROPOSAL,
             "engine.destination_id: must be an integer in [0, 3)"),
            (3, {"source_id": 1, "destination_id": 1}, Scheme.SECOND_PROPOSAL,
             "engine.destination_id: must differ from source_id"),
            (1, {"destination_id": 0}, Scheme.SECOND_PROPOSAL, NEEDS_TWO),
            (1, {"settle_on_delivery": True}, Scheme.SECOND_PROPOSAL, NEEDS_TWO),
            (1, {}, Scheme.PACKET_TRADE, NEEDS_TWO),
        ],
    )
    def test_each_rule_is_reported_alone(self, vehicle_count, engine_kwargs, scheme, expected):
        eng = EngineConfig(duration=1.0, **engine_kwargs)
        mob, inc = MobilityConfig(vehicle_count=vehicle_count), IncentiveConfig(scheme=scheme)
        assert engine.run_problems(mob, eng, inc, PKT) == [expected]

    @pytest.mark.parametrize(
        "vehicle_count, engine_kwargs, scheme",
        [
            (1, {}, Scheme.SECOND_PROPOSAL),
            (1, {"source_id": 0}, Scheme.PACKET_PURSE),
            (2, {"source_id": 0, "destination_id": 1}, Scheme.PACKET_TRADE),
            (2, {"source_id": np.int64(1), "destination_id": np.int32(0)}, Scheme.PACKET_TRADE),
        ],
    )
    def test_holdable_endpoints_have_no_problems(self, vehicle_count, engine_kwargs, scheme):
        eng = EngineConfig(duration=1.0, **engine_kwargs)
        mob, inc = MobilityConfig(vehicle_count=vehicle_count), IncentiveConfig(scheme=scheme)
        assert engine.run_problems(mob, eng, inc, PKT) == []

    def test_run_raises_every_problem_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("run drew from the seed before checking its endpoints")

        monkeypatch.setattr(engine.np.random, "SeedSequence", no_draws)
        eng = EngineConfig(duration=1.0, source_id=5, destination_id=5)
        with pytest.raises(ValidationError) as exc:
            run_default(eng=eng, mob=MobilityConfig(vehicle_count=1))
        assert "engine.source_id: must be an integer in [0, 1)" in str(exc.value)
        assert "engine.destination_id: must differ from source_id" in str(exc.value)


# the first-proposal product mode reads a time credit as t * T, up to T * T for T = deadline / time_scale
PRODUCT = IncentiveConfig(scheme=Scheme.FIRST_PROPOSAL, weights=WeightSet(0.5, 0.5, 0.0),
                          first_proposal_mode="product")
# the largest T whose T * T, summed over the baseline's 14 carriers, stays finite
PRODUCT_LIMIT = math.sqrt(sys.float_info.max / 14)


class TestScaledDeadline:
    """The deadline in time_scale units must keep every score finite, checked before the first draw."""

    @pytest.mark.parametrize(
        "inc, pkt",
        [
            (IncentiveConfig(time_scale=1e-320), PKT),  # overflows to inf: NaN shares
            (IncentiveConfig(scheme=Scheme.FIRST_PROPOSAL, weights=WeightSet(0.5, 0.5, 0.0), time_scale=1e300),
             PacketSpec(deadline=1e-300)),  # underflows to 0: a ratio run divides by zero
        ],
        ids=["overflow", "underflow"],
    )
    def test_run_rejects_it_before_drawing(self, monkeypatch, inc, pkt):
        # without a finite T there is no carriers' bound to check, so this is the only problem
        assert engine.run_problems(MOB, ENG, inc, pkt) == [
            "incentives.time_scale: packet.deadline / time_scale must be positive and finite"
        ]

        def no_draws(*args, **kwargs):
            raise AssertionError("run drew from the seed before checking the scaled deadline")

        monkeypatch.setattr(engine.np.random, "SeedSequence", no_draws)
        with pytest.raises(ValidationError, match="packet.deadline / time_scale must be positive and finite"):
            run_default(inc=inc, pkt=pkt)

    @pytest.mark.parametrize(
        "inc, pkt",
        [
            (replace(PRODUCT, time_scale=3e-198), PKT),  # T * T overflows: NaN shares
            (replace(PRODUCT, time_scale=300.0 / 1e154), PKT),  # T * T = 1e308, but 14 of them overflow
            (IncentiveConfig(scheme=Scheme.BASIC_LINEAR, weights=WeightSet(0.5, 0.5, 0.0), time_scale=3e-306), PKT),
            (IncentiveConfig(time_scale=3e-306), PKT),  # T = 1e308 in the second proposal's time credit
            (IncentiveConfig(distance_scale=1e308), PacketSpec(deadline=300.0, interest_radius=1e308)),
        ],
        ids=["product", "product_summed", "basic_linear", "second_time", "second_distance"],
    )
    def test_run_rejects_scores_that_sum_past_the_float_range(self, monkeypatch, inc, pkt):
        # each of these wrote NaN shares or ended in OverflowError after every tick was simulated
        def no_draws(*args, **kwargs):
            raise AssertionError("run drew from the seed before checking the scores' bound")

        monkeypatch.setattr(engine.np.random, "SeedSequence", no_draws)
        with pytest.raises(ValidationError, match="carriers' scores, each up to .* must sum to a finite total"):
            run_default(inc=inc, pkt=pkt)

    @pytest.mark.parametrize(
        "inc",
        [
            IncentiveConfig(time_scale=1e-300),  # 300 s is 3e302 units: finite, and 14 of them too
            replace(PRODUCT, time_scale=300.0 / (PRODUCT_LIMIT / 1.001)),  # just inside the product bound
        ],
        ids=["second", "product"],
    )
    def test_extreme_but_representable_scales_still_run(self, inc):
        assert engine.run_problems(MOB, ENG, inc, PKT) == []
        summary = summary_to_json(build_summary(run_default(seed=7, inc=inc), "h"))
        assert "NaN" not in summary and "Infinity" not in summary

    def test_the_product_bound_counts_the_carriers(self):
        inc = replace(PRODUCT, time_scale=300.0 / (PRODUCT_LIMIT * 1.001))  # just outside for 15 vehicles
        assert engine.run_problems(MobilityConfig(vehicle_count=15), ENG, inc, PKT) == [
            "incentives: 14 carriers' scores, each up to 1.28664e+307 with"
            " deadline / time_scale = 3.58697e+153, must sum to a finite total"
        ]
        # one carrier's score is still finite
        assert engine.run_problems(MobilityConfig(vehicle_count=2), ENG, inc, PKT) == []


class TestTickRule:
    """min(duration, deadline) / tick_seconds, the run's tick count, must be finite, checked before the first draw."""

    @pytest.mark.parametrize(
        "dt, eng, pkt",
        [
            (5e-324, ENG, PKT),  # a subnormal tick: 300 s / 5e-324 s overflows
            (1e-309, EngineConfig(duration=0.5), PKT),  # the duration comes first: 0.5 / 1e-309 overflows
            (1e-309, ENG, PacketSpec(deadline=0.5)),  # the deadline comes first
        ],
        ids=["subnormal", "duration_first", "deadline_first"],
    )
    def test_run_rejects_it_before_drawing(self, monkeypatch, dt, eng, pkt):
        mob = MobilityConfig(tick_seconds=dt)
        assert engine.run_problems(mob, eng, INC, pkt) == [
            "mobility.tick_seconds: min(engine.duration, packet.deadline) / tick_seconds must be finite"
        ]

        def no_draws(*args, **kwargs):
            raise AssertionError("run drew from the seed before checking the tick count")

        monkeypatch.setattr(engine.np.random, "SeedSequence", no_draws)
        with pytest.raises(ValidationError, match=r"packet.deadline\) / tick_seconds must be finite"):
            run_default(eng=eng, pkt=pkt, mob=mob)

    def test_a_finite_count_passes(self):
        # checked, never run: 2**-53 s ticks make 2**53 of them in 1 s, the most a run may have
        mob = MobilityConfig(tick_seconds=2.0**-53)
        assert engine.run_problems(mob, EngineConfig(duration=1.0), INC, PKT) == []
        # a zero-length run has tick 0 only, however short its ticks
        mob = MobilityConfig(tick_seconds=5e-324)
        assert engine.run_problems(mob, EngineConfig(duration=0.0), INC, PKT) == []
        assert run_default(eng=EngineConfig(duration=0.0), mob=mob).ticks_run == 0

    @pytest.mark.parametrize(
        "dt, eng",
        [
            (1e-300, ENG),  # ~3e302 ticks in 300 s
            (2.0**-53, EngineConfig(duration=math.nextafter(1.0, 2.0))),  # an ulp past 1 s: tick 2**53 + 2
        ],
        ids=["tiny_tick", "an_ulp_past_the_bound"],
    )
    def test_a_count_past_2_53_is_refused(self, dt, eng):
        # checked, never run: past 2**53, float(k) * tick_seconds no longer tells every tick k apart
        assert engine.run_problems(MobilityConfig(tick_seconds=dt), eng, INC, PKT) == [
            "mobility.tick_seconds: min(engine.duration, packet.deadline) / tick_seconds must be at most 2**53"
        ]


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
    "dt,eng,inc,pkt,steps,settle",
    [
        (1.0, EngineConfig(duration=500.0), INC, PacketSpec(deadline=120.0), 120, 120.0),
        (1.0, EngineConfig(duration=500.0), INC, PacketSpec(deadline=150.5), 150, 150.5),
        (1.0, EngineConfig(duration=600.0), IncentiveConfig(scheme=Scheme.PACKET_TRADE), PKT, None, None),
        (1.0, EngineConfig(duration=60.0), INC, PKT, 60, 60.0),
        (1.0, EngineConfig(duration=10.6), INC, PKT, 10, 10.6),
        (1.0, EngineConfig(duration=10.4), INC, PKT, 10, 10.4),
        (1.0, EngineConfig(duration=0.0), INC, PKT, 0, 0.0),
        # whole ticks: 0.3 / 0.1 is 2.9999999999999996, 0.7 / 0.1 is 6.999999999999999
        (0.1, EngineConfig(duration=0.3), INC, PKT, 3, 0.3),
        (0.1, EngineConfig(duration=600.0), INC, PacketSpec(deadline=0.7), 7, 0.7),
        (0.1, EngineConfig(duration=600.0), INC, PacketSpec(deadline=150.7), 1507, 150.7),
    ],
    ids=["deadline_mid_run", "deadline_between_ticks", "delivery", "duration_first",
         "duration_between_ticks_up", "duration_between_ticks_down", "zero",
         "tenth_ticks_duration_0.3", "tenth_ticks_deadline_0.7", "tenth_ticks_deadline_150.7"],
)
def test_mobility_steps_stop_with_the_packets_life(monkeypatch, dt, eng, inc, pkt, steps, settle):
    calls = []
    step = RandomWaypointModel.step

    def counting_step(model, out=None):
        calls.append(model.tick + 1)
        step(model, out)

    monkeypatch.setattr(RandomWaypointModel, "step", counting_step)
    mob = MobilityConfig(tick_seconds=dt)
    result = run_default(seed=7, eng=eng, inc=inc, pkt=pkt, mob=mob)
    stepped = steps
    if steps is None:  # settled on delivery: the run ends at the delivery tick, its steps at that block's end
        assert result.delivered
        settle = result.tree.link_to[result.destination_id].timestamp
        steps = round(settle / dt)
        assert steps < round(pkt.deadline / dt)
        block = kernels.pair_list(mob.vehicle_count, eng.radio_range, mob.speed_max * dt).block
        stepped = min((steps // block + 1) * block - 1, round(min(eng.duration, pkt.deadline) / dt))
        assert stepped > steps  # 98 and 155 at seed 7: the fleet stepped past delivery
    assert calls == list(range(1, stepped + 1))
    assert result.ticks_run == steps
    assert result.final_time == steps * dt
    assert result.settle_time == settle


@pytest.mark.parametrize("settle_on_delivery", [False, True])
def test_handoff_on_a_clock_an_ulp_past_the_end_is_held_for_no_time(monkeypatch, settle_on_delivery):
    # vehicle 1 drives 10 m a tick toward vehicle 0 and comes into range on
    # tick 3, whose clock, 3 * 0.1, reads an ulp past the run's 0.3 s end:
    # the run still settles at its end, so the handoff is held for 0 s
    def drive(model, out=None):
        if out is not None:  # the step's contract: the new positions go into out, which becomes pos
            out[...] = model.pos
            model.pos = out
        model.pos[0, 1] -= 10.0
        model.tick += 1

    mob = _stand_fleet(monkeypatch, [0.0, 130.0], [0.0, 0.0])
    monkeypatch.setattr(RandomWaypointModel, "step", drive)
    eng = EngineConfig(radio_range=100.0, duration=0.3, source_id=0, destination_id=1,
                       settle_on_delivery=settle_on_delivery)
    result = run(replace(mob, tick_seconds=0.1), eng, INC, PKT, 0)
    assert result.ticks_run == 3
    assert result.final_time == 3 * 0.1 > 0.3
    assert [(l.from_id, l.to_id, l.timestamp) for l in result.tree.links] == [(0, 1, 3 * 0.1)]
    assert result.delivered
    assert result.settle_time == 0.3
    assert [(r.vehicle_id, r.stored_time) for r in result.records] == [(1, 0.0)]


def test_small_fleet_builds_its_pair_list_once(monkeypatch):
    builds, rows = [], []
    init, pairs = kernels.AllPairs.__init__, kernels.AllPairs.pairs

    def counting_init(self, n, radio_range):
        builds.append(n)
        init(self, n, radio_range)

    def counting_pairs(self, x, y):
        rows.append(len(x))
        return pairs(self, x, y)

    def no_search(*args):
        raise AssertionError("a run with an all-pairs list never searches the cell grid")

    monkeypatch.setattr(kernels.AllPairs, "__init__", counting_init)
    monkeypatch.setattr(kernels.AllPairs, "pairs", counting_pairs)
    monkeypatch.setattr(kernels.NeighbourList, "_build", no_search)
    result = run_default(seed=7)
    assert MOB.vehicle_count == 15 and result.ticks_run == 300
    assert builds == [15]
    assert sum(rows) == 301  # ticks 0..300, a block of them per call


def one_tick_blocks(monkeypatch):
    """Make every pair list made through ``engine.pair_list`` filter one tick a block: the tick-by-tick stream."""
    make = engine.pair_list

    def one_tick(*args):
        neighbours = make(*args)
        neighbours.block = 1
        return neighbours

    monkeypatch.setattr(engine, "pair_list", one_tick)


@pytest.mark.parametrize("n", [15, 40, 64, kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1, 120, 150])
def test_looking_ahead_yields_what_stepping_tick_by_tick_yields(monkeypatch, n):
    # 0.1 s ticks, 250 of them: the all-pairs blocks of 78, 10, 4 and 1
    # ticks and the Verlet blocks of 5 end inside the run, so the stream
    # crosses block edges
    cfg = MobilityConfig(vehicle_count=n, tick_seconds=0.1)
    last_tick = 250
    block = kernels.pair_list(n, 100.0, 1.5).block
    assert block < last_tick
    models = [RandomWaypointModel(cfg, np.random.default_rng(n)) for _ in range(3)]
    firsts = [first for first, *_ in contact_blocks(models[2], 100.0, last_tick)]
    assert firsts == list(range(0, last_tick + 1, block))

    def stream(model):  # a block's positions are overwritten by the next block's, so keep copies
        blocks = contact_blocks(model, 100.0, last_tick)
        return [(t, x.copy(), y.copy(), a, b) for t, x, y, a, b in contact_ticks(blocks)]

    ahead = stream(models[0])
    one_tick_blocks(monkeypatch)
    tick_by_tick = stream(models[1])
    ticks = 0
    for got, want in zip(ahead, tick_by_tick, strict=True):
        assert got[0] == want[0] == ticks
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        ticks += 1
    assert ticks == last_tick + 1
    assert models[0].tick == models[1].tick == last_tick


@pytest.mark.parametrize("pause", [0.0, 2.5])
@pytest.mark.parametrize("n", [15, 120], ids=["all_pairs", "verlet"])
def test_contacts_yields_the_positions_a_separately_stepped_model_reaches(monkeypatch, n, pause):
    # the stream steps the fleet into its block's slots; a twin model steps in place, once a tick.
    # 200 ticks cross the all-pairs blocks' 78-tick edges and many Verlet 5-tick ones
    cfg = MobilityConfig(vehicle_count=n, pause_time=pause)
    last_tick = 200
    step = RandomWaypointModel.step
    calls = []

    def counting_step(model, out=None):
        calls.append(model.tick)
        step(model, out)

    monkeypatch.setattr(RandomWaypointModel, "step", counting_step)
    streamed = RandomWaypointModel(cfg, np.random.default_rng(n))
    twin = RandomWaypointModel(cfg, np.random.default_rng(n))
    width = kernels.pair_list(n, 100.0, cfg.speed_max).block
    tick = 0
    for first, xs, ys, *_ in contact_blocks(streamed, 100.0, last_tick):
        assert first == tick and len(xs) == len(ys) == min(width, last_tick + 1 - first)
        for x, y in zip(xs, ys):
            if tick:
                step(twin)
            assert np.array_equal(x.view(np.uint64), twin.pos[0].view(np.uint64))
            assert np.array_equal(y.view(np.uint64), twin.pos[1].view(np.uint64))
            tick += 1
    assert tick == last_tick + 1
    assert calls == list(range(last_tick))  # one step a tick, from each tick's clock
    assert streamed.tick == twin.tick == last_tick


def test_looking_ahead_builds_the_verlet_list_mid_block(monkeypatch):
    # a dense fleet, 300 vehicles in 800 m: a build at a 5-tick block's
    # middle tick serves the whole block
    builds = []
    build = kernels.NeighbourList._build
    monkeypatch.setattr(kernels.NeighbourList, "_build",
                        lambda self, z, cutoff: builds.append(cutoff) or build(self, z, cutoff))
    cfg = MobilityConfig(vehicle_count=300, arena_width=800.0, arena_height=800.0)
    for _ in contact_blocks(RandomWaypointModel(cfg, np.random.default_rng(0)), 100.0, 300):
        pass
    assert len(builds) == 61  # a build per 5-tick block


@pytest.fixture
def build_flags(monkeypatch):
    """Each NeighbourList build's ``ordered`` flag, in call order."""
    flags = []
    build = kernels.NeighbourList._build
    monkeypatch.setattr(kernels.NeighbourList, "_build",
                        lambda self, z, cutoff: flags.append(self.ordered) or build(self, z, cutoff))
    return flags


def test_verlet_builds_stop_sorting_after_the_block_that_fills_the_tree(build_flags):
    # 300 vehicles in 800 m: every vehicle carries within a few ticks, and from
    # the next 5-tick block on the run only counts contacts
    result = run_default(seed=0, mob=MobilityConfig(vehicle_count=300))
    assert len(result.tree.depth) == 300 and result.ticks_run == 300
    filled = round(max(link.timestamp for link in result.tree.link_to.values()) / MOB.tick_seconds)
    sorted_blocks = filled // 5 + 1  # the blocks through the one whose tick fills the tree
    assert build_flags == [True] * sorted_blocks + [False] * (61 - sorted_blocks)


def test_verlet_builds_keep_sorting_while_the_tree_grows(build_flags):
    # 1 000 vehicles at the baseline density: the tree never holds the whole fleet
    result = run_default(seed=0, mob=MobilityConfig(vehicle_count=1000, arena_width=6532.0, arena_height=6532.0))
    assert len(result.tree.depth) < 1000 and result.ticks_run == 300
    assert build_flags == [True] * 61


@pytest.mark.parametrize("n, settle_on_delivery", [(15, False), (15, True), (120, False), (120, True)])
def test_every_contact_comes_through_engine_contact_pairs(monkeypatch, n, settle_on_delivery):
    # traced benchmarks count a run's contacts as the pairs engine.contact_pairs returns
    returned, rows, ends = [], [], []

    def counting(x, y, neighbours):
        found = kernels.contact_pairs(x, y, neighbours)
        returned.append(len(found[0]))
        rows.append(len(x))
        ends.append(found[2])
        return found

    monkeypatch.setattr(engine, "contact_pairs", counting)
    eng = EngineConfig(settle_on_delivery=settle_on_delivery)
    result = run_default(seed=3, eng=eng, mob=MobilityConfig(vehicle_count=n))
    if settle_on_delivery:  # the delivery tick's block can run past it: its contacts end at that tick's row end
        assert result.delivered
        i = result.ticks_run - sum(rows[:-1])  # the delivery tick's row in the last block
        assert 0 <= i < rows[-1] and rows[-1] > 1
        assert sum(returned[:-1]) + ends[-1][i] == result.contact_events > 0
    else:
        assert sum(returned) == result.contact_events > 0
        assert sum(rows) == result.ticks_run + 1


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
        a, b = fresh_list_pairs(model.pos[0], model.pos[1], eng.radio_range)
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
            link = routing.handle_encounter(tree, i, j, model.pos[0], model.pos[1], now)
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
        model.pos[:] = xs, ys

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


# every scheme, with weights it accepts; first proposal in both modes
REFERENCE_SCHEMES = [
    IncentiveConfig(scheme=Scheme.BASIC_LINEAR, weights=WeightSet(0.5, 0.5, 0.0)),
    IncentiveConfig(scheme=Scheme.FIRST_PROPOSAL, weights=WeightSet(0.4, 0.6, 0.0)),
    IncentiveConfig(scheme=Scheme.FIRST_PROPOSAL, weights=WeightSet(0.4, 0.6, 0.0), first_proposal_mode="product"),
    IncentiveConfig(scheme=Scheme.SECOND_PROPOSAL, distance_aggregate="min"),
    IncentiveConfig(scheme=Scheme.PACKET_PURSE),
    IncentiveConfig(scheme=Scheme.PACKET_TRADE),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, kernels.NEIGHBOUR_LIST_MIN_VEHICLES - 1) | st.integers(kernels.NEIGHBOUR_LIST_MIN_VEHICLES, 130),
    packing=st.sampled_from([0.6, 1.0]),
    speeds=st.sampled_from([(5.0, 15.0), (0.0, 40.0), (0.0, 0.0)]),
    pause_time=st.sampled_from([0.0, 2.5]),
    dt=st.sampled_from([0.25, 0.7, 1.0, 2.5]),
    duration=st.sampled_from([0.0, 3.5, 20.0, 45.5, 60.0]),
    deadline=st.sampled_from([12.25, 30.0, 300.0]),
    settle_on_delivery=st.booleans(),
    inc=st.sampled_from(REFERENCE_SCHEMES),
    data=st.data(),
)
# the explicit examples draw both endpoints. Ticks 0-60 are one all-pairs block at 15 vehicles:
# the tree fills on tick 8, so the rest of the block is never routed
@example(seed=2, n=15, packing=0.6, speeds=(5.0, 15.0), pause_time=2.5, dt=1.0, duration=60.0, deadline=300.0,
         settle_on_delivery=False, inc=REFERENCE_SCHEMES[3], data=None)
# 10-tick blocks at 40 vehicles, 22 of which carry by the end: in each of the six whole
# blocks a quiet tick comes before a handoff (ticks 4, 7, 18, 23, 32, 43, 45 and 54 follow one)
@example(seed=1, n=40, packing=1.0, speeds=(5.0, 15.0), pause_time=0.0, dt=1.0, duration=60.0, deadline=300.0,
         settle_on_delivery=False, inc=REFERENCE_SCHEMES[4], data=None)
def test_run_equals_the_reference_engine(seed, n, packing, speeds, pause_time, dt, duration, deadline,
                                         settle_on_delivery, inc, data):
    # fleets on both sides of the Verlet crossover, at and above baseline
    # density; ticks that do and do not divide the end; endpoints given or drawn
    side = packing * 800.0 * (n / 15.0) ** 0.5
    mob = MobilityConfig(vehicle_count=n, arena_width=side, arena_height=side, speed_min=speeds[0],
                         speed_max=speeds[1], pause_time=pause_time, tick_seconds=dt)
    source = destination = None
    if data is not None:
        source = data.draw(st.none() | st.integers(0, n - 1), label="source_id")
        destination = data.draw(st.none() | st.integers(0, n - 1).filter(lambda d: d != source),
                                label="destination_id")
    eng = EngineConfig(duration=duration, source_id=source, destination_id=destination,
                       settle_on_delivery=settle_on_delivery)
    pkt = PacketSpec(reward_budget=20.0, deadline=deadline)
    result = run(mob, eng, inc, pkt, seed)
    assert reference_run(mob, eng, inc, pkt, seed) == {
        "source_id": result.source_id,
        "destination_id": result.destination_id,
        "links": result.tree.links,
        "records": result.records,
        "report": result.report,
        "settle_time": result.settle_time,
        "final_time": result.final_time,
        "ticks_run": result.ticks_run,
        "contact_events": result.contact_events,
    }


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


@pytest.mark.parametrize("settle_on_delivery", [False, True])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_records_are_finite_and_non_negative(baseline_path, scheme, settle_on_delivery):
    """Scoring and settlement take record fields unchecked; a run only makes finite, non-negative ones."""
    sc = with_updates(load_scenario(baseline_path), scheme=scheme)
    eng = replace(sc.engine, settle_on_delivery=settle_on_delivery)
    result = run(sc.mobility, eng, sc.incentives, sc.packet, sc.seed)
    assert result.records
    for rec in result.records:
        fields = [rec.stored_time, rec.forward_count, *rec.relay_distances, rec.receive_distance, rec.contribution]
        assert all(0 <= v < math.inf for v in fields), rec
