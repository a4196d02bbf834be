import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_packet
from vanetsim.incentives import (
    IncentiveConfig,
    contribution_basic,
    contribution_first,
    contribution_second,
    distance_term,
    effective_distance,
    forward_term,
    time_term,
)
from vanetsim.model import ContributionRecord, Scheme, ValidationError, WeightSet

# Reference values frozen from a 40-digit arbitrary-precision evaluation of
# the closed-form expressions. Guards against accidental formula drift.
FROZEN = [
    ("time_term", lambda: time_term(2.0, 10.0), 8.646647167633873),
    ("time_term_saturated", lambda: time_term(50.0, 10.0), 9.999546000702375),
    ("distance_term", lambda: distance_term(200.0, 500.0, 100.0), 67.66764161830635),
    (
        "contribution_second",
        lambda: contribution_second(
            WeightSet(0.2, 0.5, 0.3), 2.0, 10.0, 3, 200.0, 500.0, 100.0
        ),
        23.52962191901868,
    ),
]


@pytest.mark.parametrize("name,fn,expected", FROZEN, ids=[f[0] for f in FROZEN])
def test_frozen_reference_values(name, fn, expected):
    assert fn() == pytest.approx(expected, rel=1e-12, abs=0)


class TestTimeTerm:
    def test_zero_time_earns_nothing(self):
        assert time_term(0.0, 10.0) == 0.0

    def test_clamps_at_deadline(self):
        assert time_term(10.0, 10.0) == time_term(11.0, 10.0)
        assert time_term(10.0, 10.0) == time_term(1e6, 10.0)

    def test_bounded_by_deadline(self):
        for t in (0.1, 1.0, 5.0, 100.0):
            assert 0.0 < time_term(t, 5.0) < 5.0

    def test_small_time_accuracy(self):
        # expm1 keeps this accurate where exp(-t) - 1 would cancel
        t = 1e-12
        assert time_term(t, 10.0) == pytest.approx(10.0 * t, rel=1e-9)


class TestForwardTerm:
    def test_linear(self):
        assert forward_term(0) == 0.0
        assert forward_term(7) == 7.0


class TestDistanceTerm:
    def test_zero_distance_is_max(self):
        assert distance_term(0.0, 500.0, 100.0) == 500.0

    def test_cutoff_is_exact_zero(self):
        assert distance_term(500.0 + 1e-9, 500.0, 100.0) == 0.0
        assert distance_term(1e9, 500.0, 100.0) == 0.0

    def test_boundary_is_inside(self):
        assert distance_term(500.0, 500.0, 100.0) == pytest.approx(
            500.0 * math.exp(-5.0), rel=1e-15
        )


class TestTwoTermMetrics:
    def test_basic_formula(self):
        assert contribution_basic(0.3, 4.0, 5) == pytest.approx(
            0.3 * 4.0 + 0.7 * 5.0, rel=1e-15
        )

    def test_basic_accepts_closed_interval(self):
        assert contribution_basic(0.0, 9.0, 2) == 2.0
        assert contribution_basic(1.0, 9.0, 2) == 9.0

    def test_first_ratio_formula(self):
        got = contribution_first(0.4, 3.0, 12.0, 2, mode="ratio")
        assert got == pytest.approx(0.4 * (3.0 / 12.0) + 0.6 * 2.0, rel=1e-15)

    def test_first_product_formula(self):
        got = contribution_first(0.4, 3.0, 12.0, 2, mode="product")
        assert got == pytest.approx(0.4 * (3.0 * 12.0) + 0.6 * 2.0, rel=1e-15)

    def test_first_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            contribution_first(0.5, 1.0, 10.0, 1, mode="sqrt")


class TestWeightIsolation:
    # with a single unit weight the blend must reproduce the bare term bitwise
    def test_time_only(self):
        w = WeightSet(1.0, 0.0, 0.0)
        assert contribution_second(w, 2.5, 10.0, 4, 50.0, 500.0, 100.0) == time_term(
            2.5, 10.0
        )

    def test_forward_only(self):
        w = WeightSet(0.0, 1.0, 0.0)
        assert contribution_second(w, 2.5, 10.0, 4, 50.0, 500.0, 100.0) == 4.0

    def test_distance_only(self):
        w = WeightSet(0.0, 0.0, 1.0)
        assert contribution_second(
            w, 2.5, 10.0, 4, 50.0, 500.0, 100.0
        ) == distance_term(50.0, 500.0, 100.0)


class TestEffectiveDistance:
    def test_no_relays_falls_back_to_receive_distance(self):
        assert effective_distance([], 123.0) == 123.0

    def test_aggregates(self):
        d = [10.0, 30.0, 20.0]
        assert effective_distance(d, 0.0, "mean") == 20.0
        assert effective_distance(d, 0.0, "min") == 10.0
        assert effective_distance(d, 0.0, "max") == 30.0
        assert effective_distance(d, 0.0, "last") == 20.0

    def test_unknown_aggregate(self):
        with pytest.raises(ValidationError):
            effective_distance([1.0], 0.0, "median")


pos_times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
deadlines = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
distances = st.floats(min_value=0.0, max_value=3000.0, allow_nan=False)


class TestProperties:
    @given(t1=pos_times, t2=pos_times, deadline=deadlines)
    @settings(max_examples=300)
    def test_time_term_monotone_nondecreasing(self, t1, t2, deadline):
        lo, hi = sorted((t1, t2))
        assert time_term(lo, deadline) <= time_term(hi, deadline)

    @given(t=pos_times, deadline=deadlines)
    @settings(max_examples=300)
    def test_time_term_saturates(self, t, deadline):
        assert time_term(deadline + t, deadline) == time_term(deadline, deadline)

    @given(d1=distances, d2=distances)
    @settings(max_examples=300)
    def test_distance_term_monotone_nonincreasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert distance_term(lo, 800.0, 150.0) >= distance_term(hi, 800.0, 150.0)

    @given(d=distances, radius=st.floats(min_value=1.0, max_value=1000.0))
    @settings(max_examples=300)
    def test_distance_term_zero_iff_outside(self, d, radius):
        got = distance_term(d, radius, 100.0)
        if d > radius:
            assert got == 0.0
        else:
            assert got > 0.0

    @given(
        f=st.integers(min_value=0, max_value=100),
        t=pos_times,
        deadline=deadlines,
        d=distances,
    )
    @settings(max_examples=300)
    def test_second_strictly_increasing_in_forwards(self, f, t, deadline, d):
        w = WeightSet(0.25, 0.5, 0.25)
        c0 = contribution_second(w, t, deadline, f, d, 500.0, 100.0)
        c1 = contribution_second(w, t, deadline, f + 1, d, 500.0, 100.0)
        assert c1 > c0

    @given(alpha=st.floats(min_value=0.01, max_value=0.99), t=pos_times)
    @settings(max_examples=300)
    def test_basic_increasing_in_forwards(self, alpha, t):
        assert contribution_basic(alpha, t, 3) < contribution_basic(alpha, t, 4)


class TestIncentiveConfig:
    def test_defaults_are_valid(self):
        cfg = IncentiveConfig()
        assert cfg.scheme is Scheme.SECOND_PROPOSAL
        assert cfg.weights.forward_weight == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_scale": 0.0},
            {"distance_scale": -1.0},
            {"distance_aggregate": "median"},
            {"first_proposal_mode": "cubic"},
            {"time_scale": math.nan},
            {"distance_scale": math.nan},
            {"time_scale": math.inf},
            {"distance_scale": math.inf},
            {"scheme": "packet_trade"},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValidationError):
            IncentiveConfig(**kwargs)

    def test_two_term_schemes_reject_distance_weight(self):
        with pytest.raises(ValidationError):
            IncentiveConfig(
                scheme=Scheme.BASIC_LINEAR, weights=WeightSet(0.25, 0.5, 0.25)
            )

    def test_first_proposal_needs_interior_alpha(self):
        with pytest.raises(ValidationError):
            IncentiveConfig(
                scheme=Scheme.FIRST_PROPOSAL, weights=WeightSet(1.0, 0.0, 0.0)
            )

    def test_contribution_for_normalizes_time(self):
        # raw seconds divided by time_scale before hitting the pure functions
        cfg = IncentiveConfig(
            scheme=Scheme.SECOND_PROPOSAL,
            weights=WeightSet(1.0, 0.0, 0.0),
            time_scale=60.0,
        )
        pkt = make_packet(deadline=300.0)
        rec = ContributionRecord(
            vehicle_id=1,
            stored_time=120.0,
            forward_count=0,
            relay_distances=[],
            receive_distance=40.0,
        )
        assert cfg.contribution_for(rec, pkt) == time_term(2.0, 5.0)

    def test_contribution_for_uses_distance_aggregate(self):
        w = WeightSet(0.0, 0.0, 1.0)
        pkt = make_packet(interest_radius=500.0)
        rec = ContributionRecord(
            vehicle_id=1,
            stored_time=0.0,
            forward_count=2,
            relay_distances=[100.0, 300.0],
            receive_distance=50.0,
        )
        mean_cfg = IncentiveConfig(weights=w, distance_scale=100.0)
        min_cfg = IncentiveConfig(
            weights=w, distance_scale=100.0, distance_aggregate="min"
        )
        assert mean_cfg.contribution_for(rec, pkt) == distance_term(200.0, 500.0, 100.0)
        assert min_cfg.contribution_for(rec, pkt) == distance_term(100.0, 500.0, 100.0)

    def test_contribution_for_rejects_non_scoring_schemes(self):
        cfg = IncentiveConfig(scheme=Scheme.PACKET_PURSE)
        pkt = make_packet()
        rec = ContributionRecord(1, 0.0, 0, [], 0.0)
        with pytest.raises(ValidationError):
            cfg.contribution_for(rec, pkt)

    def test_score_records_fills_in_place(self):
        cfg = IncentiveConfig()
        pkt = make_packet()
        recs = [
            ContributionRecord(1, 60.0, 2, [100.0], 80.0),
            ContributionRecord(2, 30.0, 0, [], 450.0),
        ]
        out = cfg.score_records(recs, pkt)
        assert out is recs
        assert all(r.contribution > 0 for r in recs)
        assert recs[0].contribution > recs[1].contribution
