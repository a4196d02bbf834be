import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim.engine import EngineConfig, PacketSpec, run
from vanetsim.incentives import IncentiveConfig, effective_distance
from vanetsim.metrics import (
    NodeRow,
    RunSummary,
    bin_rewards,
    build_summary,
    load_rows_csv,
    load_summary_json,
    reward_vs_descendants,
    rows_to_csv,
    spearman,
    summary_to_json,
    write_rows_csv,
    write_summary_json,
)
from vanetsim.mobility import MobilityConfig
from vanetsim.model import ValidationError


def row(vid=1, reward=0.0, forwards=0, stored=0.0, dist=0.0, desc=0, depth=1):
    return NodeRow(
        vehicle_id=vid,
        reward=reward,
        contribution=reward,
        stored_time=stored,
        forward_count=forwards,
        effective_distance=dist,
        receive_distance=dist,
        descendants=desc,
        depth=depth,
    )


def summary_for(seed: int = 7, inc: IncentiveConfig | None = None) -> RunSummary:
    inc = inc or IncentiveConfig()
    result = run(
        MobilityConfig(),
        EngineConfig(radio_range=100.0, duration=300.0),
        inc,
        PacketSpec(deadline=300.0),
        seed,
    )
    return build_summary(result, "testhash")


class TestBinRewards:
    def test_worked_example(self):
        # forwards {1, 1, 2} with rewards {2, 4, 9} and width 1
        rows = [row(1, 2.0, forwards=1), row(2, 4.0, forwards=1), row(3, 9.0, forwards=2)]
        assert bin_rewards(rows, "forwards", 1.0) == [(1.0, 3.0, 2), (2.0, 9.0, 1)]

    def test_empty_bins_are_omitted(self):
        rows = [row(1, 1.0, dist=10.0), row(2, 5.0, dist=260.0)]
        got = bin_rewards(rows, "distance", 50.0)
        assert got == [(0.0, 1.0, 1), (250.0, 5.0, 1)]

    def test_default_widths(self):
        rows = [row(1, 1.0, stored=9.0), row(2, 3.0, stored=19.0)]
        assert bin_rewards(rows, "time") == [(0.0, 1.0, 1), (10.0, 3.0, 1)]
        rows = [row(1, 1.0, dist=49.0), row(2, 3.0, dist=51.0)]
        assert bin_rewards(rows, "distance") == [(0.0, 1.0, 1), (50.0, 3.0, 1)]

    def test_no_rows(self):
        assert bin_rewards([], "forwards") == []

    def test_bad_key_and_width(self):
        with pytest.raises(ValidationError):
            bin_rewards([], "speed")
        with pytest.raises(ValidationError):
            bin_rewards([], "time", 0.0)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=30,
        ),
        width=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_mass_is_conserved(self, data, width):
        # sum(mean * count) over bins equals the plain reward total
        rows = [row(i, rw, forwards=f) for i, (rw, f) in enumerate(data)]
        bins = bin_rewards(rows, "forwards", width)
        total = math.fsum(mean * count for _, mean, count in bins)
        assert total == pytest.approx(math.fsum(r.reward for r in rows), rel=1e-9)
        assert sum(c for _, _, c in bins) == len(rows)

    def test_bins_sorted_ascending(self):
        rows = [row(i, 1.0, dist=d) for i, d in enumerate([900.0, 10.0, 400.0])]
        starts = [b[0] for b in bin_rewards(rows, "distance", 50.0)]
        assert starts == sorted(starts)


def rank(values):
    # average-rank (midrank) assignment, ties share the mean of their ranks
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = sum((a - mx) ** 2 for a in xs)
    vy = sum((b - my) ** 2 for b in ys)
    return cov / math.sqrt(vx * vy)


class TestRewardVsDescendants:
    def test_matches_rank_correlation_by_hand(self):
        rows = [
            row(1, 5.0, desc=3),
            row(2, 1.0, desc=0),
            row(3, 4.0, desc=2),
            row(4, 2.0, desc=0),  # tie in descendants
            row(5, 3.0, desc=1),
        ]
        pairs, rho = reward_vs_descendants(rows)
        assert len(pairs) == 5
        desc = [p[0] for p in pairs]
        rew = [p[1] for p in pairs]
        assert rho == pytest.approx(pearson(rank(desc), rank(rew)), rel=1e-12)

    def test_perfect_orderings(self):
        inc = [row(i, float(i), desc=i) for i in range(1, 6)]
        dec = [row(i, float(-i), desc=i) for i in range(1, 6)]
        assert reward_vs_descendants(inc)[1] == pytest.approx(1.0)
        assert reward_vs_descendants(dec)[1] == pytest.approx(-1.0)

    def test_undefined_cases_return_none(self):
        assert reward_vs_descendants([])[1] is None
        assert reward_vs_descendants([row(1, 1.0, desc=1)])[1] is None
        # constant rewards
        rows = [row(1, 2.0, desc=0), row(2, 2.0, desc=3)]
        assert reward_vs_descendants(rows)[1] is None
        # constant descendants
        rows = [row(1, 1.0, desc=2), row(2, 5.0, desc=2)]
        assert reward_vs_descendants(rows)[1] is None


class TestSpearman:
    def test_matches_scipy_bit_for_bit_on_tie_heavy_inputs(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(0)
        compared = 0
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, int(rng.integers(2, 6)), n)  # few distinct values: many ties
            b = np.round(rng.random(n) * int(rng.integers(1, 5)), 1)
            rho = spearman(a, b)
            if len(set(a)) < 2 or len(set(b)) < 2:
                assert rho is None
                continue
            expected = spearmanr(a, b).statistic
            assert rho == expected or (rho is None and math.isnan(expected))
            compared += 1
        assert compared > 1500

    def test_nan_input_is_undefined(self):
        assert spearman([1, 2, 3], [float("nan"), 2, 3]) is None


class TestBuildSummary:
    def test_rows_cover_all_non_root_tree_nodes(self):
        s = summary_for(seed=7)
        assert len(s.rows) == s.scenario["tree_size"] - 1
        assert s.scenario["scenario_hash"] == "testhash"
        assert s.schema_version == 1

    def test_total_reward_matches_total_paid(self):
        s = summary_for(seed=7)
        assert s.aggregates["total_reward"] == pytest.approx(s.scenario["total_paid"], rel=1e-12)

    def test_row_rewards_match_shares(self):
        inc = IncentiveConfig()
        result = run(
            MobilityConfig(),
            EngineConfig(radio_range=100.0, duration=300.0),
            inc,
            PacketSpec(deadline=300.0),
            3,
        )
        s = build_summary(result, "h")
        for r in s.rows:
            assert r.reward == result.report.shares[r.vehicle_id]

    def test_depth_and_descendants_are_consistent(self):
        s = summary_for(seed=5)
        assert all(r.depth >= 1 for r in s.rows)
        assert sum(r.descendants for r in s.rows) <= s.scenario["tree_size"] ** 2

    def test_aggregate_bins_use_default_widths(self):
        s = summary_for(seed=7)
        for key, width in (("reward_by_time", 10.0), ("reward_by_forwards", 1.0),
                           ("reward_by_distance", 50.0)):
            for start, _, _ in s.aggregates[key]:
                assert start == pytest.approx(round(start / width) * width)


class TestSummaryFollowsItsRun:
    def run_with(self, aggregate: str):
        inc = IncentiveConfig(distance_aggregate=aggregate)
        return run(
            MobilityConfig(),
            EngineConfig(radio_range=100.0, duration=300.0),
            inc,
            PacketSpec(deadline=300.0),
            7,
        )

    @pytest.mark.parametrize("aggregate", ["min", "max", "last"])
    def test_effective_distance_uses_the_run_aggregate(self, aggregate):
        result = self.run_with(aggregate)
        rows = build_summary(result, "h").rows
        assert [r.vehicle_id for r in rows] == [rec.vehicle_id for rec in result.records]
        for r, rec in zip(rows, result.records):
            assert r.effective_distance == effective_distance(
                rec.relay_distances, rec.receive_distance, aggregate
            )
        mean_rows = build_summary(self.run_with("mean"), "h").rows
        assert any(
            r.effective_distance != m.effective_distance for r, m in zip(rows, mean_rows)
        )


class TestJsonExport:
    def test_top_level_layout(self):
        s = summary_for(seed=7)
        doc = json.loads(summary_to_json(s))
        assert set(doc) == {"schema_version", "scenario", "rows", "aggregates"}
        assert doc["schema_version"] == 1

    def test_round_trip_preserves_everything(self, tmp_path):
        s = summary_for(seed=7)
        path = write_summary_json(s, tmp_path / "s.summary.json")
        loaded = load_summary_json(path)
        assert loaded.rows == s.rows
        assert loaded.scenario == s.scenario
        # aggregates round-trip through JSON lists
        assert json.dumps(loaded.aggregates, sort_keys=True) == json.dumps(
            json.loads(json.dumps(s.aggregates)), sort_keys=True
        )

    def test_serialization_is_stable(self, tmp_path):
        s = summary_for(seed=7)
        p1 = write_summary_json(s, tmp_path / "a.json")
        p2 = write_summary_json(s, tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


class TestCsvExport:
    def test_header_and_shape(self):
        s = summary_for(seed=7)
        text = rows_to_csv(s.rows)
        lines = text.split("\n")
        assert lines[0] == (
            "vehicle_id,reward,contribution,stored_time,forward_count,"
            "effective_distance,receive_distance,descendants,depth"
        )
        assert len(lines) == len(s.rows) + 2  # header + rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    def test_round_trip_is_lossless(self, tmp_path):
        s = summary_for(seed=7)
        path = write_rows_csv(s.rows, tmp_path / "rows.csv")
        loaded = load_rows_csv(path)
        assert tuple(loaded) == s.rows

    def test_floats_use_full_precision_dot_decimal(self, tmp_path):
        rows = (row(1, reward=1.0 / 3.0, dist=0.1),)
        text = rows_to_csv(rows)
        assert repr(1.0 / 3.0) in text
        assert "," in text and ";" not in text.split("\n")[0]
