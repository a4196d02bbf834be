import math

import numpy as np
import pytest

from conftest import make_tree
from vanetsim.engine import EngineConfig
from vanetsim.incentives import IncentiveConfig
from vanetsim.mobility import MobilityConfig
from vanetsim.model import (
    ForwardingTree,
    PacketSpec,
    SettlementReport,
    ValidationError,
    WeightSet,
    check_range,
    distance,
)


def test_distance_is_euclidean():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: EngineConfig(radio_range="100"), "radio_range"),
        (lambda: PacketSpec(deadline=None), "deadline"),
        (lambda: MobilityConfig(arena_width="1"), "arena_width"),
        (lambda: IncentiveConfig(time_scale="6"), "time_scale"),
        (lambda: WeightSet(0.5, "0.5", 0.0), "forward_weight"),
    ],
    ids=["engine", "packet", "mobility", "incentives", "weights"],
)
def test_a_value_of_the_wrong_type_is_a_validation_error_naming_its_field(build, field):
    with pytest.raises(ValidationError, match=f"^{field} must be a finite number"):
        build()


class TestCheckRange:
    @pytest.mark.parametrize("value", [0.5, 1, np.float64(0.25), np.int64(1), 0.0])
    def test_accepts_real_numbers_in_range(self, value):
        check_range("w", value, 0.0, 1.0)

    @pytest.mark.parametrize("value", [-0.0 - 1e-300, 1.5, math.nan, math.inf, True, "1", None, np.array(0.5)])
    def test_rejects_the_rest(self, value):
        with pytest.raises(ValidationError, match=r"^w must be a finite number in \[0, 1\], got "):
            check_range("w", value, 0.0, 1.0)

    def test_open_low_end_and_open_infinite_top(self):
        check_range("r", 1e308, open_low=True)
        check_range("r", 10**308, open_low=True)
        for value in (0.0, math.inf, 10**400):  # an int too large for a float is not finite
            with pytest.raises(ValidationError, match=r"^r must be a finite number in \(0, inf\), got "):
                check_range("r", value, open_low=True)


class TestWeightSet:
    def test_valid_triples(self):
        WeightSet(0.25, 0.5, 0.25)
        WeightSet(1.0, 0.0, 0.0)
        WeightSet(0.0, 0.0, 1.0)

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            WeightSet(0.5, 0.5, 0.5)
        with pytest.raises(ValidationError):
            WeightSet(0.2, 0.2, 0.2)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_each_weight_bounded(self, bad):
        with pytest.raises(ValidationError):
            WeightSet(bad, 1.0 - bad, 0.0)

    def test_is_two_term_requires_zero_distance(self):
        assert WeightSet(0.3, 0.7, 0.0).is_two_term
        assert not WeightSet(0.25, 0.5, 0.25).is_two_term


class TestForwardingTree:
    def test_depth_is_set_for_every_node(self):
        tree = make_tree(length=3)  # 0 -> 1 -> 2 -> 3
        assert {v: tree.depth[v] for v in tree.order} == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_parent_is_recorded_per_node(self):
        tree = make_tree([(0, 1), (0, 2), (2, 3)])
        assert tree.parent[3] == 2
        assert tree.parent[1] == 0
        assert tree.parent[0] == -1  # the root has no parent
        assert {v: tree.depth[v] for v in tree.order} == {0: 0, 1: 1, 2: 1, 3: 2}

    def test_empty_tree_is_just_the_root(self):
        tree = ForwardingTree(root=7, origin=(0.0, 0.0), n=10)
        assert tree.order == [7]
        assert tree.carries.nonzero()[0].tolist() == [7]
        assert (tree.parent == -1).all()
        assert tree.depth[7] == 0


class TestSettlementReport:
    def test_total_paid_sums_shares(self):
        report = SettlementReport(shares={1: 0.1, 2: 0.2, 3: 0.7}, payer_id=0)
        assert math.isclose(report.total_paid, 1.0, rel_tol=0, abs_tol=1e-15)
