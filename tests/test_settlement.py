import math

import pytest

from conftest import chain_tree, make_link
from vanetsim.engine import EngineConfig, run
from vanetsim.incentives import IncentiveConfig
from vanetsim.mobility import MobilityConfig
from vanetsim.model import (
    ContributionRecord,
    ForwardingTree,
    PacketSpec,
    ValidationError,
)
from vanetsim.settlement import (
    fundable_hops,
    settle_packet_purse,
    settle_packet_trade,
    settle_proportional,
)


def records_with(contributions: list[float]) -> list[ContributionRecord]:
    return [
        ContributionRecord(
            vehicle_id=i + 1,
            stored_time=0.0,
            forward_count=0,
            relay_distances=[],
            receive_distance=0.0,
            contribution=c,
        )
        for i, c in enumerate(contributions)
    ]


class TestProportional:
    def test_shares_follow_contributions(self):
        report = settle_proportional(chain_tree(length=0), records_with([1.0, 3.0]), 100.0)
        assert report.shares[1] == pytest.approx(25.0)
        assert report.shares[2] == pytest.approx(75.0)
        assert report.payer_id == 0

    def test_total_paid_equals_budget(self):
        report = settle_proportional(chain_tree(length=0), records_with([0.3, 0.7, 2.1]), 73.5)
        assert report.total_paid == pytest.approx(73.5, rel=1e-12)
        assert report.total_paid <= 73.5

    def test_zero_contribution_pays_nothing(self):
        report = settle_proportional(chain_tree(length=0), records_with([0.0, 0.0]), 50.0)
        assert report.shares == {1: 0.0, 2: 0.0}
        assert report.total_paid == 0.0

    def test_zero_budget_pays_nothing(self):
        report = settle_proportional(chain_tree(length=0), records_with([1.0, 2.0]), 0.0)
        assert report.total_paid == 0.0

    def test_no_records_is_fine(self):
        report = settle_proportional(chain_tree(length=0), [], 100.0)
        assert report.shares == {}
        assert report.total_paid == 0.0

    def test_tree_root_pays(self):
        report = settle_proportional(chain_tree(root=5, length=2), records_with([1.0, 1.0]), 10.0)
        assert report.payer_id == 5

    def test_rejects_negative_contribution(self):
        with pytest.raises(ValidationError):
            settle_proportional(chain_tree(length=0), records_with([-0.1]), 100.0)

    def test_never_overspends_on_adversarial_floats(self):
        # contribution triples chosen so budget * (c / total) rounds up
        for k in range(1, 200):
            contribs = [0.1 / k] * k + [0.3, 1e-9]
            report = settle_proportional(chain_tree(length=0), records_with(contribs), 0.1)
            assert report.total_paid <= 0.1
            assert report.overspend == 0.0


class TestFundableHops:
    def test_exact_division(self):
        assert fundable_hops(5.0, 1.0) == 5

    def test_rounds_down(self):
        assert fundable_hops(5.5, 1.0) == 5

    def test_float_noise_does_not_lose_a_hop(self):
        # 3 * 0.1 is slightly above 0.30000000000000004 / 0.1 = 2.99...
        assert fundable_hops(0.3, 0.1) == 3

    def test_zero_and_negative_budget(self):
        assert fundable_hops(0.0, 1.0) == 0
        assert fundable_hops(-2.0, 1.0) == 0

    def test_rejects_bad_price(self):
        with pytest.raises(ValidationError):
            fundable_hops(1.0, 0.0)

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_rejects_non_finite_price(self, price):
        with pytest.raises(ValidationError):
            fundable_hops(1.0, price)


class TestPacketPurse:
    def test_pays_handoffs_in_order_until_dry(self):
        tree = chain_tree(length=4)  # links 0->1, 1->2, 2->3, 3->4
        report = settle_packet_purse(tree, 2.0, hop_price=1.0)
        assert report.paid_link_count == 2
        assert report.shares[0] == 1.0  # first handoff was the source's
        assert report.shares[1] == 1.0
        assert report.shares[2] == 0.0  # purse already empty
        assert report.shares[3] == 0.0
        assert report.shortfall == 2.0

    def test_full_purse_covers_everything(self):
        tree = chain_tree(length=3)
        report = settle_packet_purse(tree, 10.0, hop_price=1.0)
        assert report.paid_link_count == 3
        assert report.shortfall == 0.0
        assert report.total_paid == 3.0

    def test_fanout_pays_the_busy_forwarder_repeatedly(self):
        tree = ForwardingTree(
            root=0,
            origin=(0.0, 0.0),
            links=[make_link(0, 1, 1.0), make_link(1, 2, 2.0), make_link(1, 3, 3.0)],
        )
        report = settle_packet_purse(tree, 5.0, hop_price=1.0)
        assert report.shares[1] == 2.0
        assert report.shares[0] == 1.0

    def test_tree_root_pays(self):
        report = settle_packet_purse(chain_tree(root=5, length=2), 10.0, hop_price=1.0)
        assert report.payer_id == 5
        assert report.shares == {5: 1.0, 6: 1.0, 7: 0.0}

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_rejects_non_finite_price(self, price):
        with pytest.raises(ValidationError):
            settle_packet_purse(chain_tree(), 100.0, hop_price=price)


class TestPacketTrade:
    def tree(self) -> ForwardingTree:
        # 0 -> 1 -> 2 -> 3 plus a side branch 1 -> 4
        return ForwardingTree(
            root=0,
            origin=(0.0, 0.0),
            links=[
                make_link(0, 1, 1.0),
                make_link(1, 2, 2.0),
                make_link(2, 3, 3.0),
                make_link(1, 4, 4.0),
            ],
        )

    def test_destination_pays_its_delivery_path(self):
        report = settle_packet_trade(self.tree(), 3, hop_price=2.0)
        assert report.payer_id == 3
        assert report.shares == {0: 2.0, 1: 2.0, 2: 2.0, 4: 0.0}
        assert report.total_paid == 6.0

    def test_off_path_relays_earn_nothing(self):
        report = settle_packet_trade(self.tree(), 2, hop_price=1.0)
        assert report.shares[4] == 0.0
        assert 2 not in report.shares  # the payer holds no share entry

    def test_undelivered_pays_nobody(self):
        report = settle_packet_trade(self.tree(), 9, hop_price=1.0)
        assert report.total_paid == 0.0

    def test_source_is_never_debited(self):
        balances = settle_packet_trade(self.tree(), 3, hop_price=1.0).balances
        assert balances[0] == 1.0  # earned for the first sale
        assert balances[3] == -3.0  # destination paid the path

    def test_rejects_bad_price(self):
        with pytest.raises(ValidationError):
            settle_packet_trade(self.tree(), 3, hop_price=0.0)

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_rejects_non_finite_price(self, price):
        with pytest.raises(ValidationError):
            settle_packet_trade(self.tree(), 3, hop_price=price)


class TestBalances:
    def assert_conserved(self, balances):
        assert math.fsum(balances.values()) == pytest.approx(0.0, abs=1e-9)

    def test_proportional_root_is_debited_the_budget(self):
        report = settle_proportional(chain_tree(root=5, length=0), records_with([0.3, 0.7, 2.1]), 73.5)
        balances = report.balances
        assert balances[5] == -report.total_paid
        assert balances[5] == pytest.approx(-73.5, rel=1e-12)
        assert {vid: balances[vid] for vid in (1, 2, 3)} == report.shares
        self.assert_conserved(balances)

    def test_purse_source_earns_for_its_own_handoffs(self):
        tree = chain_tree(length=4)  # links 0->1, 1->2, 2->3, 3->4
        report = settle_packet_purse(tree, 2.0, hop_price=1.0)
        balances = report.balances
        assert balances[0] == report.shares[0] - report.total_paid == -1.0
        assert balances[1] == 1.0
        assert balances[2] == balances[3] == balances[4] == 0.0
        self.assert_conserved(balances)

    def test_trade_destination_is_debited_and_source_keeps_its_sale(self):
        report = settle_packet_trade(TestPacketTrade().tree(), 3, hop_price=2.0)
        balances = report.balances
        assert balances[3] == -6.0
        assert balances[0] == balances[1] == balances[2] == 2.0
        assert balances[4] == 0.0
        self.assert_conserved(balances)

    def test_run_that_pays_nothing_leaves_every_balance_at_zero(self):
        result = run(
            MobilityConfig(), EngineConfig(duration=300.0), IncentiveConfig(),
            PacketSpec(reward_budget=0.0, deadline=300.0), 7,
        )
        assert len(result.tree.links) > 0  # carriers exist, but none is paid
        assert result.report.total_paid == 0.0
        assert all(balance == 0.0 for balance in result.report.balances.values())
