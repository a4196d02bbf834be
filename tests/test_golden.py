"""Exported bytes of a fixed set of runs must match the committed golden digests."""

import json

import pytest

from golden.make_digests import DIGEST_FILE, case_digests, cases, digests
from test_engine import one_tick_blocks
from vanetsim import kernels, mobility


def test_exports_match_golden_digests():
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(expected)
    moved = {case: got[case] for case in got if got[case] != expected[case]}
    assert not moved, f"golden entries changed: {sorted(moved)}"


# Each grouping knob at an extreme. None regroups what a run computes, only how much at a time:
# ticks per all-pairs block (1 680 B is one row at 15 vehicles), rows per mobility draw
# (24 B is one), which pair list a fleet keeps, and one tick per block for every list.
GROUPINGS = {
    "kept_bytes_1680": lambda mp: mp.setattr(kernels, "_KEPT_BYTES", 1680),
    "kept_bytes_1MiB": lambda mp: mp.setattr(kernels, "_KEPT_BYTES", 1 << 20),
    "draw_bytes_24": lambda mp: mp.setattr(mobility, "_DRAW_BYTES", 24),
    "draw_bytes_1MiB": lambda mp: mp.setattr(mobility, "_DRAW_BYTES", 1 << 20),
    "verlet_from_2": lambda mp: mp.setattr(kernels, "NEIGHBOUR_LIST_MIN_VEHICLES", 2),
    "all_pairs_always": lambda mp: mp.setattr(kernels, "NEIGHBOUR_LIST_MIN_VEHICLES", 10**9),
    "one_tick_blocks": one_tick_blocks,
}
# delivery inside an all-pairs, a paused, a Verlet (tick 111), a dense Verlet (tick 1)
# and a fourth 78-tick all-pairs block (tick 290), a run to its deadline, and a dense
# Verlet run whose tree holds every vehicle from tick 2 on
GROUPED_CASES = [
    "baseline/second_proposal/s0", "baseline/packet_trade/s0", "settle_on_delivery/second_proposal/s0",
    "pause2.5/packet_trade/s0", "fleet128/packet_trade/s0", "dense300/packet_trade/s0", "tick0.1/packet_trade/s0",
    "dense300_300s/second_proposal/s0",
]


@pytest.mark.parametrize("grouping", GROUPINGS.values(), ids=GROUPINGS.keys())
def test_no_grouping_moves_a_golden_digest(monkeypatch, grouping):
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    scenarios = cases()
    grouping(monkeypatch)
    moved = [case for case in GROUPED_CASES if case_digests(scenarios[case]) != expected[case]]
    assert not moved, f"golden entries changed: {moved}"
