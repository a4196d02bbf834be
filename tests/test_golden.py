"""Exported bytes of a fixed set of runs must match the committed golden digests."""

import json

from golden.make_digests import DIGEST_FILE, digests


def test_exports_match_golden_digests():
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(expected)
    moved = {case: got[case] for case in got if got[case] != expected[case]}
    assert not moved, f"golden entries changed: {sorted(moved)}"
