"""Shared fixtures: hand-built trees, packets and records used across tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from vanetsim.model import ForwardingTree, PacketSpec, TreeLink

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_YAML = REPO_ROOT / "scenarios" / "baseline.yaml"


def make_packet(
    budget: float = 100.0,
    deadline: float = 300.0,
    interest_radius: float = 500.0,
) -> PacketSpec:
    return PacketSpec(reward_budget=budget, deadline=deadline, interest_radius=interest_radius)


def make_link(
    from_id: int, to_id: int, timestamp: float = 0.0, dist: float = 10.0
) -> TreeLink:
    return TreeLink(
        from_id=from_id,
        to_id=to_id,
        timestamp=timestamp,
        to_position=(dist + 1.0, 0.0),
        distance_from_origin=dist,
    )


def chain_tree(root: int = 0, length: int = 3) -> ForwardingTree:
    """root -> root+1 -> ... -> root+length, one link per hop, from the (0, 0) origin."""
    links = [
        make_link(root + i, root + i + 1, timestamp=float(i)) for i in range(length)
    ]
    return ForwardingTree(root=root, origin=(0.0, 0.0), links=links)


@pytest.fixture
def packet() -> PacketSpec:
    return make_packet()


@pytest.fixture
def baseline_path() -> Path:
    assert BASELINE_YAML.is_file()
    return BASELINE_YAML
