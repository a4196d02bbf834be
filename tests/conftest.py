"""Shared fixtures: hand-built trees, packets and records used across tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from vanetsim.model import ForwardingTree, PacketSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_YAML = REPO_ROOT / "scenarios" / "baseline.yaml"


def make_packet(
    budget: float = 100.0,
    deadline: float = 300.0,
    interest_radius: float = 500.0,
) -> PacketSpec:
    return PacketSpec(reward_budget=budget, deadline=deadline, interest_radius=interest_radius)


def make_tree(hops=None, root: int = 0, length: int = 0, n: int = 64) -> ForwardingTree:
    """A tree over ``n`` vehicles from the (0, 0) origin, grown through ``add``.

    ``hops`` are ``(giver, taker)`` or ``(giver, taker, joined_at)``, in
    join order, each at 0 s by default. Without them the tree is the chain
    root -> root+1 -> ... -> root+length, hop i at i s. Every taker stood
    11 m and every giver 10 m from the origin.
    """
    if hops is None:
        hops = [(root + i, root + i + 1, float(i)) for i in range(length)]
    tree = ForwardingTree(root=root, origin=(0.0, 0.0), n=n)
    for giver, taker, *at in hops:
        tree.add(giver, taker, at[0] if at else 0.0, receive_distance=11.0, relay_distance=10.0)
    return tree


def links_of(tree: ForwardingTree) -> list[tuple[int, int, float, float, float]]:
    """``(parent, child, joined_at, receive_distance, relay_distance)`` per handoff, in join order."""
    parent, joined_at = tree.parent.tolist(), tree.joined_at.tolist()
    receive, relay = tree.receive_distance.tolist(), tree.relay_distance.tolist()
    return [(parent[v], v, joined_at[v], receive[v], relay[v]) for v in tree.order[1:]]


@pytest.fixture
def packet() -> PacketSpec:
    return make_packet()


@pytest.fixture
def baseline_path() -> Path:
    assert BASELINE_YAML.is_file()
    return BASELINE_YAML
