"""Benchmark workloads, the scenarios they generate and their output digests.

Each workload is one ``vanetsim sweep`` over a generated scenario. The
benchmark's ``--seed`` picks one of ``WINDOWS`` seed windows, so the same
seed always sweeps the same simulation seeds, and every window has
reference digests in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

WINDOWS = 16

# scenarios/baseline.yaml, copied so the workloads do not move if that file does
BASELINE = {
    "name": "baseline",
    "seed": 0,
    "mobility": {
        "vehicle_count": 15,
        "arena_width": 800.0,
        "arena_height": 800.0,
        "speed_min": 5.0,
        "speed_max": 15.0,
        "pause_time": 0.0,
        "tick_seconds": 1.0,
    },
    "engine": {"radio_range": 100.0, "duration": 300.0},
    "packet": {
        "reward_budget": 100.0,
        "deadline": 300.0,
        "interest_radius": 1000.0,
        "payload_class": "safety",
        "packet_id": "p0",
    },
    "incentives": {
        "scheme": "second_proposal",
        "weights": {"time": 0.398, "forward": 0.6, "distance": 0.002},
        "time_scale": 60.0,
        "distance_scale": 400.0,
        "distance_aggregate": "mean",
    },
}

TICKS = round(BASELINE["engine"]["duration"] / BASELINE["mobility"]["tick_seconds"])


@dataclass(frozen=True)
class Workload:
    """One sweep; why each was chosen is in ``BENCHMARK.json``."""

    name: str
    scenario_name: str  # the CLI names artifact files after it
    vehicle_count: int
    arena_side: float
    seeds_per_rep: int

    def scenario(self) -> dict:
        scenario = json.loads(json.dumps(BASELINE))
        scenario["name"] = self.scenario_name
        mobility = scenario["mobility"]
        mobility["vehicle_count"] = self.vehicle_count
        mobility["arena_width"] = mobility["arena_height"] = self.arena_side
        return scenario

    def write_scenario(self, path: Path) -> Path:
        # JSON is a subset of YAML, so load_scenario reads it as is
        path.write_text(json.dumps(self.scenario(), indent=2) + "\n", encoding="utf-8")
        return path

    def vehicle_ticks(self, runs: int) -> int:
        """Vehicle positions advanced by ``runs`` simulation runs; every run runs every tick."""
        return self.vehicle_count * TICKS * runs

    def seeds(self, bench_seed: int) -> list[int]:
        """Simulation seeds swept for one benchmark seed."""
        first = (bench_seed % WINDOWS) * self.seeds_per_rep
        return list(range(first, first + self.seeds_per_rep))


# 15 vehicles per 800 m x 800 m is the baseline density
SPARSE_SIDE = round(800.0 * math.sqrt(1000 / 15))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_sweep", "baseline", 15, 800.0, 100),
        Workload("sparse_fleet_1k", "sparse_fleet_1k", 1000, float(SPARSE_SIDE), 2),
        Workload("dense_fleet", "dense_fleet", 300, 800.0, 2),
    )
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def collect(cli_out: Path, stem: str, seeds: list[int]) -> dict:
    """Digests, budget checks and simulated counts of one sweep's artifacts.

    A run whose files are missing gets ``None`` digests, which match no
    reference.
    """
    runs: dict[str, list] = {}
    budget_ok: dict[str, bool] = {}
    counts = {"contact_events": 0, "link_count": 0, "tree_nodes": 0}
    for seed in seeds:
        try:
            summary = (cli_out / f"run-s{seed}" / f"{stem}.summary.json").read_bytes()
            rows = (cli_out / f"run-s{seed}" / f"{stem}.rows.csv").read_bytes()
        except OSError:
            runs[str(seed)] = [None, None]
            budget_ok[str(seed)] = False
            continue
        runs[str(seed)] = [digest(summary), digest(rows)]
        ident = json.loads(summary)["scenario"]
        budget_ok[str(seed)] = ident["total_paid"] <= ident["reward_budget"]
        counts["contact_events"] += ident["contact_events"]
        counts["link_count"] += ident["link_count"]
        counts["tree_nodes"] += ident["tree_size"]
    try:
        aggregate = digest((cli_out / "aggregate.json").read_bytes())
    except OSError:
        aggregate = None
    return {"aggregate": aggregate, "runs": runs, "budget_ok": budget_ok, "counts": counts}
