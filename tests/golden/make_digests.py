"""The golden corpus: sha256 digests of exported run artifacts.

Each case is one run of a scenario derived from ``scenarios/baseline.yaml``.
Its digests cover the exact bytes that ``vanetsim run`` writes to
``<name>.summary.json`` and ``<name>.rows.csv``. One more entry covers the
``aggregate.json`` that ``vanetsim sweep`` writes for the baseline over
seeds 0-4, run through ``cli.main``. ``tests/test_golden.py``
recomputes them and compares against ``digests.json``; this script is the
only thing that writes that file:

    PYTHONPATH=src python tests/golden/make_digests.py

Regenerate only when an output change is intended, and say which entries
moved and why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from vanetsim import cli
from vanetsim.engine import run
from vanetsim.metrics import build_summary, rows_to_csv, summary_to_json
from vanetsim.model import Scheme
from vanetsim.scenario import load_scenario, scenario_from_dict, scenario_hash, with_updates

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "digests.json"
BASELINE_YAML = HERE.parents[1] / "scenarios" / "baseline.yaml"


def _variant(base: dict, **sections) -> dict:
    """``base`` with some keys of its sections replaced."""
    d = json.loads(json.dumps(base))
    for section, updates in sections.items():
        d[section].update(updates)
    return d


def cases() -> dict[str, object]:
    """Case id -> scenario, seed included."""
    base = load_scenario(BASELINE_YAML)
    raw = base.to_dict()
    out = {}
    for scheme in Scheme:
        for seed in (0, 1, 2):
            out[f"baseline/{scheme.value}/s{seed}"] = with_updates(base, seed=seed, scheme=scheme)
    # 128 vehicles at the baseline density: each run keeps a Verlet neighbour list
    fleet = scenario_from_dict(
        _variant(raw, mobility={"vehicle_count": 128, "arena_width": 2336.0, "arena_height": 2336.0})
    )
    for scheme in (Scheme.SECOND_PROPOSAL, Scheme.PACKET_PURSE):
        out[f"fleet128/{scheme.value}/s0"] = with_updates(fleet, seed=0, scheme=scheme)
    # 300 vehicles in the baseline arena: ~20x the density, so the Verlet
    # list holds thousands of pairs and rebuilds every few ticks
    dense = scenario_from_dict(
        _variant(raw, mobility={"vehicle_count": 300}, engine={"duration": 60.0})
    )
    out["dense300/second_proposal/s0"] = with_updates(dense, seed=0)
    # the deadline falls between ticks, so settlement fires mid-run
    early = scenario_from_dict(_variant(raw, packet={"deadline": 150.5}))
    out["deadline150.5/second_proposal/s0"] = with_updates(early, seed=0)
    delivery = scenario_from_dict(_variant(raw, engine={"settle_on_delivery": True}))
    for seed in (0, 1):
        out[f"settle_on_delivery/second_proposal/s{seed}"] = with_updates(delivery, seed=seed)
    # an explicit destination without delivery settlement: delivery is recorded, routing goes on
    destination = scenario_from_dict(_variant(raw, engine={"destination_id": 5}))
    for seed in (0, 1):
        out[f"destination/second_proposal/s{seed}"] = with_updates(destination, seed=seed)
    fractional = scenario_from_dict(_variant(raw, mobility={"tick_seconds": 0.1}))
    for scheme in (Scheme.SECOND_PROPOSAL, Scheme.PACKET_PURSE):
        out[f"tick0.1/{scheme.value}/s0"] = with_updates(fractional, seed=0, scheme=scheme)
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_aggregate_digest() -> str:
    """sha256 of the aggregate.json that a baseline sweep over seeds 0-4 writes."""
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
        rc = cli.main(["sweep", "--scenario", str(BASELINE_YAML), "--seeds", "0-4", "--out", out])
        if rc != 0:
            raise RuntimeError(f"vanetsim sweep exited {rc}")
        return hashlib.sha256((Path(out) / "aggregate.json").read_bytes()).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    """Case id -> {"summary.json": sha256, "rows.csv": sha256}, plus the sweep aggregate."""
    out = {}
    for case, scenario in cases().items():
        result = run(scenario.mobility, scenario.engine, scenario.incentives, scenario.packet, scenario.seed)
        summary = build_summary(result, scenario_hash(scenario))
        out[case] = {"summary.json": _sha256(summary_to_json(summary)), "rows.csv": _sha256(rows_to_csv(summary.rows))}
    out["sweep/baseline/s0-4"] = {"aggregate.json": sweep_aggregate_digest()}
    return out


def main() -> int:
    DIGEST_FILE.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
