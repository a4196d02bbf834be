"""Per-run reporting: node-level rows, trend bins, and file exports.

A run collapses to one RunSummary with three parts: the run identity
(scenario hash, scheme, seed, totals), one row per reward-eligible
vehicle (every tree member except the root), and aggregate statistics
(mean reward binned by stored time / forward count / distance, plus the
reward-vs-descendants rank correlation). Exports are deterministic
byte-for-byte for a given summary: JSON is written with sorted keys, CSV
with a fixed header, LF newlines, "." decimals, and repr floats.
``summary.json`` holds the bytes of ``json.dumps(to_dict(), sort_keys=True,
indent=2)``, its rows written by the C encoder in one call.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .engine import RunResult
from .incentives import effective_distance
from .model import ValidationError
from .routing import descendant_counts

SCHEMA_VERSION = 1

# bin key -> (row attribute, default bin width)
BIN_KEYS: dict[str, tuple[str, float]] = {
    "time": ("stored_time", 10.0),
    "forwards": ("forward_count", 1.0),
    "distance": ("effective_distance", 50.0),
}


@dataclass(frozen=True)
class NodeRow:
    """One reward-eligible vehicle's outcome in one run."""

    vehicle_id: int
    reward: float
    contribution: float
    stored_time: float
    forward_count: int
    effective_distance: float
    receive_distance: float
    descendants: int
    depth: int


# the CSV header and every exported row's keys, in declaration order
ROW_FIELDS = tuple(f.name for f in fields(NodeRow))
# the type each CSV column is read back as
_ROW_TYPES = get_type_hints(NodeRow)


@dataclass(frozen=True)
class RunSummary:
    """Everything exported about one run; identity and totals live in ``scenario``."""

    scenario: dict
    rows: tuple[NodeRow, ...]
    aggregates: dict
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": dict(self.scenario),
            "rows": [{name: getattr(r, name) for name in ROW_FIELDS} for r in self.rows],
            "aggregates": self.aggregates,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunSummary":
        return cls(
            scenario=d["scenario"],
            rows=tuple(NodeRow(**r) for r in d["rows"]),
            aggregates=d["aggregates"],
            schema_version=d["schema_version"],
        )


def bin_rewards(
    rows: list[NodeRow] | tuple[NodeRow, ...],
    key: str,
    bin_width: float | None = None,
) -> list[tuple[float, float, int]]:
    """Mean reward per occupied bin of ``key``, ascending by bin start.

    Keys: "time" (stored seconds, default 10 s bins), "forwards" (default
    width 1), "distance" (effective metres, default 50 m bins). Returns
    (bin_start, mean_reward, count) triples; empty bins are omitted.
    """
    if key not in BIN_KEYS:
        raise ValidationError(f"bin key must be one of {sorted(BIN_KEYS)}")
    attr, default_width = BIN_KEYS[key]
    width = default_width if bin_width is None else bin_width
    if width <= 0:
        raise ValidationError("bin width must be positive")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for row in rows:
        idx = int(math.floor(getattr(row, attr) / width))
        sums[idx] = sums.get(idx, 0.0) + row.reward
        counts[idx] = counts.get(idx, 0) + 1
    return [
        (idx * width, sums[idx] / counts[idx], counts[idx]) for idx in sorted(sums)
    ]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    edges = np.r_[np.flatnonzero(starts), len(values)]
    group = np.cumsum(starts) - 1
    ranks = np.empty(len(values))
    ranks[order] = 0.5 * (edges[group] + edges[group + 1] + 1)
    return ranks


def spearman(a, b) -> float | None:
    """Spearman's rank correlation (average ranks for ties), as scipy computes it.

    None when undefined: fewer than two values, a constant input, or NaN.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if len(a) < 2 or np.isnan(a).any() or np.isnan(b).any():
        return None
    if (a == a[0]).all() or (b == b[0]).all():
        return None
    rho = np.corrcoef(np.column_stack((_average_ranks(a), _average_ranks(b))), rowvar=False)[1, 0]
    return None if math.isnan(rho) else float(rho)


def reward_vs_descendants(rows: list[NodeRow] | tuple[NodeRow, ...]) -> float | None:
    """The Spearman rank correlation of the rows' descendants and rewards.

    None when it is undefined: fewer than two rows or either variable
    constant.
    """
    return spearman([row.descendants for row in rows], [row.reward for row in rows])


def build_summary(result: RunResult, scenario_hash: str) -> RunSummary:
    """Flatten a finished run into its reportable summary; the run's own config scores distances."""
    tree = result.tree
    aggregate = result.incentives.distance_aggregate
    desc = descendant_counts(tree)
    rows = []
    for rec in result.records:
        vid = rec.vehicle_id
        rows.append(
            NodeRow(
                vehicle_id=vid,
                reward=result.report.shares.get(vid, 0.0),
                contribution=rec.contribution,
                stored_time=rec.stored_time,
                forward_count=rec.forward_count,
                effective_distance=effective_distance(
                    rec.relay_distances, rec.receive_distance, aggregate
                ),
                receive_distance=rec.receive_distance,
                descendants=desc[vid],
                depth=tree.depth[vid],
            )
        )
    rows_t = tuple(rows)
    aggregates = {
        "reward_by_time": [list(b) for b in bin_rewards(rows_t, "time")],
        "reward_by_forwards": [list(b) for b in bin_rewards(rows_t, "forwards")],
        "reward_by_distance": [list(b) for b in bin_rewards(rows_t, "distance")],
        "spearman_reward_descendants": reward_vs_descendants(rows_t),
        "total_reward": math.fsum(r.reward for r in rows_t),
    }
    identity = {
        "scenario_hash": scenario_hash,
        "scheme": result.incentives.scheme.value,
        "seed": result.seed,
        "source_id": result.source_id,
        "destination_id": result.destination_id,
        "delivered": result.delivered,
        "settle_time": result.settle_time,
        "reward_budget": result.packet.reward_budget,
        "total_paid": result.report.total_paid,
        "overspend": result.report.overspend,
        "shortfall": result.report.shortfall,
        "paid_link_count": result.report.paid_link_count,
        "tree_size": len(tree.depth),
        "link_count": len(tree.links),
        "contact_events": result.contact_events,
    }
    return RunSummary(scenario=identity, rows=rows_t, aggregates=aggregates)


# Rows go through the C encoder, which runs only without ``indent``. Its item
# separator puts each field on its own line at the rows' depth; the braces are
# re-indented after, which is safe because rows hold numbers alone.
_ROWS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def summary_to_json(summary: RunSummary) -> str:
    """The summary as ``json.dumps(summary.to_dict(), sort_keys=True, indent=2)`` plus "\\n"."""
    rows = _ROWS_ENCODER.encode([r.__dict__ for r in summary.rows])
    if summary.rows:  # "[{", "},\n      {" and "}]" take the indent=2 layout
        rows = "[\n    {\n      " + rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]"
    doc = json.dumps(
        {"schema_version": summary.schema_version, "scenario": summary.scenario, "rows": [],
         "aggregates": summary.aggregates},
        sort_keys=True, indent=2,
    )
    # a line with two spaces of indent holds a top-level key, so this is the rows key
    head, tail = doc.split('\n  "rows": []', 1)
    return f'{head}\n  "rows": {rows}{tail}\n'


def write_summary_json(summary: RunSummary, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(summary_to_json(summary), encoding="utf-8", newline="\n")
    return path


def load_summary_json(path: str | Path) -> RunSummary:
    with open(path, encoding="utf-8") as fh:
        return RunSummary.from_dict(json.load(fh))


def rows_to_csv(rows: list[NodeRow] | tuple[NodeRow, ...]) -> str:
    """Node rows as CSV text: fixed header, LF newlines, repr floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    for row in rows:
        writer.writerow([repr(getattr(row, f)) for f in ROW_FIELDS])
    return buf.getvalue()


def write_rows_csv(
    rows: list[NodeRow] | tuple[NodeRow, ...], path: str | Path
) -> Path:
    path = Path(path)
    path.write_text(rows_to_csv(rows), encoding="utf-8", newline="\n")
    return path


def load_rows_csv(path: str | Path) -> list[NodeRow]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            NodeRow(**{name: _ROW_TYPES[name](raw[name]) for name in ROW_FIELDS})
            for raw in csv.DictReader(fh)
        ]
