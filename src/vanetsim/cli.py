"""Command-line front end.

Three subcommands:

* ``run``      one scenario, one seed, write the summary artifacts
* ``sweep``    the same scenario across a set of seeds, plus an aggregate
* ``validate`` parse and validate a scenario file, reporting all problems

Exit codes: 0 on success, 1 when a scenario or argument fails
validation, 2 on unexpected runtime failure. The output directory falls
back to $VANETSIM_OUT_DIR, then ./out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from .engine import run as run_engine
from .metrics import RunSummary, build_summary, write_rows_csv, write_summary_json
from .model import Scheme, ValidationError
from .scenario import Scenario, load_scenario, scenario_hash, with_updates

FORMATS = ("json", "csv")
# summary identity keys copied into each aggregate.json per-seed entry
PER_SEED_KEYS = (
    "seed", "total_paid", "tree_size", "link_count", "delivered", "shortfall", "settle_time"
)


def parse_seeds(spec: str) -> list[int]:
    """Expand a seed spec like ``0-4,10,12`` into an ordered list."""
    seeds: list[int] = []
    seen: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        try:
            if sep:
                start, stop = int(lo), int(hi)
            else:
                start = stop = int(lo)
        except ValueError:
            raise ValidationError(f"bad seed spec element: {part!r}")
        if start < 0 or stop < start:
            raise ValidationError(f"bad seed range: {part!r}")
        for s in range(start, stop + 1):
            if s not in seen:
                seen.add(s)
                seeds.append(s)
    if not seeds:
        raise ValidationError("seed spec is empty")
    return seeds


def _load(args: argparse.Namespace) -> Scenario:
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = Scenario()
    scheme = Scheme(args.scheme) if getattr(args, "scheme", None) else None
    seed = getattr(args, "seed", None)
    if scheme is not None or seed is not None:
        scenario = with_updates(scenario, seed=seed, scheme=scheme)
    return scenario


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("VANETSIM_OUT_DIR")
    return Path(env) if env else Path("out")


def _execute(scenario: Scenario, seed: int, digest: str) -> RunSummary:
    """Run ``scenario`` at ``seed``; ``digest`` is its hash, which leaves the seed out."""
    result = run_engine(
        scenario.mobility, scenario.engine, scenario.incentives, scenario.packet, seed
    )
    return build_summary(result, digest)


def _write_artifacts(summary: RunSummary, out_dir: Path, fmt: str, stem: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        return write_summary_json(summary, out_dir / f"{stem}.summary.json")
    return write_rows_csv(summary.rows, out_dir / f"{stem}.rows.csv")


def _one_line(summary: RunSummary, path: Path) -> str:
    s = summary.scenario
    delivered = "-" if s["delivered"] is None else str(s["delivered"]).lower()
    return (
        f"run scheme={s['scheme']} seed={s['seed']}"
        f" source={s['source_id']} tree={s['tree_size']}"
        f" links={s['link_count']} paid={s['total_paid']:.6g}"
        f"/{s['reward_budget']:.6g} delivered={delivered}"
        f" settle_t={s['settle_time']:.6g} -> {path}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args)
    summary = _execute(scenario, scenario.seed, scenario_hash(scenario))
    path = _write_artifacts(summary, _out_dir(args), args.format, scenario.name)
    print(_one_line(summary, path))
    return 0


def _mean_std(values: list[float]) -> dict:
    if not values:
        return {"mean": None, "stddev": None, "n": 0}
    mean = statistics.fmean(values)
    stddev = statistics.stdev(values) if len(values) > 1 else 0.0
    return {"mean": mean, "stddev": stddev, "n": len(values)}


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args)
    seeds = parse_seeds(args.seeds)
    out_dir = _out_dir(args)
    digest = scenario_hash(scenario)
    per_seed = []
    for seed in seeds:
        summary = _execute(scenario, seed, digest)
        path = _write_artifacts(summary, out_dir / f"run-s{seed}", args.format, scenario.name)
        print(_one_line(summary, path))
        entry = {key: summary.scenario[key] for key in PER_SEED_KEYS}
        entry["spearman_reward_descendants"] = summary.aggregates["spearman_reward_descendants"]
        per_seed.append(entry)
    runs = len(per_seed)
    delivered_flags = [p["delivered"] for p in per_seed if p["delivered"] is not None]
    rhos = [
        p["spearman_reward_descendants"]
        for p in per_seed
        if p["spearman_reward_descendants"] is not None
    ]
    aggregate = {
        "scenario": scenario.name,
        "scenario_hash": digest,
        "scheme": scenario.incentives.scheme.value,
        "runs": runs,
        "seeds": seeds,
        "stats": {
            "total_paid": _mean_std([p["total_paid"] for p in per_seed]),
            "tree_size": _mean_std([float(p["tree_size"]) for p in per_seed]),
            "link_count": _mean_std([float(p["link_count"]) for p in per_seed]),
            "spearman_reward_descendants": _mean_std(rhos),
        },
        "delivered_rate": (
            sum(delivered_flags) / len(delivered_flags) if delivered_flags else None
        ),
        "per_seed": per_seed,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    agg_path = out_dir / "aggregate.json"
    agg_path.write_text(
        json.dumps(aggregate, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    mean_paid = aggregate["stats"]["total_paid"]["mean"]
    print(f"sweep runs={runs} mean_paid={mean_paid:.6g} -> {agg_path}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(f"OK {args.scenario}: scenario {scenario.name!r} is valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetsim",
        description="Store-carry-forward packet simulation with credit settlement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scheme_choices = [s.value for s in Scheme]

    p_run = sub.add_parser("run", help="simulate one scenario at one seed")
    p_run.add_argument("--scenario", help="scenario YAML file (defaults are used if omitted)")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--scheme", choices=scheme_choices, help="override the incentive scheme")
    p_run.add_argument("--out", help="output directory (default: $VANETSIM_OUT_DIR or ./out)")
    p_run.add_argument("--format", choices=FORMATS, default="json")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="simulate one scenario across many seeds")
    p_sweep.add_argument("--scenario", help="scenario YAML file (defaults are used if omitted)")
    p_sweep.add_argument("--seeds", required=True, help="seed list/ranges, e.g. 0-99 or 1,2,5")
    p_sweep.add_argument("--scheme", choices=scheme_choices, help="override the incentive scheme")
    p_sweep.add_argument("--out", help="output directory (default: $VANETSIM_OUT_DIR or ./out)")
    p_sweep.add_argument("--format", choices=FORMATS, default="json")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True, help="scenario YAML file")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
