"""End-to-end and per-layer benchmark of the vanetsim CLI.

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from anywhere; the package is taken from ``src/`` of this checkout.
Each rep is one fresh interpreter (``child.py``) that imports the
package, loads the workload's generated scenario and calls
``vanetsim.cli.main(["sweep", ...])`` once. Reps repeat, one after
another in a closed loop with one client, until ``--seconds`` are used.

``--trace 0`` reports the end-to-end metrics of untraced reps. Other
tenants of a shared host slow it down for seconds to minutes at a time,
which moves plain medians by a third between runs, so the timings that
are compared across runs are scaled to a reference host speed: each run
is split at its tick marks into ``BLOCKS`` equal parts, and each part's
seconds are divided by the time of the calibration (``calibration.py``)
run nearest to it, then multiplied by the calibration's
``REFERENCE_S``. Plain timings are printed and recorded too.
``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics of the traced ones (see ``spans.py``), plus the traced
over untraced wall time. Every run's ``summary.json`` and ``rows.csv``
and the sweep's ``aggregate.json`` are hashed and compared with
``reference.json``; a mismatch, an over-spent budget or a failed call
counts the run as failed. The last line of standard output is the
result as one JSON object; the full record, with the environment and
every rep, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from importlib.util import find_spec
from pathlib import Path

import numpy as np

import spans
from calibration import REFERENCE_S
from workloads import TICKS, WINDOWS, WORKLOADS, Workload, collect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

BUDGET_S = 170.0  # one invocation must end within 180 s
MIN_REPS = 3  # untraced reps per --trace 0 run, for a median
P90_MIN_RUNS = 100  # p90 needs >= 10 samples beyond it in every rep
BLOCKS = 10  # parts of a run, each scaled by its nearest calibration

END_TO_END = {
    "setup_s": "s",
    "run_s_ref": "s",
    "vehicle_ticks_per_s_ref": "1/s",
    "peak_rss_mb": "MB",
}
# printed and recorded, not compared across runs: they move with the host
NOTES = {"wall_s": "s", "vehicle_ticks_per_s": "1/s", "run_s_p50": "s", "run_s_p90": "s", "calibration_s": "s"}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.import_scipy_stats_s": "s",
    "setup.scenario_load_s": "s",
    "mobility.step_calls": "count",
    "mobility.step_s": "s",
    "mobility.step_us_per_call": "us",
    "kernels.contact_calls": "count",
    "kernels.contact_s": "s",
    "kernels.contact_us_per_call": "us",
    "kernels.pairs_returned": "count",
    "engine.run_calls": "count",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "routing.encounter_calls": "count",
    "routing.encounter_s": "s",
    "routing.handoffs": "count",
    "routing.handoff_ratio": "ratio",
    "routing.tree_nodes": "count",
    "settlement.calls": "count",
    "settlement.s": "s",
    "metrics.summary_calls": "count",
    "metrics.summary_s": "s",
    "metrics.descendants_s": "s",
    "metrics.path_from_root_calls": "count",
    "metrics.path_from_root_s": "s",
    "metrics.spearman_s": "s",
    "metrics.export_calls": "count",
    "metrics.export_s": "s",
    "metrics.export_bytes": "B",
    "scenario.hash_calls": "count",
    "scenario.hash_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def prepare() -> None:
    """Compile the package and warm the file cache, untimed, as an installed copy would be."""
    for cmd in (
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        [sys.executable, "-c", "import vanetsim.cli"],
    ):
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=60)


def import_times(stderr: str) -> tuple[float, float]:
    """Seconds to import the package, and scipy.stats within it, from ``-X importtime``."""
    package = stats = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported package" in line:
            continue
        cumulative = int(parts[1]) / 1e6
        field = parts[2]
        name = field.strip()
        top_level = len(field) - len(field.lstrip()) == 1
        if top_level and (name == "vanetsim" or name.startswith("vanetsim.")):
            package += cumulative
        if name == "scipy.stats" and not stats:
            stats = cumulative
    return package, stats


def run_rep(workload: Workload, scenario: Path, seeds: list[int], k: int, traced: bool, timeout: float) -> dict:
    out = WORK / workload.name / f"rep{k}"
    cli_out = out / "cli"
    out.mkdir(parents=True)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(HERE / "child.py"),
           str(scenario), str(int(traced)), str(out),
           "sweep", "--scenario", str(scenario), "--seeds", f"{seeds[0]}-{seeds[-1]}", "--out", str(cli_out)]
    rep: dict = {"traced": traced}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["error"] = f"rep timed out after {timeout:.0f} s"
        return rep
    finally:
        rep["duration_s"] = time.perf_counter() - t_spawn
    result_file = out / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        rep["error"] = f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return rep
    res = json.loads(result_file.read_text(encoding="utf-8"))
    rep["use_numba"] = res["use_numba"]
    rep["unwrapped"] = res["unwrapped"]
    if not Path(res["package"]).resolve().is_relative_to(SRC):
        rep["error"] = f"benchmarked {res['package']}, not the package under {SRC}"
        return rep
    if res["rc"] != 0:
        rep["error"] = f"vanetsim.cli.main returned {res['rc']} ({res['error']}): {proc.stderr.strip()[-2000:]}"
        return rep
    gone = [name for name in res["unwrapped"] if name.rsplit(".", 1)[-1] in spans.RUN_BOUNDARY]
    if gone:
        rep["error"] = f"cannot time runs without {', '.join(gone)}"
        return rep
    recorded = spans.load(out / "spans.npz")
    totals = spans.totals(recorded)
    run_s = spans.run_seconds(recorded)
    if sorted(run_s) != seeds:
        rep["error"] = f"runs timed for seeds {sorted(run_s)}, expected {seeds}"
        return rep
    calibrations = recorded["cals"][:, 1] / 1e9
    if not traced:
        try:
            net, speed = spans.run_blocks(recorded, seeds, TICKS, BLOCKS)
        except ValueError as exc:
            rep["error"] = f"cannot time ticks: {exc}"
            return rep
        run_s = dict(zip(seeds, net.sum(axis=1).tolist()))
        rep["run_s_ref"] = (net / speed).sum(axis=1) * REFERENCE_S
        rep["calibration_s"] = float(np.median(calibrations))
    rep.update(
        setup_s=res["t_ready"] - t_spawn,
        scenario_load_s=res["t_ready"] - res["t_imported"],
        wall_s=res["t_done"] - res["t_main"] - calibrations.sum(),
        run_s=[run_s[s] for s in seeds],
        vehicle_ticks=workload.vehicle_ticks(len(seeds)),
        peak_rss_mb=res["maxrss_kb"] / 1024,
        outputs=collect(cli_out, workload.scenario_name, seeds),
    )
    if traced:
        rep["totals"] = totals
        rep["import_s"], rep["import_scipy_stats_s"] = import_times(proc.stderr)
    shutil.rmtree(cli_out, ignore_errors=True)
    return rep


def measure(workload: Workload, scenario: Path, seeds: list[int], seconds: float, trace: bool, budget_end: float) -> list[dict]:
    """Closed loop of reps until ``seconds`` are used; with trace, untraced and traced alternate."""
    reps: list[dict] = []
    t0 = time.perf_counter()
    for k, traced in enumerate(itertools.cycle((False, True) if trace else (False,))):
        done = [r for r in reps if "wall_s" in r]
        have = {kind: sum(r["traced"] is kind for r in done) for kind in (False, True)}
        enough = have[False] >= 1 and have[True] >= 1 if trace else have[False] >= MIN_REPS
        same_kind = [r["duration_s"] for r in reps if r["traced"] is traced]
        estimate = same_kind[-1] if same_kind else max((r["duration_s"] for r in reps), default=0.0)
        now = time.perf_counter()
        if enough and now - t0 + estimate > seconds:
            break
        if budget_end - now < 1.5 * estimate + 2:
            break
        rep = run_rep(workload, scenario, seeds, k, traced, timeout=budget_end - now)
        reps.append(rep)
        if "error" in rep:
            break
    return reps


def check(reps: list[dict], expected: dict | None, seeds: list[int]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all reps' simulation runs."""
    problems: list[str] = []
    attempted = failed = 0
    first_counts = first_encounters = None
    for k, rep in enumerate(reps):
        attempted += len(seeds)
        got = rep.get("outputs")
        if "error" in rep:
            problems.append(f"rep {k}: {rep['error']}")
        if got is None or "error" in rep or expected is None:
            failed += len(seeds)
            continue
        bad = {str(s) for s in seeds if got["runs"][str(s)] != expected["runs"][str(s)] or not got["budget_ok"][str(s)]}
        if got["aggregate"] != expected["aggregate"]:
            problems.append(f"rep {k}: aggregate.json differs from the reference")
            bad = {str(s) for s in seeds}
        if bad:
            listed = ", ".join(sorted(bad, key=int)[:10]) + (", ..." if len(bad) > 10 else "")
            problems.append(f"rep {k}: {len(bad)} runs differ from the reference or over-spend their budget (seeds {listed})")
        failed += len(bad)
        counts = dict(got["counts"])
        if counts != expected["counts"]:
            problems.append(f"rep {k}: simulated counts {counts} differ from the reference {expected['counts']}")
        if "totals" in rep:
            t = rep["totals"]
            traced_counts = {
                "contact_events": t.get("kernels.contact_pairs", {}).get("value"),
                "link_count": t.get("routing.handle_encounter", {}).get("value"),
            }
            if any(traced_counts[key] != counts[key] for key in traced_counts):
                problems.append(f"rep {k}: traced counts {traced_counts} differ from the run's own summaries {counts}")
            encounters = t.get("routing.handle_encounter", {}).get("calls")
            if first_encounters is None:
                first_encounters = encounters
            elif encounters != first_encounters:
                problems.append(f"rep {k}: {encounters} encounter calls, the first traced rep made {first_encounters}")
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            problems.append(f"rep {k}: simulated counts {counts} differ from rep 0 {first_counts}")
    if expected is None:
        problems.append("no reference digests for this seed window")
    return attempted, failed, problems


def end_to_end(untraced: list[dict]) -> tuple[dict, dict]:
    """Metrics over untraced reps, plus notes that are printed but not part of the result."""
    pooled = sorted(s for r in untraced for s in r["run_s"])
    run_s_ref = float(np.median(np.concatenate([r["run_s_ref"] for r in untraced])))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "run_s_ref": run_s_ref,
        "vehicle_ticks_per_s_ref": untraced[0]["vehicle_ticks"] / len(untraced[0]["run_s"]) / run_s_ref,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    notes = {
        "reps": len(untraced),
        "runs_timed": len(pooled),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "vehicle_ticks_per_s": statistics.median(r["vehicle_ticks"] / r["wall_s"] for r in untraced),
        "run_s_p50": statistics.median(pooled),
        "calibration_s": statistics.median(r["calibration_s"] for r in untraced),
    }
    if min(len(r["run_s"]) for r in untraced) >= P90_MIN_RUNS:
        notes["run_s_p90"] = statistics.quantiles(pooled, n=10)[-1]
    return metrics, notes


def layers(rep: dict) -> dict:
    """Per-layer metrics of one traced rep; ``_s`` is self time except ``engine.run_s``."""
    t = rep["totals"]

    def get(name: str, key: str):
        return t.get(name, {}).get(key, 0)

    def us_per_call(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "self_s") / calls * 1e6 if calls else 0.0

    encounters = get("routing.handle_encounter", "calls")
    return {
        "setup.import_s": rep["import_s"],
        "setup.import_scipy_stats_s": rep["import_scipy_stats_s"],
        "setup.scenario_load_s": rep["scenario_load_s"],
        "mobility.step_calls": get("mobility.step", "calls"),
        "mobility.step_s": get("mobility.step", "self_s"),
        "mobility.step_us_per_call": us_per_call("mobility.step"),
        "kernels.contact_calls": get("kernels.contact_pairs", "calls"),
        "kernels.contact_s": get("kernels.contact_pairs", "self_s"),
        "kernels.contact_us_per_call": us_per_call("kernels.contact_pairs"),
        "kernels.pairs_returned": get("kernels.contact_pairs", "value"),
        "engine.run_calls": get("engine.run", "calls"),
        "engine.run_s": get("engine.run", "s"),
        "engine.self_s": get("engine.run", "self_s"),
        "routing.encounter_calls": encounters,
        "routing.encounter_s": get("routing.handle_encounter", "self_s"),
        "routing.handoffs": get("routing.handle_encounter", "value"),
        "routing.handoff_ratio": get("routing.handle_encounter", "value") / encounters if encounters else 0.0,
        "routing.tree_nodes": rep["outputs"]["counts"]["tree_nodes"],
        "settlement.calls": get("settlement.settle", "calls"),
        "settlement.s": sum(v["self_s"] for n, v in t.items() if n.startswith("settlement.")),
        "metrics.summary_calls": get("metrics.build_summary", "calls"),
        "metrics.summary_s": get("metrics.build_summary", "self_s"),
        "metrics.descendants_s": get("metrics.descendant_counts", "self_s"),
        "metrics.path_from_root_calls": get("metrics.path_from_root", "calls"),
        "metrics.path_from_root_s": get("metrics.path_from_root", "self_s"),
        "metrics.spearman_s": get("metrics.reward_vs_descendants", "self_s"),
        "metrics.export_calls": get("metrics.export", "calls"),
        "metrics.export_s": get("metrics.export", "self_s"),
        "metrics.export_bytes": get("metrics.export", "value"),
        "scenario.hash_calls": get("scenario.hash", "calls"),
        "scenario.hash_s": get("scenario.hash", "self_s"),
        "cli.self_s": get("cli.main", "self_s"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    each = [layers(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in each) for name in each[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in untraced)
    )
    return metrics


def environment(use_numba) -> dict:
    def pkg_version(name: str) -> str | None:
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": pkg_version("numpy"),
        "scipy": pkg_version("scipy"),
        "numba_importable": find_spec("numba") is not None,
        "use_numba": use_numba,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def bench(workload: Workload, bench_seed: int, seconds: float, trace: bool) -> dict | None:
    """Measure one workload; None when no rep produced timings."""
    budget_end = time.perf_counter() + BUDGET_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = workload.write_scenario(work / "scenario.yaml")
    seeds = workload.seeds(bench_seed)
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name].get(str(bench_seed % WINDOWS))
    prepare()
    reps = measure(workload, scenario, seeds, seconds, trace, budget_end)
    attempted, failed, problems = check(reps, expected, seeds)
    timed = [r for r in reps if "wall_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    if not untraced or (trace and not traced):
        return None
    e2e, notes = end_to_end(untraced)
    record = {
        "workload": workload.name,
        "bench_seed": bench_seed,
        "simulation_seeds": seeds,
        "seconds": seconds,
        "environment": environment(timed[0]["use_numba"]),
        "end_to_end": e2e,
        "notes": notes,
        "per_layer": per_layer(traced, untraced) if trace else None,
        "counts": untraced[0]["outputs"]["counts"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "unwrapped": timed[0]["unwrapped"],
        "reps": [{k: v for k, v in r.items() if k not in ("outputs", "run_s_ref")} for r in reps],
        "spans": [str(WORK / workload.name / f"rep{k}" / "spans.npz") for k in range(len(reps))],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{bench_seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


def show(record: dict) -> None:
    e2e, notes = record["end_to_end"], record["notes"]
    print(f"{record['workload']}: seeds {record['simulation_seeds'][0]}-{record['simulation_seeds'][-1]},"
          f" {notes['reps']} untraced reps")
    for name, unit in END_TO_END.items():
        print(f"  {name:<28} {e2e[name]:.6g} {unit}")
    for name, unit in NOTES.items():
        if name in notes:
            extra = f"  ({notes['runs_timed']} runs)" if name.startswith("run_s") else ""
            print(f"  {name:<28} {notes[name]:.6g} {unit}{extra}")
    print(f"  {'fail_ratio':<28} {record['fail_ratio']:.6g}  ({record['failed']}/{record['attempted']} runs)")
    print(f"  counts {record['counts']}")
    if record["per_layer"]:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {record['per_layer'][name]:.6g} {unit}")
    if record["unwrapped"]:
        print(f"  not traced (attribute gone): {', '.join(record['unwrapped'])}")


def result_line(record: dict, trace: bool) -> str:
    units = PER_LAYER if trace else END_TO_END
    values = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="picks the window of simulation seeds")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload and trace mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vanetsim" / "cli.py").is_file():
        print(f"error: no vanetsim package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    if args.workload != "all":
        record = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        if record is None:
            print("error: no rep finished; nothing to report", file=sys.stderr)
            return 1
        show(record)
        print(result_line(record, bool(args.trace)))
        return 0

    report = {}
    for workload in WORKLOADS.values():
        plain = bench(workload, args.seed, args.seconds, trace=False)
        traced = bench(workload, args.seed, args.seconds, trace=True)
        if plain is None or traced is None:
            print(f"error: {workload.name}: no rep finished", file=sys.stderr)
            return 1
        plain["per_layer"] = traced["per_layer"]
        for key in ("attempted", "failed", "problems"):
            plain[key] += traced[key]
        plain["fail_ratio"] = plain["failed"] / plain["attempted"]
        plain["unwrapped"] = traced["unwrapped"]
        show(plain)
        report[workload.name] = plain
    path = WORK / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"report: {path}")
    return 0 if all(r["failed"] == 0 and not r["problems"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
