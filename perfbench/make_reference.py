"""Regenerate ``reference.json``: output digests and counts for every seed window.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload's sweep once per seed window through
``vanetsim.cli.main``, in this process, and records the digests the
benchmark compares against. Run it only at a commit whose outputs are
known to be right; a change that is meant to keep outputs must not
regenerate it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

from workloads import WINDOWS, WORKLOADS, collect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import vanetsim.cli as cli
    from child import write_rows

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    work = ROOT / ".perfbench" / "reference"
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        scenario = workload.write_scenario(work / "scenario.yaml")
        windows = {}
        for window in range(WINDOWS):
            seeds = workload.seeds(window)
            cli_out = work / f"w{window}"
            argv = ["sweep", "--scenario", str(scenario), "--seeds", f"{seeds[0]}-{seeds[-1]}", "--out", str(cli_out)]
            with open(work / "cli.log", "a", encoding="utf-8") as log, redirect_stdout(log):
                rc = cli.main(argv)
            if rc != 0:
                print(f"error: {name} window {window}: vanetsim exited {rc}", file=sys.stderr)
                return 1
            write_rows(cli_out)
            got = collect(cli_out, workload.scenario_name, seeds)
            if not all(got["budget_ok"].values()):
                print(f"error: {name} window {window}: a run over-spends its budget", file=sys.stderr)
                return 1
            windows[str(window)] = {k: got[k] for k in ("aggregate", "counts", "runs")}
            print(f"{name} window {window}: seeds {seeds[0]}-{seeds[-1]} {got['counts']}")
        reference[name] = windows
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
