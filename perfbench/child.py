"""One benchmark rep in a fresh interpreter.

    python child.py SCENARIO TRACED OUT_DIR CLI_ARG...

Sets up as a user's process does (``import vanetsim.cli``, then
``load_scenario``), runs ``vanetsim.cli.main(CLI_ARG...)`` once, and
writes ``result.json`` (clock readings, exit code, peak RSS without the
calibration's buffers) and ``spans.npz`` to OUT_DIR. Afterwards, untimed,
it writes a ``rows.csv`` next to every ``summary.json`` the CLI wrote,
with the package's own CSV writer, so that both export formats are
checked.

Clock readings are ``time.perf_counter()``, a system-wide monotonic clock
on Linux, so the parent can subtract its own reading taken at spawn.
Only modules the interpreter has already loaded are imported before the
set-up is timed.
"""

import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    ``ru_maxrss`` is not used: exec keeps the high-water mark of the
    parent's memory, so a child of a large parent reads large.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def write_rows(cli_out) -> None:
    from vanetsim.metrics import load_summary_json, write_rows_csv

    for path in sorted(cli_out.glob("run-s*/*.summary.json")):
        stem = path.name[: -len(".summary.json")]
        write_rows_csv(load_summary_json(path).rows, path.with_name(f"{stem}.rows.csv"))


def main() -> int:
    scenario, traced, out_dir, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]

    import vanetsim.cli as cli
    from vanetsim.scenario import load_scenario

    t_imported = time.perf_counter()
    load_scenario(scenario)
    t_ready = time.perf_counter()

    import json
    from pathlib import Path

    import spans
    from calibration import PERIOD_NS, Calibration

    out = Path(out_dir)
    extra = {"bookkeeping_ns": spans.bookkeeping_ns()} if traced else {}
    calibrate = None if traced else Calibration()
    recorder = spans.Recorder()
    spans.install(recorder, traced, calibrate, PERIOD_NS)
    error = None
    t_main = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except (Exception, SystemExit) as exc:  # reported as a failed rep
        rc, error = None, repr(exc)
    t_done = time.perf_counter()
    maxrss_kb = peak_rss_kb() - (calibrate.nbytes // 1024 if calibrate else 0)

    recorder.save(out / "spans.npz", **extra)
    write_rows(Path(cli_args[cli_args.index("--out") + 1]))
    from vanetsim import kernels

    result = {
        "rc": rc,
        "error": error,
        "t_imported": t_imported,
        "t_ready": t_ready,
        "t_main": t_main,
        "t_done": t_done,
        "maxrss_kb": maxrss_kb,
        "use_numba": getattr(kernels, "USE_NUMBA", None),
        "package": cli.__file__,
        "unwrapped": recorder.missing,
    }
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
