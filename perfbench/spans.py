"""Spans recorded around the package's layer boundaries, and what they add up to.

The recorder wraps module attributes from outside, so the package source
stays untouched. Every call through a wrapper becomes one span: name,
start and end (``perf_counter_ns``), the index of the enclosing span, the
id of the simulation run it belongs to (its seed, or -1 outside a run)
and one count measured at the boundary (pairs returned, handoffs, bytes
written). Spans are kept in one typed array in memory and written out once,
when the process ends. Untraced reps record no layer spans, only the run
boundaries and the start of every mobility step, the tick marker, before
which they run the host-speed calibration when it is due.

A span's self time is its duration minus the durations of its direct
children. The wrappers' own bookkeeping for a child falls into its
parent's span; it is measured once per process (``bookkeeping_ns``) and
taken off the parent's self time. ``trace.overhead_ratio`` reports how
much tracing costs in all.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter_ns

NO_RUN = -1
NO_PARENT = -1


def _seed_arg(args, kwargs):
    return kwargs["seed"] if "seed" in kwargs else args[4]


def _pair_count(result) -> int:
    return len(result[0])


def _handoff(result) -> int:
    return 0 if result is None else 1


def _file_size(result) -> int:
    return Path(result).stat().st_size


# attributes runs and ticks are timed at; without them a rep cannot be timed
RUN_BOUNDARY = ("run_engine", "write_summary_json", "step")

FIELDS = ("name", "parent", "run", "start", "end", "value")
_START, _END, _VALUE = 3, 4, 5


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.buf = array("q")  # len(FIELDS) slots per span
        self.run_id = NO_RUN
        self._stack = [NO_PARENT]  # indices of the open spans
        self.missing: list[str] = []
        self.ticks = array("q")  # start of every marked call
        self.cals = array("q")  # (start, duration) of every calibration

    def wrap(self, name, fn, *, value=None, run_of=None, ends_run=False):
        """``fn`` recorded as span ``name``; see the module docstring."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        buf, stack, width = self.buf, self._stack, len(FIELDS)

        def wrapper(*args, **kwargs):
            if run_of is not None:
                self.run_id = run_of(args, kwargs)
            idx = len(buf)
            buf.extend((nid, stack[-1], self.run_id, 0, 0, 0))
            stack.append(idx // width)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                buf[idx + _START] = t0
                buf[idx + _END] = t1
                if ends_run:
                    self.run_id = NO_RUN
            if value is not None:
                buf[idx + _VALUE] = value(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self, fn, calibrate=None, period_ns: int = 0):
        """``fn`` with only its start time recorded, in ``ticks``.

        Before that, ``calibrate()`` runs if ``period_ns`` have passed since
        it last ended; its start and duration go to ``cals``.
        """
        ticks, cals = self.ticks, self.cals
        due = [0]

        def marker(*args, **kwargs):
            if calibrate is not None:
                now = perf_counter_ns()
                if now >= due[0]:
                    cals.extend((now, calibrate()))
                    due[0] = perf_counter_ns() + period_ns
            ticks.append(perf_counter_ns())
            return fn(*args, **kwargs)

        marker.__wrapped__ = fn
        return marker

    def patch(self, owner, attr: str, name: str | None = None, **how) -> None:
        """Replace ``owner.attr`` with its span wrapper (or marker, without a name), or note that it is gone."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, **how) if name else self.mark(fn, **how))

    def columns(self) -> dict:
        import numpy as np

        table = np.frombuffer(self.buf, np.int64).reshape(-1, len(FIELDS))
        cols = {field: table[:, i] for i, field in enumerate(FIELDS)}
        cols["names"] = np.array(self.names)
        cols["ticks"] = np.frombuffer(self.ticks, np.int64)
        cols["cals"] = np.frombuffer(self.cals, np.int64).reshape(-1, 2)
        return cols

    def save(self, path: Path, **extra) -> None:
        import numpy as np

        np.savez(path, **self.columns(), **extra)


def bookkeeping_ns(calls: int = 20000, trials: int = 5) -> float:
    """Wrapper time per call spent outside the call's own span.

    That time lands in the parent span, so ``totals`` takes it off the
    parent's self time once per direct child. The probe is shaped like the
    most frequent child, ``handle_encounter``: six arguments and a count.
    """
    import statistics

    def noop(*args):
        return None

    estimates = []
    for _ in range(trials):
        probe = Recorder()
        wrapped = probe.wrap("probe", noop, value=_handoff)
        t0 = perf_counter_ns()
        for _ in range(calls):
            wrapped(0, 1, 2, 3, 4, 5)
        t1 = perf_counter_ns()
        for _ in range(calls):
            pass
        t2 = perf_counter_ns()
        cols = probe.columns()
        inside = float((cols["end"] - cols["start"]).sum())
        estimates.append(max(0.0, ((t1 - t0) - (t2 - t1) - inside) / calls))
    return statistics.median(estimates)


def install(recorder: Recorder, traced: bool, calibrate=None, period_ns: int = 0) -> None:
    """Wrap the run boundaries always, and every layer boundary when traced.

    A run spans from the start of ``engine.run`` to the end of its export.
    Untraced reps also mark every mobility step, one per tick, and run
    ``calibrate`` there; those wrappers (``RUN_BOUNDARY``) give
    ``run_blocks`` its boundaries.
    """
    from vanetsim import cli, engine, metrics, mobility
    from vanetsim.incentives import IncentiveConfig

    p = recorder.patch
    p(cli, "run_engine", "engine.run", run_of=_seed_arg)
    for writer in ("write_summary_json", "write_rows_csv"):
        p(cli, writer, "metrics.export", value=_file_size, ends_run=True)
    if not traced:
        p(mobility.RandomWaypointModel, "step", calibrate=calibrate, period_ns=period_ns)
        return
    p(cli, "main", "cli.main")
    p(cli, "scenario_hash", "scenario.hash")
    p(cli, "build_summary", "metrics.build_summary")
    p(metrics, "descendant_counts", "metrics.descendant_counts")
    p(metrics, "path_from_root", "metrics.path_from_root")
    p(metrics, "reward_vs_descendants", "metrics.reward_vs_descendants")
    p(mobility.RandomWaypointModel, "step", "mobility.step")
    p(engine, "contact_pairs", "kernels.contact_pairs", value=_pair_count)
    p(engine, "handle_encounter", "routing.handle_encounter", value=_handoff)
    p(engine, "collect_records", "settlement.collect_records")
    p(IncentiveConfig, "score_records", "settlement.score")
    for settle in ("settle_proportional", "settle_packet_purse", "settle_packet_trade"):
        p(engine, settle, "settlement.settle")
    p(engine, "apply_settlement", "settlement.apply")


def load(path: Path) -> dict:
    import numpy as np

    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def run_seconds(spans: dict) -> dict[int, float]:
    """Seconds per run id: first span start to last span end of that run."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for run, start, end in zip(spans["run"].tolist(), spans["start"].tolist(), spans["end"].tolist()):
        if run == NO_RUN:
            continue
        first[run] = min(first.get(run, start), start)
        last[run] = max(last.get(run, end), end)
    return {run: (last[run] - first[run]) / 1e9 for run in first}


def run_blocks(spans: dict, seeds: list[int], ticks: int, blocks: int):
    """Each run split at its tick marks into ``blocks`` equal parts, as two (seeds, blocks) arrays.

    The first holds each part's seconds without the calibrations run in
    it, the second the seconds of the calibration nearest in time to the
    part. The first part also holds the run's set-up before its first
    tick, the last its settlement, summary and export. Raises
    ``ValueError`` when a run has not exactly ``ticks`` marks or no
    calibration ran.
    """
    import numpy as np

    marks, cal_start, cal_ns = spans["ticks"], spans["cals"][:, 0], spans["cals"][:, 1]
    if not len(cal_start):
        raise ValueError("no calibration ran")
    net = np.empty((len(seeds), blocks))
    speed = np.empty((len(seeds), blocks))
    for row, seed in enumerate(seeds):
        mine = spans["run"] == seed
        start, end = spans["start"][mine].min(), spans["end"][mine].max()
        inside = marks[(marks >= start) & (marks <= end)]
        if len(inside) != ticks:
            raise ValueError(f"run {seed} has {len(inside)} tick marks, expected {ticks}")
        edges = np.concatenate(([start], inside[ticks // blocks :: ticks // blocks][: blocks - 1], [end]))
        part = np.searchsorted(edges, cal_start, side="right") - 1  # part each calibration ran in
        inner = (part >= 0) & (part < blocks)
        net[row] = (np.diff(edges) - np.bincount(part[inner], weights=cal_ns[inner], minlength=blocks)) / 1e9
        middle = (edges[:-1] + edges[1:]) / 2
        speed[row] = cal_ns[np.abs(cal_start[None, :] - middle[:, None]).argmin(axis=1)] / 1e9
    return net, speed


def totals(spans: dict) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, summed counts."""
    import numpy as np

    dur = (spans["end"] - spans["start"]).astype(np.float64)
    parent = spans["parent"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    children = np.bincount(parent[nested], minlength=len(dur))
    overhead = float(spans["bookkeeping_ns"]) if "bookkeeping_ns" in spans else 0.0
    self_time = np.maximum(dur - child_time - overhead * children, 0.0)
    out = {}
    for nid, name in enumerate(spans["names"].tolist()):
        mask = spans["name"] == nid
        out[name] = {
            "calls": int(mask.sum()),
            "s": float(dur[mask].sum()) / 1e9,
            "self_s": float(self_time[mask].sum()) / 1e9,
            "value": int(spans["value"][mask].sum()),
        }
    return out
