"""End-to-end acceptance checks for the simulator and its accounting.

Each test covers one release criterion, prints a single PASS/FAIL verdict
line (bypassing capture so the line always reaches the console), and then
asserts. Tolerances and runtime budgets are part of the criteria.
"""

from __future__ import annotations

import math
import sys
import time

import mpmath
import numpy as np
import pytest

from conftest import chain_tree
from vanetsim import engine, kernels
from vanetsim.cli import main
from vanetsim.engine import EngineConfig, PacketSpec, run
from vanetsim.incentives import (
    IncentiveConfig,
    contribution_second,
    distance_term,
    time_term,
)
from vanetsim.metrics import bin_rewards, build_summary
from vanetsim.mobility import MobilityConfig, RandomWaypointModel
from vanetsim.model import ContributionRecord, Scheme, WeightSet
from vanetsim.scenario import load_scenario, scenario_hash
from vanetsim.settlement import settle_proportional

EPS = np.finfo(float).eps


def verdict(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} | {detail}"
    with capsys.disabled():
        print(line, file=sys.stderr, flush=True)
    assert ok, line


def random_weights(rng) -> tuple[float, float, float]:
    w2 = float(rng.uniform(0.1, 0.8))
    w1 = float(rng.uniform(0.05, 0.95)) * (1.0 - w2)
    w3 = 1.0 - w1 - w2
    return w1, w2, w3


def test_formula_accuracy_against_high_precision_oracle(capsys):
    """time, distance and blended contribution vs a 40-digit oracle.

    1 000 randomized valid inputs, relative error at most 1e-12, and the
    whole comparison finishes inside one second.
    """
    mpmath.mp.dps = 40
    rng = np.random.default_rng(20250814)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        deadline = float(rng.uniform(0.05, 30.0))
        t = float(rng.uniform(0.0, 3.0 * deadline))
        radius = float(rng.uniform(50.0, 2000.0))
        d = float(rng.uniform(0.0, 1.2 * radius))
        scale = float(rng.uniform(10.0, 500.0))
        f = int(rng.integers(0, 50))
        w1, w2, w3 = random_weights(rng)
        weights = WeightSet(w1, w2, w3)

        mt, mT = mpmath.mpf(t), mpmath.mpf(deadline)
        o_time = mT * (1 - mpmath.exp(-min(mt, mT)))
        if d > radius:
            o_dist = mpmath.mpf(0)
            assert distance_term(d, radius, scale) == 0.0
        else:
            o_dist = mpmath.mpf(radius) * mpmath.exp(-mpmath.mpf(d) / mpmath.mpf(scale))
        o_blend = (
            mpmath.mpf(w1) * o_time + mpmath.mpf(w2) * f + mpmath.mpf(w3) * o_dist
        )

        for got, oracle in (
            (time_term(t, deadline), o_time),
            (distance_term(d, radius, scale), o_dist),
            (
                contribution_second(weights, t, deadline, f, d, radius, scale),
                o_blend,
            ),
        ):
            if oracle == 0:
                assert got == 0.0
                continue
            rel = float(abs(mpmath.mpf(got) - oracle) / abs(oracle))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(
        capsys,
        "formula accuracy",
        ok,
        f"worst rel err {worst:.3e} (limit 1e-12), {elapsed:.2f}s (limit 1s)",
    )


def test_budget_conservation_over_randomized_settlements(capsys):
    """1 000 random settlements: payouts sum to the budget, never beyond it."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    overspends = 0
    worst_rel = 0.0
    for k in range(1000):
        n = int(rng.integers(2, 51))
        magnitude = float(rng.choice([1e-3, 1.0, 1e3]))
        contribs = rng.random(n) * magnitude
        if k % 5 == 0:
            contribs[int(rng.integers(0, n))] = 0.0  # idle node among workers
        budget = float(rng.uniform(0.01, 1000.0))
        records = [
            ContributionRecord(
                vehicle_id=i + 1,
                stored_time=0.0,
                forward_count=0,
                relay_distances=[],
                receive_distance=0.0,
                contribution=float(c),
            )
            for i, c in enumerate(contribs)
        ]
        report = settle_proportional(chain_tree(length=0), records, budget)
        paid = report.total_paid
        if paid > budget:
            overspends += 1
        worst_rel = max(worst_rel, abs(paid - budget) / budget)
        assert set(report.shares) == {r.vehicle_id for r in records}
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and overspends == 0 and elapsed < 5.0
    verdict(
        capsys,
        "budget conservation",
        ok,
        f"worst rel dev {worst_rel:.3e} (limit 1e-9), overspends {overspends}, "
        f"{elapsed:.2f}s (limit 5s)",
    )


def test_saturation_and_cutoff_invariants(capsys):
    """10 000 generated cases per invariant.

    Holding past the deadline earns nothing extra, relaying outside the
    interest radius earns exactly zero, and one extra forward moves the
    blended score up by exactly the forward weight (exact up to float
    rounding of the blend: 4 ulp of its magnitude).
    """
    rng = np.random.default_rng(4242)
    cases = 10_000
    start = time.perf_counter()

    for _ in range(cases):
        deadline = float(rng.uniform(0.05, 40.0))
        extra = float(rng.uniform(0.0, 5.0 * deadline))
        assert time_term(deadline + extra, deadline) == time_term(deadline, deadline)

    for _ in range(cases):
        radius = float(rng.uniform(1.0, 2000.0))
        d = radius + float(rng.uniform(1e-12, 1e6))
        scale = float(rng.uniform(1.0, 500.0))
        assert distance_term(d, radius, scale) == 0.0

    worst_ulp = 0.0
    for _ in range(cases):
        w1, w2, w3 = random_weights(rng)
        weights = WeightSet(w1, w2, w3)
        deadline = float(rng.uniform(0.05, 30.0))
        t = float(rng.uniform(0.0, 2.0 * deadline))
        radius = float(rng.uniform(50.0, 2000.0))
        d = float(rng.uniform(0.0, 1.2 * radius))
        scale = float(rng.uniform(10.0, 500.0))
        f = int(rng.integers(0, 60))
        c0 = contribution_second(weights, t, deadline, f, d, radius, scale)
        c1 = contribution_second(weights, t, deadline, f + 1, d, radius, scale)
        assert c1 > c0
        step_scale = max(abs(c0), abs(c1), w2)
        worst_ulp = max(worst_ulp, abs((c1 - c0) - w2) / (step_scale * EPS))
        assert abs((c1 - c0) - w2) <= 4.0 * step_scale * EPS
    elapsed = time.perf_counter() - start
    verdict(
        capsys,
        "saturation/cutoff invariants",
        True,
        f"{cases} cases each; forward step off by at most "
        f"{worst_ulp:.2f} ulp of the blend ({elapsed:.2f}s)",
    )


def reference_pairs(x: np.ndarray, y: np.ndarray, radio_range: float):
    """Independent quadratic oracle: full distance matrix, upper triangle."""
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    within = dx * dx + dy * dy <= radio_range * radio_range
    ii, jj = np.nonzero(within)
    keep = ii < jj
    return ii[keep].astype(np.int64), jj[keep].astype(np.int64)


def fresh_list_pairs(x: np.ndarray, y: np.ndarray, radio_range: float):
    """One tick's ``(a, b)`` through a fresh ``kernels.pair_list`` for a fleet that stands still."""
    a, b, _ = kernels.pair_list(len(x), radio_range, 0.0).pairs(x[None], y[None])
    return a, b


def contact_blocks(model, radio_range, last_tick):
    """``engine.contacts`` for ticks 0..last_tick through the pair list a run makes for the model's fleet."""
    cfg = model.config
    neighbours = engine.pair_list(cfg.vehicle_count, radio_range, cfg.speed_max * cfg.tick_seconds)
    return engine.contacts(model, neighbours, last_tick)


def contact_ticks(blocks):
    """The blocks ``engine.contacts`` yields, split at their row ends: ``(tick, x, y, a, b)``, a tick each."""
    for first, xs, ys, a, b, ends in blocks:
        start = 0
        for i, end in enumerate(ends):
            yield first + i, xs[i], ys[i], a[start:end], b[start:end]
            start = end


def test_contact_engine_matches_quadratic_oracle(capsys):
    """Contact detection, one-shot and through a run's contact stream, is exact on moving fleets.

    50 seeded mobility runs, fleets up to 200 vehicles, every tick checked
    against the full-matrix oracle, exact index-pair equality.
    """
    start = time.perf_counter()
    ticks_checked = 0
    for run_idx in range(50):
        meta = np.random.default_rng(run_idx)
        n = int(meta.integers(5, 201))
        arena = float(meta.uniform(200.0, 1500.0))
        radio = float(meta.uniform(20.0, 150.0))
        cfg = MobilityConfig(
            vehicle_count=n,
            arena_width=arena,
            arena_height=arena,
            speed_min=2.0,
            speed_max=20.0,
        )
        model = RandomWaypointModel(cfg, np.random.default_rng(1000 + run_idx))
        # filters the pair list engine.run keeps
        for _, x, y, a, b in contact_ticks(contact_blocks(model, radio, 25)):
            ref_a, ref_b = reference_pairs(x, y, radio)
            for got_a, got_b in ((a, b), fresh_list_pairs(x, y, radio)):
                assert np.array_equal(got_a, ref_a) and np.array_equal(got_b, ref_b)
            ticks_checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    verdict(
        capsys,
        "contact engine equivalence",
        ok,
        f"{ticks_checked} ticks exact via engine.contacts (the list kernels.pair_list picks) "
        f"and a one-shot list, {elapsed:.1f}s (limit 30s)",
    )


def test_reward_trends_across_the_baseline_fleet(capsys, baseline_path):
    """Reward trends over 100 seeded runs of the 15-vehicle baseline.

    (a) mean reward non-decreasing across forward-count bins in at least
    90 % of runs with 3+ occupied bins; (b) mean reward non-increasing
    across distance bins beyond the first in at least 80 % of such runs;
    (c) reward correlates positively with tree descendants in at least
    90 % of runs with 4+ tree nodes. Distance uses 200 m bins: with 14
    reward-eligible vehicles the export default of 50 m leaves most bins
    holding a single node, whose individual noise says nothing about the
    trend.
    """
    scenario = load_scenario(baseline_path)
    assert scenario.mobility.vehicle_count == 15
    assert scenario.mobility.arena_width == 800.0
    assert scenario.mobility.arena_height == 800.0
    assert scenario.engine.radio_range == 100.0

    sid = scenario_hash(scenario)
    start = time.perf_counter()
    a_ok = a_all = b_ok = b_all = c_ok = c_all = 0
    for seed in range(100):
        result = run(
            scenario.mobility, scenario.engine, scenario.incentives,
            scenario.packet, seed,
        )
        summary = build_summary(result, sid)

        forward_bins = bin_rewards(summary.rows, "forwards")
        if len(forward_bins) >= 3:
            a_all += 1
            means = [m for _, m, _ in forward_bins]
            if all(means[i + 1] >= means[i] for i in range(len(means) - 1)):
                a_ok += 1

        distance_bins = bin_rewards(summary.rows, "distance", 200.0)
        if len(distance_bins) >= 3:
            b_all += 1
            tail = [m for _, m, _ in distance_bins[1:]]
            if all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1)):
                b_ok += 1

        if summary.scenario["tree_size"] >= 4:
            c_all += 1
            rho = summary.aggregates["spearman_reward_descendants"]
            if rho is not None and rho > 0:
                c_ok += 1
    elapsed = time.perf_counter() - start

    a_rate = a_ok / a_all if a_all else 0.0
    b_rate = b_ok / b_all if b_all else 0.0
    c_rate = c_ok / c_all if c_all else 0.0
    ok = (
        a_all > 0 and b_all > 0 and c_all > 0
        and a_rate >= 0.90 and b_rate >= 0.80 and c_rate >= 0.90
        and elapsed < 120.0
    )
    verdict(
        capsys,
        "baseline reward trends",
        ok,
        f"forwards up {a_ok}/{a_all} (need 90%), distance down {b_ok}/{b_all} "
        f"(need 80%), descendants rho>0 {c_ok}/{c_all} (need 90%), "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_purse_exhaustion_and_trade_source_immunity(capsys):
    """The two baseline schemes show their textbook failure modes.

    An underfunded purse runs dry partway through the relay history and
    every later handoff goes unpaid; a trade run never debits the source
    no matter how widely the packet sprays.
    """
    mob = MobilityConfig()
    eng = EngineConfig(radio_range=100.0, duration=300.0, hop_price=1.0)
    seed = 0

    purse = run(
        mob, eng,
        IncentiveConfig(scheme=Scheme.PACKET_PURSE),
        PacketSpec(reward_budget=3.0, deadline=300.0),
        seed,
    )
    links = purse.tree.links
    report = purse.report
    purse_ok = (
        len(links) > 3
        and report.shortfall > 0.0
        and report.paid_link_count == 3
        and report.total_paid == pytest.approx(3.0)
    )
    # economic halt: only the first affordable handoffs were worth anything
    expected = dict.fromkeys(purse.tree.depth, 0.0)
    for link in links[:3]:
        expected[link.from_id] += 1.0
    purse_ok = purse_ok and report.shares == pytest.approx(expected)

    trade = run(
        mob, eng,
        IncentiveConfig(scheme=Scheme.PACKET_TRADE),
        PacketSpec(reward_budget=100.0, deadline=300.0),
        seed,
    )
    source = trade.source_id
    trade_ok = (
        len(trade.tree.links) >= 5  # plenty of spraying happened
        and trade.report.payer_id == trade.destination_id
        and trade.report.payer_id != source
    )
    # the source's balance holds only earnings; the debit landed elsewhere
    trade_ok = trade_ok and (
        trade.report.balances.get(source, 0.0)
        == trade.report.shares.get(source, 0.0)
    )
    if trade.delivered:
        payer_balance = trade.report.balances.get(trade.destination_id, 0.0)
        trade_ok = trade_ok and payer_balance < 0.0

    ok = purse_ok and trade_ok
    verdict(
        capsys,
        "purse/trade pathologies",
        ok,
        f"purse: {len(links)} handoffs, 3 paid, shortfall {report.shortfall:.1f}; "
        f"trade: {len(trade.tree.links)} handoffs, source debit 0 "
        f"(delivered={trade.delivered})",
    )


def test_repeated_runs_export_identical_bytes(capsys, tmp_path, baseline_path):
    """Same scenario, same seed, twice through the CLI: identical files."""
    blobs = {}
    for fmt, artifact in (("json", "baseline.summary.json"), ("csv", "baseline.rows.csv")):
        pair = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{fmt}_{attempt}"
            rc = main([
                "run", "--scenario", str(baseline_path), "--seed", "42",
                "--format", fmt, "--out", str(out),
            ])
            assert rc == 0
            pair.append((out / artifact).read_bytes())
        blobs[fmt] = pair
    ok = all(a == b and len(a) > 0 for a, b in blobs.values())
    sizes = {fmt: len(pair[0]) for fmt, pair in blobs.items()}
    verdict(
        capsys,
        "deterministic exports",
        ok,
        f"byte-identical reruns (json {sizes['json']} B, csv {sizes['csv']} B)",
    )
