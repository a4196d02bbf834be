"""A whole-run reference engine: the plainest loop that must give ``engine.run``'s result.

Every tick it steps the fleet with the masked reference step, finds the
tick's contacts with the full-matrix oracle and offers every pair, in
(a, b) order, to ``routing.handle_encounter``. It has no carrier filter,
no component mask, no look-ahead and no Verlet list. It then settles
through the public settle functions. Comparing it with ``engine.run``
over random scenarios is a differential test of the whole run.
"""

from __future__ import annotations

import math

import numpy as np

from test_acceptance import reference_pairs
from test_mobility import masked_waypoint_step
from vanetsim.model import PROPORTIONAL_SCHEMES, ForwardingTree, Scheme
from vanetsim.routing import collect_records, handle_encounter
from vanetsim.settlement import settle_packet_purse, settle_packet_trade, settle_proportional


def reference_run(mob, eng, inc, pkt, seed: int) -> dict:
    """The fields of a ``RunResult`` that a run of these configs must produce."""
    n, dt = mob.vehicle_count, mob.tick_seconds
    mob_seq, eng_seq = np.random.SeedSequence(seed).spawn(2)
    rng, rng_engine = np.random.default_rng(mob_seq), np.random.default_rng(eng_seq)
    x, y = rng.random((2, n)) * [[mob.arena_width], [mob.arena_height]]
    wx, wy = rng.random((2, n)) * [[mob.arena_width], [mob.arena_height]]
    speed = mob.speed_min + rng.random(n) * (mob.speed_max - mob.speed_min)
    pause_until = np.full(n, -np.inf)

    source, destination = eng.source_id, eng.destination_id
    if source is None:
        candidates = [i for i in range(n) if i != destination]
        source = candidates[int(rng_engine.integers(0, len(candidates)))]
    stops = eng.settle_on_delivery or inc.scheme is Scheme.PACKET_TRADE
    if destination is None and stops:
        others = [i for i in range(n) if i != source]
        destination = others[int(rng_engine.integers(0, len(others)))]
    stop_at = destination if stops else None
    tree = ForwardingTree(root=source, origin=(float(x[source]), float(y[source])))

    end = float(min(eng.duration, pkt.deadline))
    ticks = end / dt
    last_tick = round(ticks) if abs(ticks - round(ticks)) <= 4 * math.ulp(ticks) else math.floor(ticks)
    contact_events, tick = 0, 0
    while tick <= last_tick and stop_at not in tree.depth:
        if tick:
            cand = rng.random((n, 3))
            masked_waypoint_step(x, y, wx, wy, speed, pause_until, cand, (tick - 1) * dt, dt,
                                 mob.arena_width, mob.arena_height, mob.speed_min, mob.speed_max,
                                 mob.pause_time)
        a, b = reference_pairs(x, y, eng.radio_range)
        contact_events += len(a)
        for i, j in zip(a.tolist(), b.tolist()):
            handle_encounter(tree, i, j, x, y, float(tick * dt))
            if stop_at in tree.depth:
                break
        tick += 1
    ticks_run = tick - 1

    settle_time = min(tree.link_to[stop_at].timestamp, end) if stop_at in tree.link_to else end
    records = collect_records(tree, settle_time)
    if inc.scheme in PROPORTIONAL_SCHEMES:
        inc.score_records(records, pkt)
        report = settle_proportional(tree, records, pkt.reward_budget)
    elif inc.scheme is Scheme.PACKET_PURSE:
        report = settle_packet_purse(tree, pkt.reward_budget, eng.hop_price)
    else:
        report = settle_packet_trade(tree, destination, eng.hop_price)
    return {
        "source_id": source,
        "destination_id": destination,
        "links": tree.links,
        "records": records,
        "report": report,
        "settle_time": settle_time,
        "final_time": float(ticks_run * dt),
        "ticks_run": ticks_run,
        "contact_events": contact_events,
    }
