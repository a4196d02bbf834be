"""Scenario files: one YAML document describing a complete run setup.

A scenario bundles the mobility field, engine knobs, the injected
packet, and the incentive scheme, plus a run seed. Validation is
collected: a bad file reports every problem at once, not just the first.
The scenario hash identifies the physics of a setup (everything except
the seed), so sweeps over seeds share a hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .engine import EngineConfig, PacketSpec
from .incentives import IncentiveConfig
from .mobility import MobilityConfig
from .model import PayloadClass, Scheme, ValidationError, WeightSet

DEFAULT_SAFETY_DEADLINE_CAP = 300.0

_TOP_KEYS = {"name", "seed", "mobility", "engine", "packet", "incentives", "safety_deadline_cap"}
_MOBILITY_KEYS, _ENGINE_KEYS, _PACKET_KEYS, _INCENTIVE_KEYS = (
    {f.name for f in fields(cls)} for cls in (MobilityConfig, EngineConfig, PacketSpec, IncentiveConfig)
)
_WEIGHT_KEYS = {"time", "forward", "distance"}


@dataclass(frozen=True)
class Scenario:
    name: str = "default"
    seed: int = 0
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    packet: PacketSpec = field(default_factory=PacketSpec)
    incentives: IncentiveConfig = field(default_factory=IncentiveConfig)
    safety_deadline_cap: float = DEFAULT_SAFETY_DEADLINE_CAP

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "mobility": {
                "vehicle_count": self.mobility.vehicle_count,
                "arena_width": self.mobility.arena_width,
                "arena_height": self.mobility.arena_height,
                "speed_min": self.mobility.speed_min,
                "speed_max": self.mobility.speed_max,
                "pause_time": self.mobility.pause_time,
                "tick_seconds": self.mobility.tick_seconds,
            },
            "engine": {
                "radio_range": self.engine.radio_range,
                "duration": self.engine.duration,
                "source_id": self.engine.source_id,
                "destination_id": self.engine.destination_id,
                "settle_on_delivery": self.engine.settle_on_delivery,
                "hop_price": self.engine.hop_price,
            },
            "packet": {
                "reward_budget": self.packet.reward_budget,
                "deadline": self.packet.deadline,
                "interest_radius": self.packet.interest_radius,
                "payload_class": self.packet.payload_class.value,
                "packet_id": self.packet.packet_id,
            },
            "incentives": {
                "scheme": self.incentives.scheme.value,
                "weights": {
                    "time": self.incentives.weights.time_weight,
                    "forward": self.incentives.weights.forward_weight,
                    "distance": self.incentives.weights.distance_weight,
                },
                "time_scale": self.incentives.time_scale,
                "distance_scale": self.incentives.distance_scale,
                "first_proposal_mode": self.incentives.first_proposal_mode,
                "distance_aggregate": self.incentives.distance_aggregate,
            },
            "safety_deadline_cap": self.safety_deadline_cap,
        }


def scenario_hash(scenario: Scenario) -> str:
    """Hex digest of the setup, seed excluded: sweeps share one hash."""
    d = scenario.to_dict()
    d.pop("seed")
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _section(raw: dict, key: str, known: set[str], problems: list[str]) -> dict:
    sec = raw.get(key) or {}
    if not isinstance(sec, dict):
        problems.append(f"{key}: must be a mapping")
        return {}
    for k in sorted(set(sec) - known):
        problems.append(f"{key}.{k}: unknown field")
    return {k: v for k, v in sec.items() if k in known}


def _parse_enum(enum_cls, value, label: str, problems: list[str]):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        problems.append(f"{label}: {value!r} is not one of: {allowed}")
        return None


def scenario_from_dict(raw: dict) -> Scenario:
    """Build and fully validate a scenario, reporting every problem found."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario document must be a mapping")
    problems: list[str] = []
    for k in sorted(set(raw) - _TOP_KEYS):
        problems.append(f"{k}: unknown field")

    name = raw.get("name", "default")
    if not isinstance(name, str) or not name:
        problems.append("name: must be a non-empty string")
        name = "default"
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        problems.append("seed: must be a non-negative integer")
        seed = 0

    mob_kw = _section(raw, "mobility", _MOBILITY_KEYS, problems)
    eng_kw = _section(raw, "engine", _ENGINE_KEYS, problems)
    pkt_kw = _section(raw, "packet", _PACKET_KEYS, problems)
    inc_kw = _section(raw, "incentives", _INCENTIVE_KEYS, problems)

    mobility = MobilityConfig()
    try:
        mobility = MobilityConfig(**mob_kw)
    except (ValidationError, TypeError) as exc:
        problems.append(f"mobility: {exc}")

    engine = EngineConfig()
    try:
        engine = EngineConfig(**eng_kw)
    except (ValidationError, TypeError) as exc:
        problems.append(f"engine: {exc}")

    packet = PacketSpec()
    if "payload_class" in pkt_kw:
        parsed = _parse_enum(
            PayloadClass, pkt_kw["payload_class"], "packet.payload_class", problems
        )
        if parsed is None:
            pkt_kw.pop("payload_class")
        else:
            pkt_kw["payload_class"] = parsed
    try:
        packet = PacketSpec(**pkt_kw)
        if packet.reward_budget < 0:
            problems.append("packet.reward_budget: must be non-negative")
        if packet.deadline <= 0:
            problems.append("packet.deadline: must be positive")
        if packet.interest_radius <= 0:
            problems.append("packet.interest_radius: must be positive")
    except TypeError as exc:
        problems.append(f"packet: {exc}")

    if "scheme" in inc_kw:
        parsed = _parse_enum(Scheme, inc_kw["scheme"], "incentives.scheme", problems)
        if parsed is None:
            inc_kw.pop("scheme")
        else:
            inc_kw["scheme"] = parsed
    if "weights" in inc_kw:
        w = inc_kw.pop("weights")
        if not isinstance(w, dict) or set(w) - _WEIGHT_KEYS:
            problems.append(
                "incentives.weights: must be a mapping with keys time, forward, distance"
            )
        else:
            try:
                inc_kw["weights"] = WeightSet(
                    time_weight=float(w.get("time", 0.0)),
                    forward_weight=float(w.get("forward", 0.0)),
                    distance_weight=float(w.get("distance", 0.0)),
                )
            except (ValidationError, TypeError, ValueError) as exc:
                problems.append(f"incentives.weights: {exc}")

    incentives = IncentiveConfig()
    try:
        incentives = IncentiveConfig(**inc_kw)
    except (ValidationError, TypeError) as exc:
        problems.append(f"incentives: {exc}")

    cap = raw.get("safety_deadline_cap", DEFAULT_SAFETY_DEADLINE_CAP)
    if not isinstance(cap, (int, float)) or isinstance(cap, bool) or cap <= 0:
        problems.append("safety_deadline_cap: must be a positive number")
        cap = DEFAULT_SAFETY_DEADLINE_CAP

    # cross-field rules
    n = mobility.vehicle_count
    if engine.source_id is not None and not 0 <= engine.source_id < n:
        problems.append(f"engine.source_id: must be in [0, {n})")
    if engine.destination_id is not None:
        if not 0 <= engine.destination_id < n:
            problems.append(f"engine.destination_id: must be in [0, {n})")
        if engine.destination_id == engine.source_id:
            problems.append("engine.destination_id: must differ from source_id")
    if (
        packet.payload_class is PayloadClass.SAFETY
        and packet.deadline > cap
    ):
        problems.append(
            f"packet.deadline: safety payloads must settle within {cap} s"
        )
    if incentives.scheme is Scheme.PACKET_TRADE and n < 2:
        problems.append("incentives.scheme: packet trade needs at least 2 vehicles")

    if problems:
        raise ValidationError(
            "invalid scenario:\n  " + "\n  ".join(problems)
        )
    return Scenario(
        name=name,
        seed=seed,
        mobility=mobility,
        engine=engine,
        packet=packet,
        incentives=incentives,
        safety_deadline_cap=float(cap),
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValidationError(f"invalid scenario: {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return scenario_from_dict(raw)


def with_updates(
    scenario: Scenario,
    *,
    seed: int | None = None,
    scheme: Scheme | None = None,
) -> Scenario:
    """Copy a scenario with the run seed and/or scheme swapped out."""
    d = scenario.to_dict()
    if seed is not None:
        d["seed"] = seed
    if scheme is not None:
        d["incentives"]["scheme"] = scheme.value
        if scheme in (Scheme.BASIC_LINEAR, Scheme.FIRST_PROPOSAL):
            w = d["incentives"]["weights"]
            if w["distance"] != 0.0:
                # fold the distance weight into forwarding so the pair sums to 1
                w["forward"] = w["forward"] + w["distance"]
                w["distance"] = 0.0
    return scenario_from_dict(d)
