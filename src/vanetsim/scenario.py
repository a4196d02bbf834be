"""Scenario files: one YAML document describing a complete run setup.

A scenario bundles the mobility field, engine knobs, the injected
packet, and the incentive scheme, plus a run seed. The config dataclasses
are the schema: each value is checked against its field's annotation,
then the dataclass checks its own ranges. Validation is collected: a bad
file reports every problem at once, not just the first. Values are kept
as written (an integer stays an integer), and the scenario hash covers
them that way. The hash identifies the physics of a setup (everything
except the seed), so sweeps over seeds share a hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_args, get_type_hints

import yaml

from .engine import EngineConfig, endpoint_problems
from .incentives import IncentiveConfig
from .mobility import MobilityConfig
from .model import TWO_TERM_SCHEMES, PacketSpec, PayloadClass, Scheme, ValidationError, WeightSet

DEFAULT_SAFETY_DEADLINE_CAP = 300.0

# scenario-file key -> WeightSet field
_WEIGHT_KEYS = {"time": "time_weight", "forward": "forward_weight", "distance": "distance_weight"}


@dataclass(frozen=True)
class Scenario:
    name: str = "default"  # the export file stem
    seed: int = 0
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    packet: PacketSpec = field(default_factory=PacketSpec)
    incentives: IncentiveConfig = field(default_factory=IncentiveConfig)
    safety_deadline_cap: float = DEFAULT_SAFETY_DEADLINE_CAP

    def to_dict(self) -> dict:
        """The scenario as a scenario file spells it."""
        return _plain(self)


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, WeightSet):
        return {key: getattr(value, attr) for key, attr in _WEIGHT_KEYS.items()}
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def scenario_hash(scenario: Scenario) -> str:
    """Hex digest of the setup, seed excluded: sweeps share one hash."""
    d = scenario.to_dict()
    d.pop("seed")
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# annotation -> (what a value must be, test)
_RULES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a finite number", lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
}
# the annotations of the scenario and of each config section, resolved once: the file's schema
_HINTS = {Scenario: get_type_hints(Scenario)}
_HINTS.update((cls, get_type_hints(cls)) for cls in _HINTS[Scenario].values() if is_dataclass(cls))


def _value(hint, value):
    """``value`` as a field annotated ``hint`` holds it; ValidationError if it does not fit."""
    args = get_args(hint)  # ``int | None``: None, or a value of the other type
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except (ValueError, TypeError):
            allowed = ", ".join(m.value for m in hint)
            raise ValidationError(f"{value!r} is not one of: {allowed}") from None
    if hint is WeightSet:
        if not isinstance(value, dict) or set(value) - _WEIGHT_KEYS.keys():
            raise ValidationError("must be a mapping with keys time, forward, distance")
        return WeightSet(**{attr: _value(float, value.get(key, 0.0)) for key, attr in _WEIGHT_KEYS.items()})
    what, fits = _RULES[hint]
    if not fits(value):
        raise ValidationError(f"must be {what}, got {value!r}")
    return value


def _fields(cls, raw: dict, prefix: str, problems: list[str]) -> dict:
    """The entries of ``raw`` that fit ``cls``'s annotations, config sections built."""
    hints = _HINTS[cls]
    kwargs = {}
    for key, value in raw.items():
        label = f"{prefix}{key}"
        hint = hints.get(key)
        if hint is None:
            problems.append(f"{label}: unknown field")
        elif hint in _HINTS:
            kwargs[key] = _section(hint, value, label, problems)
        else:
            try:
                kwargs[key] = _value(hint, value)
            except ValidationError as exc:
                problems.append(f"{label}: {exc}")
    return kwargs


def _section(cls, raw, label: str, problems: list[str]):
    """Build one config section; its defaults stand in when it is invalid."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        problems.append(f"{label}: must be a mapping")
        return cls()
    try:
        return cls(**_fields(cls, raw, f"{label}.", problems))
    except ValidationError as exc:
        problems.append(f"{label}: {exc}")
        return cls()


def _scenario_problems(sc: Scenario) -> list[str]:
    """Rules on the top-level fields and across sections; the endpoint rules are the engine's."""
    problems = []
    if not sc.name or "/" in sc.name or "\\" in sc.name:
        problems.append("name: must be a non-empty file stem without / or \\")
    if sc.seed < 0:
        problems.append("seed: must be non-negative")
    if not sc.safety_deadline_cap > 0:
        problems.append("safety_deadline_cap: must be positive")
    elif sc.packet.payload_class is PayloadClass.SAFETY and sc.packet.deadline > sc.safety_deadline_cap:
        problems.append(f"packet.deadline: safety payloads must settle within {sc.safety_deadline_cap} s")
    return problems + endpoint_problems(sc.mobility.vehicle_count, sc.engine, sc.incentives.scheme)


def scenario_from_dict(raw: dict) -> Scenario:
    """Build and fully validate a scenario, reporting every problem found."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario document must be a mapping")
    problems: list[str] = []
    scenario = Scenario(**_fields(Scenario, raw, "", problems))
    problems += _scenario_problems(scenario)
    if problems:
        raise ValidationError("invalid scenario:\n  " + "\n  ".join(problems))
    return scenario


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
        if scheme in TWO_TERM_SCHEMES:
            w = d["incentives"]["weights"]
            if w["distance"] != 0.0:
                # fold the distance weight into forwarding so the pair sums to 1
                w["forward"] = w["forward"] + w["distance"]
                w["distance"] = 0.0
    return scenario_from_dict(d)
