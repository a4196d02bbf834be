import itertools
import math
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetsim.cli import main
from vanetsim.engine import EngineConfig, PacketSpec, run, run_problems
from vanetsim.incentives import IncentiveConfig
from vanetsim.mobility import MobilityConfig
from vanetsim.model import Scheme, ValidationError
from vanetsim.scenario import (
    DEFAULT_SAFETY_DEADLINE_CAP,
    Scenario,
    load_scenario,
    scenario_from_dict,
    scenario_hash,
    with_updates,
)


def valid_doc() -> dict:
    return {
        "name": "t",
        "seed": 3,
        "mobility": {"vehicle_count": 10, "arena_width": 500.0, "arena_height": 500.0},
        "engine": {"radio_range": 80.0, "duration": 200.0},
        "packet": {"reward_budget": 50.0, "deadline": 200.0, "interest_radius": 400.0},
        "incentives": {
            "scheme": "second_proposal",
            "weights": {"time": 0.2, "forward": 0.5, "distance": 0.3},
        },
    }


class TestScenarioFromDict:
    def test_valid_document(self):
        sc = scenario_from_dict(valid_doc())
        assert sc.name == "t"
        assert sc.seed == 3
        assert sc.mobility.vehicle_count == 10
        assert sc.incentives.weights.distance_weight == 0.3

    def test_empty_document_uses_defaults(self):
        sc = scenario_from_dict({})
        assert sc == Scenario()

    def test_unknown_fields_are_reported(self):
        doc = valid_doc()
        doc["velocity"] = 1
        doc["mobility"]["n_cars"] = 5
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        msg = str(exc.value)
        assert "velocity: unknown field" in msg
        assert "mobility.n_cars: unknown field" in msg

    def test_all_problems_reported_at_once(self):
        doc = valid_doc()
        doc["seed"] = -1
        doc["mobility"]["vehicle_count"] = 0
        doc["incentives"]["scheme"] = "tit_for_tat"
        doc["packet"]["deadline"] = -3.0
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        msg = str(exc.value)
        for frag in ("seed:", "mobility:", "incentives.scheme:", "deadline"):
            assert frag in msg, f"missing {frag} in: {msg}"

    def test_bad_weight_mapping(self):
        doc = valid_doc()
        doc["incentives"]["weights"] = {"time": 0.5, "speed": 0.5}
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert "incentives.weights" in str(exc.value)

    def test_weights_must_sum_to_one(self):
        doc = valid_doc()
        doc["incentives"]["weights"] = {"time": 0.5, "forward": 0.1, "distance": 0.1}
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_source_and_destination_cross_checks(self):
        doc = valid_doc()
        doc["engine"]["source_id"] = 10  # fleet is 10 -> ids 0..9
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert "source_id" in str(exc.value)

        doc = valid_doc()
        doc["engine"]["source_id"] = 2
        doc["engine"]["destination_id"] = 2
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert "destination_id" in str(exc.value)

    def test_safety_deadline_cap(self):
        doc = valid_doc()
        doc["packet"]["payload_class"] = "safety"
        doc["packet"]["deadline"] = DEFAULT_SAFETY_DEADLINE_CAP + 1.0
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert "safety" in str(exc.value)

    def test_added_value_payload_escapes_the_cap(self):
        doc = valid_doc()
        doc["packet"]["payload_class"] = "added_value"
        doc["packet"]["deadline"] = 900.0
        sc = scenario_from_dict(doc)
        assert sc.packet.deadline == 900.0

    def test_custom_cap_is_honoured(self):
        doc = valid_doc()
        doc["safety_deadline_cap"] = 1000.0
        doc["packet"]["payload_class"] = "safety"
        doc["packet"]["deadline"] = 900.0
        doc["engine"]["duration"] = 900.0
        sc = scenario_from_dict(doc)
        assert sc.packet.deadline == 900.0

    def test_trade_needs_two_vehicles(self):
        doc = valid_doc()
        doc["mobility"]["vehicle_count"] = 1
        doc["incentives"]["scheme"] = "packet_trade"
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert "packet trade" in str(exc.value)

    @pytest.mark.parametrize("vehicle_count", [1, 2, 3])
    def test_rejects_exactly_the_endpoints_run_rejects(self, vehicle_count):
        ids = (None, 0, 1, 3)
        disagree = []
        for source, destination, on_delivery, scheme in itertools.product(
            ids, ids, (False, True), ("second_proposal", "packet_trade")
        ):
            engine = {
                "duration": 2.0,
                "source_id": source,
                "destination_id": destination,
                "settle_on_delivery": on_delivery,
            }
            doc = {
                "mobility": {"vehicle_count": vehicle_count},
                "engine": engine,
                "packet": {"deadline": 2.0},
                "incentives": {"scheme": scheme},
            }
            try:
                scenario_from_dict(doc)
                file_ok = True
            except ValidationError:
                file_ok = False
            try:
                run(
                    MobilityConfig(vehicle_count=vehicle_count),
                    EngineConfig(**engine),
                    IncentiveConfig(scheme=Scheme(scheme)),
                    PacketSpec(deadline=2.0),
                    0,
                )
                run_ok = True
            except ValidationError:
                run_ok = False
            if file_ok != run_ok:
                disagree.append((engine, scheme, f"file ok={file_ok}", f"run ok={run_ok}"))
        assert disagree == []

    def test_problems_end_with_the_engines_run_problems(self):
        # one broken rule of each kind: the seed rule, then an endpoint, the scale and the tick rule
        doc = {
            "seed": -1,
            "mobility": {"vehicle_count": 1, "tick_seconds": 5e-324},
            "engine": {"settle_on_delivery": True},
            "incentives": {"time_scale": 1e-320},
        }
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        sections = (MobilityConfig(**doc["mobility"]), EngineConfig(**doc["engine"]),
                    IncentiveConfig(**doc["incentives"]), PacketSpec())
        expected = run_problems(*sections)
        assert len(expected) == 3
        assert str(exc.value).split("\n  ")[1:] == ["seed: must be non-negative", *expected]

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ValidationError):
            scenario_from_dict(["not", "a", "mapping"])

    @pytest.mark.parametrize(
        "section, key, value",
        [
            *(
                (section, key, value)
                for section, key in [
                    ("packet", "deadline"),
                    ("engine", "duration"),
                    ("engine", "radio_range"),
                    ("mobility", "tick_seconds"),
                    ("mobility", "arena_width"),
                    ("incentives", "time_scale"),
                ]
                for value in (math.nan, math.inf, 10**400)  # an int too large for a float
            ),
            ("mobility", "vehicle_count", 15.5),
            ("engine", "source_id", 2.5),
            ("engine", "settle_on_delivery", "yes"),
            ("packet", "packet_id", 7),
            (None, "safety_deadline_cap", math.nan),
            (None, "name", "../escaped"),
            (None, "name", "a/b"),
            (None, "name", "a\\b"),
            (None, "name", "a\x00b"),
        ],
    )
    def test_value_that_does_not_fit_its_field_is_named(self, section, key, value):
        doc = valid_doc()
        (doc[section] if section else doc)[key] = value
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        label = f"{section}.{key}" if section else key
        assert f"\n  {label}: " in str(exc.value)

    def test_int_literal_for_a_float_field_is_kept_as_written(self, baseline_path):
        doc = yaml.safe_load(baseline_path.read_text(encoding="utf-8"))
        doc["mobility"]["arena_width"] = 800
        sc = scenario_from_dict(doc)
        assert sc.mobility.arena_width == 800
        assert type(sc.mobility.arena_width) is int
        # the digest this document had before the dataclasses became the schema
        assert scenario_hash(sc) == (
            "ff23466f2600c33eeb37dbcfb33ca45dd73ff270b553d80fb394b08674890009"
        )


# a scenario small enough to run in a few milliseconds: 10 vehicles for 20 ticks
SMALL = scenario_from_dict({"mobility": {"vehicle_count": 10, "arena_width": 500.0, "arena_height": 500.0},
                            "engine": {"duration": 20.0}, "packet": {"deadline": 20.0}})
# every key a scenario file can set: the top-level fields, each section's fields and the weights' keys
FIELD_PATHS = [(f.name,) for f in fields(Scenario)]
FIELD_PATHS += [(f.name, g.name) for f in fields(Scenario) if is_dataclass(getattr(SMALL, f.name))
                for g in fields(getattr(SMALL, f.name))]
FIELD_PATHS += [("incentives", "weights", key) for key in SMALL.to_dict()["incentives"]["weights"]]
EXTREME_VALUES = [
    10**400, 2**64,  # past the float range, past uint64
    5e-324, -5e-324, 0, 0.0, -0.0, 1e308, -1e308,
    math.nan, math.inf, -math.inf,
    True, False, "x", "a\x00b", [1.0], {"a": 1}, None,
]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=st.sampled_from(EXTREME_VALUES))
@example(path=("name",), value="a\x00b")  # a file stem the OS refuses
def test_an_extreme_value_in_any_field_is_refused_or_runs(path, value):
    # one field at a time: the document is refused with ValidationError and
    # validate exits 1, or it is accepted, validate exits 0 and the run exits 0
    doc = SMALL.to_dict()  # a fresh document each time
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        scenario = scenario_from_dict(doc)
    except ValidationError:
        scenario = None
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "extreme.yaml"
        file.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["validate", "--scenario", str(file)]) == (1 if scenario is None else 0)
        if scenario is None:
            return
        # one field of a small scenario changed: never a large fleet or a long run
        ticks = min(scenario.engine.duration, scenario.packet.deadline) / scenario.mobility.tick_seconds
        assert scenario.mobility.vehicle_count <= 20 and ticks <= 50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", str(file), "--out", tmp]) == 0


class TestScenarioHash:
    def test_seed_does_not_change_the_hash(self):
        a = scenario_from_dict(valid_doc())
        doc = valid_doc()
        doc["seed"] = 99
        b = scenario_from_dict(doc)
        assert scenario_hash(a) == scenario_hash(b)

    def test_physics_changes_the_hash(self):
        a = scenario_from_dict(valid_doc())
        doc = valid_doc()
        doc["engine"]["radio_range"] = 81.0
        b = scenario_from_dict(doc)
        assert scenario_hash(a) != scenario_hash(b)

    def test_hash_is_stable_across_processes(self):
        # pure function of the canonical dict: same doc, same digest
        assert scenario_hash(scenario_from_dict(valid_doc())) == scenario_hash(
            scenario_from_dict(valid_doc())
        )


class TestLoadScenario:
    def test_yaml_round_trip(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(yaml.safe_dump(valid_doc()), encoding="utf-8")
        sc = load_scenario(p)
        assert sc == scenario_from_dict(valid_doc())

    def test_empty_file_is_the_default_scenario(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("", encoding="utf-8")
        assert load_scenario(p) == Scenario()

    def test_baseline_file_is_valid(self, baseline_path):
        sc = load_scenario(baseline_path)
        assert sc.name == "baseline"
        assert sc.mobility.vehicle_count == 15
        assert sc.mobility.arena_width == 800.0
        assert sc.engine.radio_range == 100.0
        assert sc.incentives.scheme is Scheme.SECOND_PROPOSAL


class TestWithUpdates:
    def test_seed_swap(self):
        sc = scenario_from_dict(valid_doc())
        sc2 = with_updates(sc, seed=42)
        assert sc2.seed == 42
        assert scenario_hash(sc) == scenario_hash(sc2)

    def test_scheme_swap_to_two_term_folds_distance_weight(self):
        sc = scenario_from_dict(valid_doc())
        sc2 = with_updates(sc, scheme=Scheme.BASIC_LINEAR)
        assert sc2.incentives.scheme is Scheme.BASIC_LINEAR
        assert sc2.incentives.weights.distance_weight == 0.0
        assert sc2.incentives.weights.forward_weight == pytest.approx(0.8)
        assert sc2.incentives.weights.time_weight == pytest.approx(0.2)

    def test_scheme_swap_to_baseline_keeps_weights(self):
        sc = scenario_from_dict(valid_doc())
        sc2 = with_updates(sc, scheme=Scheme.PACKET_PURSE)
        assert sc2.incentives.scheme is Scheme.PACKET_PURSE
        assert sc2.incentives.weights == sc.incentives.weights
