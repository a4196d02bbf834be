import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from vanetsim.cli import build_parser, main, parse_seeds
from vanetsim.model import ValidationError


class TestParseSeeds:
    def test_single_and_list(self):
        assert parse_seeds("5") == [5]
        assert parse_seeds("1,2,5") == [1, 2, 5]

    def test_ranges_expand_inclusive(self):
        assert parse_seeds("0-4") == [0, 1, 2, 3, 4]
        assert parse_seeds("3-3") == [3]

    def test_mixed_and_deduplicated(self):
        assert parse_seeds("0-2,2,4,1") == [0, 1, 2, 4]

    def test_whitespace_tolerated(self):
        assert parse_seeds(" 1 , 3-4 ") == [1, 3, 4]

    @pytest.mark.parametrize("bad", ["", ",", "a", "1-a", "-3", "5-2", "1--3"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValidationError):
            parse_seeds(bad)


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "barter"])

    def test_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--format", "xml"])


def run_edited(baseline_path, out, edits: dict[str, str], fmt: str):
    """Run seed 3 of ``baseline.yaml`` with some lines replaced; return the out directory."""
    text = baseline_path.read_text(encoding="utf-8")
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    out.mkdir()
    scenario = out / "baseline.yaml"
    scenario.write_text(text, encoding="utf-8")
    argv = ["run", "--scenario", str(scenario), "--seed", "3", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    return out


class TestRunCommand:
    def test_writes_summary_json(self, tmp_path, capsys, baseline_path):
        rc = main([
            "run", "--scenario", str(baseline_path), "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out_file = tmp_path / "baseline.summary.json"
        assert out_file.is_file()
        doc = json.loads(out_file.read_text())
        assert doc["scenario"]["seed"] == 3
        line = capsys.readouterr().out
        assert "seed=3" in line and str(out_file) in line

    def test_csv_format(self, tmp_path, baseline_path):
        rc = main([
            "run", "--scenario", str(baseline_path), "--format", "csv",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = (tmp_path / "baseline.rows.csv").read_text().splitlines()
        assert rows[0].startswith("vehicle_id,reward,")

    def test_integer_tick_length_writes_the_same_rows(self, tmp_path, baseline_path):
        rows = [
            (run_edited(baseline_path, tmp_path / tag, {"tick_seconds: 1.0": f"tick_seconds: {tag}"}, "csv")
             / "baseline.rows.csv").read_bytes()
            for tag in ("1", "1.0")
        ]
        assert rows[0] == rows[1]

    def test_integer_deadline_writes_the_same_summary(self, tmp_path, baseline_path):
        docs = []
        for tag in ("250", "250.0"):
            edits = {"deadline: 300.0": f"deadline: {tag}", "duration: 300.0": "duration: 400.0"}
            out = run_edited(baseline_path, tmp_path / tag, edits, "json")
            doc = json.loads((out / "baseline.summary.json").read_text(encoding="utf-8"))
            doc["scenario"]["scenario_hash"] = None  # the hash sees the two spellings
            docs.append(doc)
        assert docs[0] == docs[1]
        assert type(docs[0]["scenario"]["settle_time"]) is float

    def test_defaults_without_scenario_file(self, tmp_path):
        rc = main(["run", "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "default.summary.json").is_file()

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch, baseline_path):
        monkeypatch.setenv("VANETSIM_OUT_DIR", str(tmp_path / "from_env"))
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--scenario", str(baseline_path), "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "from_env" / "baseline.summary.json").is_file()

    def test_scheme_override(self, tmp_path, baseline_path):
        rc = main([
            "run", "--scenario", str(baseline_path), "--seed", "2",
            "--scheme", "packet_purse", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "baseline.summary.json").read_text())
        assert doc["scenario"]["scheme"] == "packet_purse"

    def test_missing_scenario_file_is_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_scenario_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        # a bad value, then a file that is not valid YAML at all
        for text in ("mobility:\n  vehicle_count: 0\n", "name: [unclosed\n"):
            bad.write_text(text, encoding="utf-8")
            rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
            assert rc == 1
            assert "invalid scenario" in capsys.readouterr().err


class TestSweepCommand:
    def test_runs_every_seed_and_aggregates(self, tmp_path, capsys, baseline_path):
        rc = main([
            "sweep", "--scenario", str(baseline_path), "--seeds", "0-2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        for seed in (0, 1, 2):
            assert (tmp_path / f"run-s{seed}" / "baseline.summary.json").is_file()
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["runs"] == 3
        assert agg["seeds"] == [0, 1, 2]
        assert agg["stats"]["total_paid"]["n"] == 3
        assert agg["stats"]["total_paid"]["mean"] == pytest.approx(100.0, rel=1e-6)
        assert len(agg["per_seed"]) == 3
        out = capsys.readouterr().out
        assert out.count("run scheme=") == 3
        assert "sweep runs=3" in out

    def test_bad_seed_spec_is_exit_1(self, tmp_path, capsys, baseline_path):
        rc = main([
            "sweep", "--scenario", str(baseline_path), "--seeds", "9-1",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "seed" in capsys.readouterr().err


def test_a_name_past_the_file_name_limit_is_exit_2_before_any_run(tmp_path, capsys, monkeypatch):
    name = "a" * 300
    if len(f"{name}.summary.json") <= os.pathconf(tmp_path, "PC_NAME_MAX"):
        pytest.skip("this file system takes the name")
    runs = []
    monkeypatch.setattr("vanetsim.cli.run_engine", lambda *args: runs.append(args))
    scenario = tmp_path / "long.yaml"
    scenario.write_text(f"name: {name}\n", encoding="utf-8")
    # the limit is the file system's, so no scenario rule states it
    assert main(["validate", "--scenario", str(scenario)]) == 0
    capsys.readouterr()
    kept = tmp_path / "kept"
    kept.mkdir()
    for argv in (["run"], ["sweep", "--seeds", "0-2"]):
        # a fresh --out two levels deep, and one that existed before the call
        for out in (tmp_path / "fresh" / "deep", kept):
            assert main([*argv, "--scenario", str(scenario), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: ")  # an I/O failure, not an internal error
    assert runs == []
    # the directories made for the refused artifact are gone; the one that existed stays
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "long.yaml"]
    assert list(kept.iterdir()) == []


class TestValidateCommand:
    def test_valid_file(self, capsys, baseline_path):
        rc = main(["validate", "--scenario", str(baseline_path)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_nan_duration_is_exit_1_for_validate_and_run(self, tmp_path, capsys):
        bad = tmp_path / "nan.yaml"
        bad.write_text("engine:\n  duration: .nan\n", encoding="utf-8")
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert main([*argv, "--scenario", str(bad)]) == 1
            assert "engine.duration: must be a finite number" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("engine", ["settle_on_delivery: true", "destination_id: 0"])
    def test_one_vehicle_with_a_destination_is_exit_1_for_validate_and_run(
        self, tmp_path, capsys, engine
    ):
        bad = tmp_path / "lone.yaml"
        bad.write_text(f"mobility:\n  vehicle_count: 1\nengine:\n  {engine}\n", encoding="utf-8")
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert main([*argv, "--scenario", str(bad)]) == 1
            assert "needs at least 2 vehicles" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    def test_an_overflowing_time_scale_is_exit_1_for_validate_and_run(self, tmp_path, capsys):
        # a positive, finite scale that puts the 300 s deadline at inf units
        bad = tmp_path / "scale.yaml"
        bad.write_text("incentives:\n  time_scale: 1.0e-320\n", encoding="utf-8")
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert main([*argv, "--scenario", str(bad)]) == 1
            assert "packet.deadline / time_scale must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        ("mobility", "problem"),
        [
            ("arena_width: 1.0e+160\n  arena_height: 1.0e+160", "arena_width**2 + arena_height**2 must be finite"),
            ("speed_max: 1.0e+308\n  tick_seconds: 10.0", "speed_max * tick_seconds must be finite"),
        ],
    )
    def test_an_overflowing_step_is_exit_1_for_validate_and_run(self, tmp_path, capsys, mobility, problem):
        # each value is finite, but a squared distance or a step length would overflow
        bad = tmp_path / "overflow.yaml"
        bad.write_text(f"mobility:\n  {mobility}\n", encoding="utf-8")
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert main([*argv, "--scenario", str(bad)]) == 1
            assert problem in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        "mobility, problem",
        [
            ("arena_width: 1" + "0" * 400, "mobility.arena_width: must be a finite number"),
            # 300 s / 5e-324 s overflows the run's tick count; validation stops the run before its first tick
            ("tick_seconds: 5.0e-324", "mobility.tick_seconds: min(engine.duration, packet.deadline) / tick_seconds"),
        ],
        ids=["int_past_float_range", "subnormal_tick"],
    )
    def test_a_value_past_the_float_range_is_exit_1_for_validate_and_run(self, tmp_path, capsys, mobility, problem):
        bad = tmp_path / "past.yaml"
        bad.write_text(f"mobility:\n  {mobility}\n", encoding="utf-8")
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert main([*argv, "--scenario", str(bad)]) == 1
            assert problem in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    def test_a_tick_count_past_2_53_is_exit_1_for_validate(self, tmp_path, capsys):
        # validated only, never run: 300 s in 1e-300 s ticks is ~3e302 of them
        bad = tmp_path / "tiny_tick.yaml"
        bad.write_text("mobility:\n  tick_seconds: 1.0e-300\n", encoding="utf-8")
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "/ tick_seconds must be at most 2**53" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["1000000000000", "1" + "0" * 400], ids=["1e12", "int_past_float_range"])
    def test_a_fleet_past_the_pair_code_bound_is_exit_1_for_validate_and_run(self, tmp_path, capsys,
                                                                              monkeypatch, count):
        # validation alone must stop it: such a run would allocate terabytes
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("vanetsim.cli.run_engine", no_run)
        bad = tmp_path / "fleet.yaml"
        bad.write_text(f"mobility:\n  vehicle_count: {count}\n", encoding="utf-8")
        for argv in (["validate"], ["run", "--out", str(tmp_path)]):
            assert main([*argv, "--scenario", str(bad)]) == 1
            assert "vehicle_count must be at most 3037000500" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    def test_an_overflowing_product_score_is_exit_1_for_validate(self, tmp_path, capsys):
        # (300 s / 3e-198)**2 overflows the first proposal's product-mode time credit
        bad = tmp_path / "product.yaml"
        bad.write_text(
            "incentives:\n  scheme: first_proposal\n  weights: {time: 0.5, forward: 0.5, distance: 0.0}\n"
            "  first_proposal_mode: product\n  time_scale: 3.0e-198\n",
            encoding="utf-8",
        )
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "must sum to a finite total" in capsys.readouterr().err

    def test_invalid_file_lists_every_problem(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "seed: -2\nmobility:\n  vehicle_count: 0\n  warp: 9\n", encoding="utf-8"
        )
        rc = main(["validate", "--scenario", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        for frag in ("seed:", "mobility:", "mobility.warp"):
            assert frag in err


# Runs in a fresh interpreter: this test session has imported scipy already.
SCIPY_PROBE = """
import json, sys
import vanetsim.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

small, large, out = sys.argv[1:]
seen = {"import": scipy_modules()}
assert cli.main(["run", "--scenario", small, "--out", out]) == 0
seen["run15"] = scipy_modules()
assert cli.main(["run", "--scenario", large, "--out", out]) == 0
seen["run128"] = scipy_modules()
print(json.dumps(seen))
"""


def test_runs_load_no_scipy(tmp_path, baseline_path):
    # 128 vehicles take the neighbour list built on the cell grid; 15 the pair scan
    text = baseline_path.read_text(encoding="utf-8")
    large = tmp_path / "fleet128.yaml"
    large.write_text(
        text.replace("name: baseline", "name: fleet128").replace("vehicle_count: 15", "vehicle_count: 128"),
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(baseline_path), str(large), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "run15": [], "run128": []}
    assert (tmp_path / "fleet128.summary.json").is_file()
