import hashlib
import json
from pathlib import Path

import pytest

from fairbandit.analysis import disparity_report
from fairbandit.cli import main
from fairbandit.experiment import ExperimentSpec, run_experiment
from fairbandit.simworld import Condition, SimPlayer, StudyConfig
from fairbandit.verification import run_axiom_suite


def tiny_spec_dict(replications=4, base_seed=500):
    players = [
        {"baseline_steps": 10000.0, "noise_sd": 800.0, "sco": 0.6, "effect_size": 600.0,
         "adherence_intercept": -1.1, "adherence_slope": 1.0},
        {"baseline_steps": 8600.0, "noise_sd": 800.0, "sco": -0.6, "effect_size": 900.0,
         "adherence_intercept": -1.1, "adherence_slope": 1.0},
    ]
    return {
        "scenario": "tiny",
        "replications": replications,
        "base_seed": base_seed,
        "conditions": [
            {"condition": name, "players": players} for name in ("control", "greedy", "shapley")
        ],
    }


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRun:
    def test_spec_file_run_emits_manifest_complete_artifacts(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict()))
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = set(tree_hashes(out))
        assert set(manifest["files"]) == on_disk
        assert manifest["seeds"] == [500, 501, 502, 503]
        for cond in ("control", "greedy", "shapley"):
            assert (out / cond / "rep_0000" / "log.csv").exists()
            assert (out / cond / "rep_0000" / "decisions.jsonl").exists()
        assert "scenario tiny" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--spec", str(spec_path), "--out", str(out1)]) == 0
        assert main(["run", "--spec", str(spec_path), "--out", str(out2)]) == 0
        assert tree_hashes(out1) == tree_hashes(out2)

    def test_zero_replications_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(replications=0)))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "replications" in capsys.readouterr().err

    def test_bundled_scenario_runs(self, tmp_path):
        out = tmp_path / "null"
        code = main(["run", "--scenario", "null-cohort", "--replications", "3",
                     "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").exists()

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--replications", "0"), ("--replications", "-2"), ("--jobs", "0"), ("--jobs", "-1")],
    )
    def test_non_positive_count_flags_exit_2(self, tmp_path, capsys, flag, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict()))
        out = tmp_path / "o"
        assert exit_code(["run", "--spec", str(spec_path), "--out", str(out), flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_condition_names_rejected(self, tmp_path, capsys):
        doc = tiny_spec_dict()
        doc["conditions"] = [doc["conditions"][1], doc["conditions"][1]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "unique" in capsys.readouterr().err


class TestWorkedExample:
    def test_default_passes(self, capsys):
        assert main(["worked-example"]) == 0
        out = capsys.readouterr().out
        assert "worked example: PASS" in out
        assert out.count("[PASS]") == 8

    def test_perturbed_state_fails_with_diff(self, capsys):
        assert main(["worked-example", "--csv", "20000,32800"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "worked example: FAIL" in out

    def test_tight_tolerance_still_passes(self):
        assert main(["worked-example", "--tolerance", "1e-3"]) == 0


class TestAxioms:
    def test_default_suite_passes(self, capsys):
        assert main(["axioms", "--trials", "25", "--max-n", "5", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_trials_vacuous_pass_with_warning(self, capsys):
        assert main(["axioms", "--trials", "0"]) == 0
        assert "warning" in capsys.readouterr().out.lower()

    def test_max_n_larger_than_oracle_limit_rejected(self, capsys):
        assert main(["axioms", "--max-n", "9"]) == 2

    def test_broken_implementation_detected(self):
        # injected non-efficient attribution must fail the suite
        def broken(v, coalition, max_players=16):
            return [0.0 for _ in coalition]

        result = run_axiom_suite(trials=10, max_n=4, seed=1, shapley_fn=broken)
        assert not result.passed
        assert any("oracle" in f for f in result.failures)


class TestAnalyze:
    HAND_CSV = (
        "day,player,steps,missed,pre_motivation,post_motivation,arm,mode,"
        "catered_player,artificial_steps,best_arm,worst_arm,baseline_mean\n"
        + "\n".join(
            [
                "1,0,8000.0,0,3,3,A,exploit,,10000.0,A,C,8000.0",
                "2,0,8000.0,0,3,3,A,exploit,,10000.0,A,C,8000.0",
                "3,0,8000.0,0,3,3,A,exploit,,10000.0,A,C,8000.0",
                "4,0,8000.0,0,3,3,A,exploit,,10000.0,A,C,8000.0",
                "1,1,,1,,,A,exploit,,10000.0,A,C,10000.0",
                "2,1,10000.0,0,3,3,A,exploit,,10000.0,A,C,10000.0",
                "3,1,10000.0,0,3,3,A,exploit,,10000.0,A,C,10000.0",
                "4,1,10000.0,0,3,3,C,exploit,,10000.0,A,C,10000.0",
                "1,2,,1,,,A,exploit,,10000.0,A,C,12000.0",
                "2,2,,1,,,A,exploit,,10000.0,A,C,12000.0",
                "3,2,12000.0,0,3,3,C,exploit,,10000.0,A,C,12000.0",
                "4,2,12000.0,0,3,3,C,exploit,,10000.0,A,C,12000.0",
            ]
        )
        + "\n"
    )

    def test_simulator_output_round_trips(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(replications=6)))
        out = tmp_path / "run"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        logs = sorted(str(p) for p in (out / "greedy").glob("rep_*/log.csv"))
        report_dir = tmp_path / "report"
        assert main(["analyze", *logs, "--out", str(report_dir)]) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["n"] == 12
        assert -1.0 <= report["pearson_r"] <= 1.0

    def test_hand_crafted_log_matches_hand_computed_disparities(self, tmp_path, capsys):
        path = tmp_path / "hand.csv"
        path.write_text(self.HAND_CSV)
        report_dir = tmp_path / "rep"
        code = main(
            ["analyze", str(path), "--out", str(report_dir), "--intervention-start", "3"]
        )
        assert code == 0
        rows = (report_dir / "report.csv").read_text().splitlines()
        assert rows[0] == "player,disparity,miss_likelihood,effort,treatment"
        # efforts 8000<10000<12000 vs treatments +2>0>-2: disparities -1,0,+1
        data = {line.split(",")[0]: line.split(",") for line in rows[1:]}
        assert float(data["hand:p0"][1]) == pytest.approx(-1.0)
        assert float(data["hand:p1"][1]) == pytest.approx(0.0)
        assert float(data["hand:p2"][1]) == pytest.approx(1.0)
        assert float(data["hand:p2"][2]) == pytest.approx(0.5)
        assert "r=1.0000" in capsys.readouterr().out

    def test_malformed_header_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("day,player,steps\n1,0,100\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "missing columns" in err
        assert "missed" in err

    def test_too_few_players_is_error(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        lines = [line for line in self.HAND_CSV.splitlines() if not line.startswith(("1,2", "2,2", "3,2", "4,2"))]
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "r"),
                     "--intervention-start", "3"]) == 2
        assert "at least 3" in capsys.readouterr().err


class TestSpecLoading:
    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json")
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("in_condition, key", [(True, "epsilom"), (False, "replicatons")])
    def test_misspelled_key_is_config_error(self, tmp_path, capsys, in_condition, key):
        doc = tiny_spec_dict()
        (doc["conditions"][2] if in_condition else doc)[key] = 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_spec_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[]")
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_spec_round_trip(self):
        spec = ExperimentSpec(
            scenario="t",
            conditions=(
                StudyConfig(
                    condition=Condition.GREEDY,
                    players=(SimPlayer(baseline_steps=9000.0), SimPlayer(baseline_steps=9100.0)),
                ),
            ),
            replications=2,
            base_seed=7,
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.spec_hash() == ExperimentSpec.from_dict(spec.to_dict()).spec_hash()

    def test_run_window_follows_forced_exploration_days(self, tmp_path):
        doc = tiny_spec_dict(replications=10)
        for condition in doc["conditions"]:
            condition["forced_exploration_days"] = 12
        result = run_experiment(ExperimentSpec.from_dict(doc), tmp_path, write_artifacts=False)
        moved = 0
        for row in result.condition_summaries:
            logs = result.logs[row["condition"]]
            assert row["disparity_miss_r"] == disparity_report(logs, 13).correlation.r
            moved += row["disparity_miss_r"] != disparity_report(logs, 10).correlation.r
        assert moved

    def test_parallel_jobs_match_serial(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(replications=4)))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["run", "--spec", str(spec_path), "--out", str(serial)]) == 0
        assert main(["run", "--spec", str(spec_path), "--out", str(parallel), "--jobs", "2"]) == 0
        assert tree_hashes(serial) == tree_hashes(parallel)
