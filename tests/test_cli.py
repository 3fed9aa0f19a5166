import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairbandit.analysis import disparity_report, write_report_csv, write_report_json
from fairbandit.cli import main
from fairbandit.experiment import ExperimentSpec, run_experiment
from fairbandit.scenarios import load_scenario
from fairbandit.logs import read_log_csv
from fairbandit.simworld import Condition, ConfigError, SimPlayer, StudyConfig
from fairbandit import verification
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

    @pytest.mark.parametrize(
        "seed, replications",
        [(2**64, 1), (-1, 1), (-3, 2), (2**64 - 1, 2), (2**64 - 3, 4)],
    )
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed, replications):
        # SplitMix64 keeps a seed's low 64 bits, so 2**64 would run seed 0's
        # studies and -1 seed 2**64 - 1's under another name.
        out = tmp_path / "o"
        argv = ["run", "--scenario", "study-protocol", "--replications", str(replications),
                "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 2
        assert "[0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_range_reaches_the_last_64_bit_seed(self, tmp_path):
        out = tmp_path / "o"
        argv = ["run", "--scenario", "study-protocol", "--replications", "2",
                "--seed", str(2**64 - 2), "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [2**64 - 2, 2**64 - 1]

    def test_seed_range_is_checked_after_both_overrides(self, tmp_path):
        # The file's last seed is 2**64 - 1: three replications fit only
        # once --seed moves the base.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(replications=1, base_seed=2**64 - 1)))
        out = tmp_path / "o"
        argv = ["run", "--spec", str(spec_path), "--replications", "3", "--seed", "7",
                "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [7, 8, 9]

    def test_out_naming_a_regular_file_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict()))
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_used_out_exits_2_before_writing(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(replications=2)))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        before = tree_hashes(out)
        capsys.readouterr()
        argv = ["run", "--scenario", "study-protocol", "--replications", "1", "--out", str(out)]
        assert main(argv) == 2
        assert f"run: output directory {out} is not empty" in capsys.readouterr().err
        assert tree_hashes(out) == before

    def test_duplicate_condition_names_rejected(self, tmp_path, capsys):
        doc = tiny_spec_dict()
        doc["conditions"] = [doc["conditions"][1], doc["conditions"][1]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "unique" in capsys.readouterr().err

    def test_too_few_players_for_the_fisher_test_still_completes(self, tmp_path):
        # One player of each team misses every session, so each report
        # pools 3 players: too few for the Fisher z between conditions.
        players = [
            {"baseline_steps": 10000.0, "noise_sd": 500.0, "adherence_intercept": 20.0},
            {"baseline_steps": 9000.0, "noise_sd": 500.0, "sco": 0.5, "effect_size": 800.0},
        ]
        doc = {
            "scenario": "three-players",
            "replications": 3,
            "conditions": [{"condition": c, "players": players} for c in ("greedy", "shapley")],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [row["disparity_miss_n"] for row in summary["conditions"]] == [3, 3]
        assert summary["greedy_vs_shapley"]["paired_replications"] == 3
        assert "fisher_z" not in summary["greedy_vs_shapley"]
        assert set(json.loads((out / "manifest.json").read_text())["files"]) == set(tree_hashes(out))


class TestWorkedExample:
    def test_default_passes(self, capsys):
        assert main(["worked-example"]) == 0
        out = capsys.readouterr().out
        assert "worked example: PASS" in out
        assert out.count("[PASS]") == 8

    def test_perturbed_state_fails_with_diff(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "WORKED_EXAMPLE_CSV", (20000.0, 32800.0))
        assert main(["worked-example"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "worked example: FAIL" in out

    def test_tight_tolerance_still_passes(self):
        # the expected figures are given to 3 decimals, and every computed
        # figure lies within that of its expected value
        assert verification.WORKED_EXAMPLE_TOLERANCE <= 1e-3
        result = verification.verify_worked_example()
        assert result.passed
        for check in result.checks:
            if isinstance(check.expected, float):
                assert abs(check.actual - check.expected) <= 1e-3, check.line()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--csv", "nan,1"],
            ["--csv", "inf,1"],
            ["--csv=0,0"],
            ["--csv=-5,3"],
            ["--tc=-1,2"],
            ["--tc", "0,0"],
            ["--tolerance", "nan"],
            ["--tolerance", "-1"],
            ["--tolerance", "inf", "--csv", "1,2"],
        ],
        ids=" ".join,
    )
    def test_undefined_or_vacuous_input_exits_2(self, capsys, flags):
        # the worked example takes no inputs: any flag but -h is refused
        # before the example runs, so nothing can report PASS
        with pytest.raises(SystemExit) as exit:
            main(["worked-example", *flags])
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert "PASS" not in captured.out


class TestAxioms:
    def test_default_suite_passes(self, capsys):
        assert main(["axioms", "--trials", "25", "--max-n", "5", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_trials_vacuous_pass_with_warning(self, capsys):
        assert main(["axioms", "--trials", "0"]) == 0
        assert "warning" in capsys.readouterr().out.lower()

    def test_negative_trials_rejected(self, capsys):
        assert main(["axioms", "--trials", "-3"]) == 2
        assert "trials" in capsys.readouterr().err

    def test_max_n_larger_than_oracle_limit_rejected(self, capsys):
        assert main(["axioms", "--max-n", "9"]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_exits_2(self, capsys, seed):
        assert main(["axioms", "--trials", "3", "--seed", str(seed)]) == 2
        assert "[0, 2**64)" in capsys.readouterr().err

    def test_last_64_bit_seed_runs(self, capsys):
        assert main(["axioms", "--trials", "3", "--max-n", "4", "--seed", str(2**64 - 1)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_broken_implementation_detected(self, monkeypatch):
        # injected non-efficient attribution must fail the suite
        def broken(v, coalition):
            return [0.0 for _ in coalition]

        monkeypatch.setattr("fairbandit.shapley.shapley_all", broken)
        result = run_axiom_suite(trials=10, max_n=4, seed=1)
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

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"1,\xff\n", "line 14: not utf-8 text"),
            (b"1," + b"9" * 131073 + b"\n", "line 14: field larger than field limit"),
        ],
        ids=["undecodable-byte", "oversized-field"],
    )
    def test_undecodable_or_unsplittable_log_is_schema_error(self, tmp_path, capsys, tail, message):
        path = tmp_path / "broken.csv"
        path.write_bytes(self.HAND_CSV.encode() + tail)
        assert main(["analyze", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.lower().startswith(f"analyze: {path}: {message}".lower())

    def test_out_naming_a_regular_file_exits_2_before_reading_logs(
        self, tmp_path, capsys, monkeypatch
    ):
        import fairbandit.cli as cli

        read = []
        monkeypatch.setattr(cli, "read_log_csv", lambda *a, **k: read.append(a))
        path = tmp_path / "hand.csv"
        path.write_text(self.HAND_CSV)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        assert f"analyze: cannot create output directory {out}" in capsys.readouterr().err
        assert read == []
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink", "hardlink"])
    def test_log_given_twice_exits_2_before_reading_logs(
        self, tmp_path, capsys, monkeypatch, spelling
    ):
        import fairbandit.cli as cli

        read = []
        monkeypatch.setattr(cli, "read_log_csv", lambda *a, **k: read.append(a))
        path = tmp_path / "hand.csv"
        path.write_text(self.HAND_CSV)
        other = tmp_path / "other.csv"
        other.write_text(self.HAND_CSV)
        (tmp_path / "sub").mkdir()
        twice = {
            "same": path,
            "dotdot": tmp_path / "sub" / ".." / "hand.csv",
            "symlink": tmp_path / "sub" / "symlink.csv",
            "hardlink": tmp_path / "sub" / "hardlink.csv",
        }[spelling]
        if spelling == "symlink":
            twice.symlink_to(path)
        if spelling == "hardlink":
            twice.hardlink_to(path)
        out = tmp_path / "r"
        assert main(["analyze", str(path), str(other), str(twice), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"analyze: {twice}: given twice\n"
        assert read == []
        assert not out.exists()

    def test_missing_log_exits_2_naming_the_os_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["analyze", str(missing), str(missing), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith(
            f"analyze: {missing}: [Errno 2] No such file or directory"
        )

    def test_shared_stems_are_labelled_by_path_below_common_directory(self, tmp_path):
        paths = []
        for rep in ("rep_0000", "rep_0001"):
            path = tmp_path / "greedy" / rep / "log.csv"
            path.parent.mkdir(parents=True)
            path.write_text(self.HAND_CSV)
            paths.append(str(path))
        extra = tmp_path / "greedy" / "extra.csv"
        extra.write_text(self.HAND_CSV)
        out = tmp_path / "r"
        assert main(["analyze", *paths, str(extra), "--out", str(out),
                     "--intervention-start", "3"]) == 0
        with open(out / "report.csv", newline="") as fh:
            labels = sorted(rec["player"] for rec in csv.DictReader(fh))
        assert labels == sorted(
            f"{log}:p{player}"
            for log in ("rep_0000/log", "rep_0001/log", "extra")
            for player in range(3)
        )

    def test_too_few_players_is_error(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        lines = [line for line in self.HAND_CSV.splitlines() if not line.startswith(("1,2", "2,2", "3,2", "4,2"))]
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "r"),
                     "--intervention-start", "3"]) == 2
        assert "at least 3" in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["0", "-3"])
    def test_non_positive_intervention_start_exits_2(self, tmp_path, capsys, start):
        path = tmp_path / "hand.csv"
        path.write_text(self.HAND_CSV)
        out = tmp_path / "r"
        assert exit_code(["analyze", str(path), "--out", str(out),
                          f"--intervention-start={start}"]) == 2
        assert "--intervention-start" in capsys.readouterr().err
        assert not out.exists()

    def test_window_past_every_log_reports_zero_players(self, tmp_path, capsys):
        path = tmp_path / "hand.csv"
        path.write_text(self.HAND_CSV)
        assert main(["analyze", str(path), "--out", str(tmp_path / "r"),
                     "--intervention-start", "99"]) == 2
        assert "need at least 3 analyzable players, got 0" in capsys.readouterr().err

    @staticmethod
    def forced_run(tmp_path, forced: int, name: str) -> Path:
        """A conflict-cohort 3x5 run whose forced exploration lasts `forced`
        days, so that its analysis window starts on day `forced + 1`."""
        doc = load_scenario("conflict-cohort", 5, None).to_dict()
        for condition in doc["conditions"]:
            condition["forced_exploration_days"] = forced
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        return out

    def test_window_is_taken_from_the_logs_forced_rows(self, tmp_path):
        out = self.forced_run(tmp_path, 3, "forced3")
        logs = sorted(str(p) for p in (out / "greedy").glob("rep_*/log.csv"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", *logs, "--out", str(tmp_path / "r")]) == 0
            assert main(["analyze", *logs, "--out", str(tmp_path / "r10"),
                         "--intervention-start", "10"]) == 0
        own = json.loads((out / "greedy" / "report.json").read_text())
        got = json.loads((tmp_path / "r" / "report.json").read_text())
        assert got == own
        # An explicit flag still overrides the window the logs carry.
        forced = json.loads((tmp_path / "r10" / "report.json").read_text())
        assert forced["pearson_r"] != own["pearson_r"]

    def test_a_log_without_forced_rows_is_analysed_from_day_1(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(self.HAND_CSV)
        for out, flag in (("default", []), ("day1", ["--intervention-start", "1"])):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", str(path), "--out", str(tmp_path / out), *flag]) == 0
        assert (tmp_path / "default" / "report.csv").read_bytes() == (
            tmp_path / "day1" / "report.csv"
        ).read_bytes()

    def test_logs_whose_windows_differ_exit_2_naming_two(self, tmp_path, capsys):
        day4 = self.forced_run(tmp_path, 3, "forced3") / "greedy" / "rep_0000" / "log.csv"
        day7 = self.forced_run(tmp_path, 6, "forced6") / "greedy" / "rep_0001" / "log.csv"
        out = tmp_path / "r"
        assert main(["analyze", str(day4), str(day7), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("analyze: ")
        assert f"{day4} starts its window on day 4" in err
        assert f"{day7} on day 7" in err
        assert not (out / "report.json").exists()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", str(day4), str(day7), "--out", str(out),
                         "--intervention-start", "5"]) == 0

    @pytest.fixture(scope="class")
    def windows(self, tmp_path_factory):
        """Two logs whose window starts on day 4 and one on day 7, in the
        order day 4, day 7, day 4."""
        root = tmp_path_factory.mktemp("windows")
        forced3 = self.forced_run(root, 3, "forced3") / "greedy"
        forced6 = self.forced_run(root, 6, "forced6") / "greedy"
        return [
            forced3 / "rep_0000" / "log.csv",
            forced6 / "rep_0001" / "log.csv",
            forced3 / "rep_0002" / "log.csv",
        ]

    def test_a_schema_error_is_named_before_windows_are_judged(
        self, tmp_path, capsys, windows
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("day,player,steps\n1,0,100\n")
        out = tmp_path / "r"
        assert main(["analyze", *map(str, windows[:2]), str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"analyze: {bad}: ")
        assert "missing columns" in err
        assert "window" not in err
        assert not (out / "report.json").exists()

    def test_three_logs_in_two_windows_name_the_last_log_of_the_first(
        self, tmp_path, capsys, windows
    ):
        day4, day7, day4_again = windows
        assert main(["analyze", *map(str, windows), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"analyze: {day4_again} starts its window on day 4 but {day7} on day 7;"
            " pass --intervention-start\n"
        )

    def test_intervention_start_matches_the_in_memory_report(self, tmp_path, windows):
        out = tmp_path / "r"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", *map(str, windows), "--out", str(out),
                         "--intervention-start", "5"]) == 0
        root = windows[0].parents[3]
        logs = [
            read_log_csv(path, name=path.relative_to(root).with_suffix("").as_posix())
            for path in windows
        ]
        report = disparity_report(logs, 5)
        write_report_csv(report, tmp_path / "want.csv")
        write_report_json(report, tmp_path / "want.json")
        assert (out / "report.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert (out / "report.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_analyze_holds_no_log_past_its_tally(self, tmp_path):
        """Each log is read, tallied and dropped before the next is read:
        the tracemalloc peak over 300 conflict-cohort logs is about 0.7 MB
        (3.0 MB when every log was held until the report)."""
        run = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--scenario", "conflict-cohort", "--replications", "1",
                         "--out", str(run)]) == 0
        sources = sorted(run.glob("*/rep_0000/log.csv"))
        assert len(sources) == 3
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        paths = [str(corpus / f"log_{k:03d}.csv") for k in range(300)]
        for k, path in enumerate(paths):
            shutil.copyfile(sources[k % 3], path)
        out = tmp_path / "r"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", *paths[:3], "--out", str(tmp_path / "warm")]) == 0
            tracemalloc.start()
            try:
                code = main(["analyze", *paths, "--out", str(out)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 1.5e6
        logs = [read_log_csv(path, name=Path(path).stem) for path in paths]
        write_report_json(disparity_report(logs), tmp_path / "want.json")
        assert (out / "report.json").read_bytes() == (tmp_path / "want.json").read_bytes()


FUZZ_VALUES = st.one_of(
    st.sampled_from(
        ["", "0", "1", "-1", "2", "-5", "nan", "-nan", "inf", "-inf", "1e308",
         "1.7976931348623157e308", "5e-324", "-0.0", "A", "c", "D", " b ", "AB",
         "exploit", "forced", "explore", "x", "3.5", "99999999999999999999"]
    ),
    st.floats().map(repr),
    st.integers(-5, 30).map(str),
    st.text(alphabet="0123456789.-+eEinfaABC ", max_size=6),
)


def edited_csv(text: str, edits, duplicate: int | None, drop: int | None) -> str:
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row, column, value in edits:
        rows[row % len(rows)][column] = value
    if duplicate is not None:
        rows.append(list(rows[duplicate % len(rows)]))
    if drop is not None:
        del rows[drop % len(rows)]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([lines[0].split(","), *rows])
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 12), FUZZ_VALUES), min_size=1, max_size=4
    ),
    duplicate=st.none() | st.integers(0, 11),
    drop=st.none() | st.integers(0, 11),
)
# two finite step counts whose sum overflows a player's effort
@example(edits=[(2, 2, "1.7976931348623157e308"), (3, 2, "1e308")], duplicate=None, drop=None)
def test_analyze_fuzz_rejects_or_reports_finite(edits, duplicate, drop):
    """Any edit of a valid log is rejected with a message (exit 2) or
    gives a report whose every number is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_text(edited_csv(TestAnalyze.HAND_CSV, edits, duplicate, drop))
        out = Path(tmp) / "report"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["analyze", str(path), "--out", str(out), "--intervention-start", "3"])
        if code == 2:
            assert err.getvalue().startswith("analyze: ")
            return
        assert code == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) >= 3
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row[1:]), row
        report = json.loads((out / "report.json").read_text())
        for key, value in report.items():
            assert value is None or math.isfinite(value), (key, value)


def test_run_tallies_each_log_once(tmp_path, monkeypatch):
    import fairbandit.analysis as analysis
    import fairbandit.experiment as experiment

    calls = Counter()
    log_metrics = analysis.log_metrics

    def counting(log, *args, **kwargs):
        calls[log.name] += 1
        return log_metrics(log, *args, **kwargs)

    for module in (analysis, experiment):
        monkeypatch.setattr(module, "log_metrics", counting)
    spec = ExperimentSpec.from_dict(tiny_spec_dict(replications=20))
    result = run_experiment(spec, tmp_path / "out")
    during_run = calls.copy()
    names = [log.name for condition_logs in result.logs.values() for log in condition_logs]
    assert len(set(names)) == 60
    assert (tmp_path / "out" / "shapley" / "rep_0019" / "summary.json").exists()
    assert during_run == Counter({name: 1 for name in names})


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

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("condition", "jitter", "false"),
            ("condition", "jitter", 0),
            ("spec", "replications", 2.7),
            ("spec", "replications", True),
            ("spec", "base_seed", "5"),
            ("spec", "scenario", ["a"]),
            ("spec", "output_dir", 5),
            ("condition", "baseline_days", 2.5),
            ("condition", "total_sessions", 21.0),
            ("condition", "seed", None),
            ("condition", "step_scale", "1000"),
            ("condition", "step_scale", 0),
            ("player", "baseline_steps", float("inf")),
            ("player", "sco", False),
            ("condition", "condition", "bogus"),
            ("condition", "players", {"a": 1}),
        ],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, where, key, value):
        doc = tiny_spec_dict()
        target = {"spec": doc, "condition": doc["conditions"][1],
                  "player": doc["conditions"][1]["players"][0]}[where]
        target[key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o" / "greedy").exists()

    @pytest.mark.parametrize(
        "where, key",
        [("spec", "scenario"), ("spec", "replications"), ("condition", "players"),
         ("player", "baseline_steps")],
    )
    def test_missing_key_is_config_error(self, tmp_path, capsys, where, key):
        doc = tiny_spec_dict()
        target = {"spec": doc, "condition": doc["conditions"][1],
                  "player": doc["conditions"][1]["players"][0]}[where]
        del target[key]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert f"missing key: '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "player, condition, named",
        [
            ({"baseline_steps": 1e308}, {}, "baseline_steps"),
            (
                {"baseline_steps": 1.5e308, "noise_sd": 1e308, "sco": 1.0, "effect_size": 1e308},
                {},
                "noise_sd",
            ),
            ({}, {"step_scale": 1e-310}, "step_scale"),
        ],
    )
    def test_spec_whose_totals_overflow_is_config_error(
        self, tmp_path, capsys, player, condition, named
    ):
        doc = tiny_spec_dict(replications=2)
        greedy = doc["conditions"][1] | condition
        first, second = greedy["players"]
        doc["conditions"] = [greedy | {"players": [first | player, second]}]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert exit_code(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # Each study's 48 player-days of a peak near float_max / 49 stay
    # finite, but the condition's steps_vs_baseline adds 400 such terms.
    @pytest.mark.parametrize("replications, override", [(200, []), (3, ["--replications", "200"])])
    def test_spec_whose_condition_mean_overflows_is_config_error(
        self, tmp_path, capsys, monkeypatch, replications, override
    ):
        import fairbandit.cli as cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("spec was run"))
        doc = tiny_spec_dict(replications=replications)
        for condition in doc["conditions"]:
            condition["players"] = [
                {"baseline_steps": b, "sco": 1.0, "effect_size": sys.float_info.max / 49}
                for b in (1.0, 2.0)
            ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        argv = ["run", "--spec", str(spec_path), "--out", str(tmp_path / "o"), *override]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("run: ") and "Traceback" not in err
        assert "200 replications" in err and "400" in err and "steps_vs_baseline" in err
        assert not (tmp_path / "o").exists()

    def test_scenario_whose_replications_overflow_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        import fairbandit.cli as cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("spec was run"))
        replications = str(10**304)
        argv = ["run", "--scenario", "study-protocol", "--replications", replications,
                "--out", str(tmp_path / "o")]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("run: ") and replications in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_condition_mean_bound_counts_every_replication(self):
        # float_max / peak is 49.0: 24 replications give 48 terms, 25 give 50.
        team = tuple(
            SimPlayer(baseline_steps=b, sco=1.0, effect_size=sys.float_info.max / 49)
            for b in (1.0, 2.0)
        )
        cfg = StudyConfig(condition=Condition.GREEDY, players=team)
        spec = ExperimentSpec(scenario="edge", conditions=(cfg,), replications=24)
        summary = run_experiment(spec, "unused", write_artifacts=False).condition_summaries[0]
        assert math.isfinite(summary["steps_vs_baseline"])
        with pytest.raises(ConfigError, match="greedy: 25 replications"):
            replace(spec, replications=25)

    def test_spec_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[]")
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "repeat, path",
        [
            ('"replications": 3, "replications": 2', '["replications"]'),
            ('"condition": "greedy", "condition": "shapley"', '["conditions"][0]["condition"]'),
        ],
    )
    def test_spec_that_repeats_a_key_is_config_error(
        self, tmp_path, capsys, monkeypatch, repeat, path
    ):
        import fairbandit.cli as cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("spec was run"))
        doc = tiny_spec_dict(replications=3)
        doc["conditions"] = [{"condition": "greedy", "players": doc["conditions"][0]["players"]}]
        text = json.dumps(doc).replace(repeat.split(", ")[0], repeat)
        assert text.count(repeat) == 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        assert exit_code(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"run: spec has a repeated key {path}\n"
        assert not (tmp_path / "o").exists()
        with pytest.raises(ConfigError, match="repeated key"):
            ExperimentSpec.from_json(spec_path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_spec_path_is_config_error(self, tmp_path, capsys, kind):
        spec_path = tmp_path / "spec.json"
        if kind == "directory":
            spec_path.mkdir()
        assert exit_code(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert f"run: cannot read spec {spec_path}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("conditions", [5, {"greedy": {}}, None])
    def test_conditions_that_are_not_a_list_are_config_error(self, tmp_path, capsys, conditions):
        doc = tiny_spec_dict() | {"conditions": conditions}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert exit_code(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "run: experiment spec: conditions must be a list" in capsys.readouterr().err

    def test_spec_without_conditions_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict() | {"conditions": []}))
        assert exit_code(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "run: an experiment needs at least one condition" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("forced", [0, 3])
    def test_spec_without_sessions_is_config_error(self, tmp_path, capsys, forced):
        doc = tiny_spec_dict()
        for condition in doc["conditions"]:
            condition.update(total_sessions=0, forced_exploration_days=forced)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert exit_code(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "run: total_sessions must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_condition_seed_is_config_error(self, tmp_path, capsys):
        # Replication k runs every condition at base_seed + k, so a condition's
        # own seed would change the spec hash and nothing else.
        doc = tiny_spec_dict()
        doc["conditions"][1]["seed"] = 5
        with pytest.raises(ConfigError, match="condition greedy: seed 5"):
            ExperimentSpec.from_dict(doc)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "run: condition greedy: seed 5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        doc["conditions"][1]["seed"] = 0
        assert ExperimentSpec.from_dict(doc) == ExperimentSpec.from_dict(tiny_spec_dict())

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

    def test_parallel_jobs_match_serial(self, tmp_path, monkeypatch):
        """`--jobs 2` runs one real 2-worker pool, also on a host whose
        affinity set holds one CPU, and writes the serial run's tree: at 4
        replications one seed per task, at 19 two seeds per task with a
        short last chunk."""
        import fairbandit.experiment as experiment

        started, chunks = [], []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunks.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        for replications, chunksize in [(4, 1), (19, 2)]:
            started.clear()
            chunks.clear()
            spec_path = tmp_path / f"spec{replications}.json"
            spec_path.write_text(json.dumps(tiny_spec_dict(replications=replications)))
            serial, parallel = tmp_path / f"s{replications}", tmp_path / f"p{replications}"
            assert main(["run", "--spec", str(spec_path), "--out", str(serial)]) == 0
            assert started == []
            assert main(["run", "--spec", str(spec_path), "--out", str(parallel), "--jobs", "2"]) == 0
            assert (started, chunks) == ([2], [chunksize])
            assert tree_hashes(serial) == tree_hashes(parallel)

    def test_pool_module_loads_only_for_a_pool_and_leaves_no_worker(self, tmp_path):
        """Through `experiment.ProcessPoolExecutor` itself, in a fresh
        interpreter: an in-memory run and a `--jobs 1` run import no pool
        module; a `--jobs 2` run imports it, writes the `--jobs 1` tree and
        leaves no worker alive, also when a task raises."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(replications=4)))
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "control").write_text("")  # a rep directory cannot go under a file
        code = textwrap.dedent("""\
            import contextlib, io, json, sys
            from fairbandit import experiment
            from fairbandit.cli import main

            spec, tmp = sys.argv[1], sys.argv[2]
            experiment._usable_cpus = lambda: 2  # a pool also on a one-CPU host
            seen = []

            def pool_modules():
                return [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]

            experiment.run_experiment(experiment.ExperimentSpec.from_json(spec), tmp, write_artifacts=False)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", "--spec", spec, "--out", f"{tmp}/jobs1"]) == 0
                seen.append(pool_modules())
                assert main(["run", "--spec", spec, "--out", f"{tmp}/jobs2", "--jobs", "2"]) == 0
            seen.append(pool_modules())

            import multiprocessing

            seen.append(len(multiprocessing.active_children()))
            try:
                experiment.run_experiment(experiment.ExperimentSpec.from_json(spec), f"{tmp}/blocked", jobs=2)
            except NotADirectoryError as exc:
                seen.append(type(exc).__name__)
            seen.append(len(multiprocessing.active_children()))
            print(json.dumps(seen))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code, str(spec_path), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [
            [], ["concurrent.futures", "multiprocessing"], 0, "NotADirectoryError", 0
        ]
        assert tree_hashes(tmp_path / "jobs1") == tree_hashes(tmp_path / "jobs2")

    @staticmethod
    def fake_pool(monkeypatch, cpus: int) -> list[int]:
        """Patch the run's usable CPU count to `cpus` and its pool class to
        one that records its width and maps in this process; return the
        list of widths. (The fork start method starts all max_workers
        processes on the first submit, so a test starts no real pool.)"""
        import fairbandit.experiment as experiment

        started = []

        class InProcessPool(contextlib.nullcontext):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(self)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
        return started

    @pytest.mark.parametrize("jobs, cpus, pools", [(1, 8, []), (2, 8, [2]), (2, 1, []), (4, 3, [3])])
    def test_one_pool_per_run(self, tmp_path, monkeypatch, jobs, cpus, pools):
        started = self.fake_pool(monkeypatch, cpus)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(replications=4)))
        argv = ["run", "--spec", str(spec_path), "--out", str(tmp_path / "o"), "--jobs", str(jobs)]
        assert main(argv) == 0
        assert started == pools

    @pytest.mark.parametrize(
        "jobs, replications, cpus, workers",
        [(64, 3, 8, [3]), (2, 4, 8, [2]), (5, 1, 8, []), (5000, 6, 2, [2]), (4, 4, 1, [])],
    )
    def test_pool_has_at_most_one_worker_per_seed(
        self, tmp_path, monkeypatch, jobs, replications, cpus, workers
    ):
        # A pool wider than the seeds or the usable CPUs would fork idle
        # workers.
        spec = ExperimentSpec.from_dict(tiny_spec_dict(replications=replications))
        serial = run_experiment(spec, tmp_path, write_artifacts=False)
        started = self.fake_pool(monkeypatch, cpus)
        pooled = run_experiment(spec, tmp_path, jobs=jobs, write_artifacts=False)
        assert started == workers
        assert pooled.summary() == serial.summary()

    def test_usable_cpus_is_the_affinity_set(self, monkeypatch):
        import os

        import fairbandit.experiment as experiment

        if hasattr(os, "sched_getaffinity"):
            assert experiment._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert experiment._usable_cpus() == 6



# Per-batch r: any float in [-1, 1], or a few values drawn often enough to tie.
_RS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=41) | st.lists(
    st.sampled_from([-0.5, -0.0, 0.0, 0.25, 1.0]), min_size=1, max_size=12
)


@settings(max_examples=300, deadline=None)
@given(_RS)
@example([0.3, -0.7, 0.3, 0.3])
@example([-0.9, -0.1])
@example([0.1, 0.2])
@example([-1.0, 1.0, 0.5])
def test_batch_median_matches_statistics_median_bit_for_bit(rs):
    import statistics

    from fairbandit.experiment import _median

    assert _median(rs).hex() == statistics.median(rs).hex()
