import csv
import io
import locale
import math
import statistics
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbandit.analysis import log_metrics, percentile_rank
from fairbandit.bandit import (
    Arm,
    Decision,
    Mode,
    RewardModel,
    ShapleyBanditState,
    greedy_select,
    place_artificial_steps,
    random_select,
    shapley_select,
    shapley_update,
    team_disparity_sum,
    write_decisions_jsonl,
)
from fairbandit.experiment import ExperimentSpec, run_experiment
from fairbandit.rng import SplitMix64
from fairbandit.scenarios import load_scenario
from fairbandit.simworld import (
    LOG_COLUMNS,
    Condition,
    ConfigError,
    SchemaError,
    SessionRow,
    SimPlayer,
    StudyConfig,
    StudyLog,
    WorldMismatchError,
    _PARSERS,
    _forced_schedule,
    _pair_ranks,
    _row_error,
    comparison_sign,
    decision_records,
    draw_world,
    log_summary,
    logistic,
    miss_decision,
    motivation_response,
    read_log_csv,
    run_study,
    sign_alignment,
    step_response,
    write_log_csv,
)
from test_bandit import reference_argbest


def player(**kwargs) -> SimPlayer:
    defaults = dict(baseline_steps=10000.0, noise_sd=0.0, sco=0.0, effect_size=0.0)
    defaults.update(kwargs)
    return SimPlayer(**defaults)


def config(condition=Condition.GREEDY, players=None, **kwargs) -> StudyConfig:
    if players is None:
        players = (player(), player(baseline_steps=9000.0))
    return StudyConfig(condition=condition, players=players, **kwargs)


class TestComparisonSign:
    def test_more_steps_is_upward(self):
        assert comparison_sign(9000, 12000) == 1

    def test_fewer_steps_is_downward(self):
        assert comparison_sign(9000, 6400) == -1

    def test_equal_steps_is_lateral(self):
        assert comparison_sign(9000, 9000) == 0
        assert comparison_sign(0.0, -0.0) == 0

    def test_alignment_averages_targets(self):
        assert sign_alignment(0.8, 1, 1) == pytest.approx(0.8)
        assert sign_alignment(0.8, 1, -1) == pytest.approx(0.0)
        assert sign_alignment(-0.5, 1, 1) == pytest.approx(-0.5)
        assert sign_alignment(0.8, 0, 0) == 0.0


class TestStepResponse:
    def test_upward_responder_boosted(self):
        p = player(sco=1.0, effect_size=500.0)
        assert step_response(p, sign_alignment(p.sco, 1, 1), 0.7) == pytest.approx(10500.0)

    def test_downward_responder_suppressed(self):
        p = player(sco=-1.0, effect_size=500.0)
        assert step_response(p, sign_alignment(p.sco, 1, 1), -0.7) == pytest.approx(9500.0)

    def test_null_responder_unmoved(self):
        p = player(sco=0.0, effect_size=500.0)
        assert step_response(p, sign_alignment(p.sco, 1, 1), 2.5) == pytest.approx(10000.0)

    def test_floored_at_zero(self):
        p = player(baseline_steps=100.0, sco=-1.0, effect_size=5000.0)
        assert step_response(p, sign_alignment(p.sco, 1, 1), 0.0) == 0.0

    def test_noise_is_sd_times_draw(self):
        p = player(noise_sd=400.0, sco=1.0, effect_size=500.0)
        assert step_response(p, sign_alignment(p.sco, 1, 1), -1.5) == 10000.0 + 500.0 - 600.0
        assert step_response(p, 0.0, 0.25) == 10100.0


class TestMotivationResponse:
    def test_full_alignment_moves_up(self):
        p = player(sco=1.0)
        rng = SplitMix64(3)
        for _ in range(50):
            pre, post = motivation_response(
                sign_alignment(p.sco, 1, 1), 2 + rng.randrange(3), rng.random()
            )
            assert post == min(5, pre + 1)

    def test_zero_alignment_keeps_pre(self):
        p = player(sco=0.0)
        rng = SplitMix64(4)
        for _ in range(50):
            pre, post = motivation_response(
                sign_alignment(p.sco, 1, 1), 2 + rng.randrange(3), rng.random()
            )
            assert post == pre

    def test_scale_bounds_over_many_draws(self):
        rng = SplitMix64(5)
        sign_pairs = [(a, t) for a in (-1, 0, 1) for t in (-1, 0, 1)]
        players = [player(sco=s) for s in (-1.0, -0.3, 0.0, 0.7, 1.0)]
        for i in range(10000):
            p = players[i % len(players)]
            a, t = sign_pairs[i % len(sign_pairs)]
            pre, post = motivation_response(
                sign_alignment(p.sco, a, t), 2 + rng.randrange(3), rng.random()
            )
            assert 1 <= pre <= 5
            assert 1 <= post <= 5


class TestMissDecision:
    def test_slope_zero_is_base_rate(self):
        p = player(adherence_intercept=-1.1, adherence_slope=0.0)
        rng = SplitMix64(6)
        draws = ((d, rng.random()) for d in (-1.0, 0.0, 1.0) for _ in range(5000))
        misses = sum(miss_decision(p, d, u) for d, u in draws)
        assert misses / 15000 == pytest.approx(logistic(-1.1), abs=0.01)

    def test_logistic_value_against_direct_arithmetic(self):
        assert logistic(-0.1) == pytest.approx(1.0 / (1.0 + math.exp(0.1)), abs=1e-12)
        assert logistic(-0.1) == pytest.approx(0.475, abs=0.001)
        p = player(adherence_intercept=-1.1, adherence_slope=2.0)
        rng = SplitMix64(7)
        rate = sum(miss_decision(p, 0.5, rng.random()) for _ in range(20000)) / 20000
        assert rate == pytest.approx(0.475, abs=0.01)

    def test_monotone_in_disparity(self):
        p = player(adherence_intercept=-1.1, adherence_slope=50.0)
        rng = SplitMix64(8)
        low = sum(miss_decision(p, -1.0, rng.random()) for _ in range(2000)) / 2000
        high = sum(miss_decision(p, 1.0, rng.random()) for _ in range(2000)) / 2000
        assert low == pytest.approx(logistic(-1.1 - 50.0), abs=0.01)
        assert high == pytest.approx(logistic(-1.1 + 50.0), abs=0.01)

    def test_disparity_domain(self):
        with pytest.raises(ValueError):
            miss_decision(player(), 1.5, 0.5)

    def test_extreme_logistic_does_not_overflow(self):
        assert logistic(-1000.0) == 0.0
        assert logistic(1000.0) == 1.0


class TestConfigValidation:
    def test_forced_days_must_divide_across_arms(self):
        with pytest.raises(ConfigError):
            config(forced_exploration_days=8)

    def test_forced_days_cannot_be_negative(self):
        # -3 divides evenly across the arms, so only its sign rejects it.
        with pytest.raises(ConfigError, match="forced_exploration_days must be >= 0"):
            config(forced_exploration_days=-3)

    def test_forced_cannot_exceed_total(self):
        with pytest.raises(ConfigError):
            config(forced_exploration_days=24, total_sessions=21)

    def test_exactly_two_players(self):
        with pytest.raises(ConfigError):
            StudyConfig(condition=Condition.CONTROL, players=(player(),))
        with pytest.raises(ConfigError):
            StudyConfig(condition=Condition.CONTROL, players=(player(), player(), player()))

    def test_player_invariants(self):
        with pytest.raises(ConfigError):
            player(baseline_steps=0.0)
        with pytest.raises(ConfigError):
            player(sco=1.5)
        with pytest.raises(ConfigError):
            player(noise_sd=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["baseline_steps", "noise_sd", "effect_size", "adherence_intercept", "adherence_slope"],
    )
    def test_player_rejects_non_finite_number(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got {value!r}$"):
            player(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["step_scale", "motivation_weight"])
    def test_config_rejects_non_finite_number(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got {value!r}$"):
            config(**{name: value})

    @pytest.mark.parametrize(
        "player_doc, overrides, fields",
        [
            # Three baseline days of 1e308 steps sum to inf.
            (dict(baseline_steps=1e308), {}, "baseline_steps"),
            # A day's steps reach inf, so the reward is NaN.
            (
                dict(baseline_steps=1.5e308, noise_sd=1e308, sco=1.0, effect_size=1e308),
                {},
                "noise_sd",
            ),
            # Ordinary steps over a subnormal step_scale give an infinite reward.
            ({}, {"step_scale": 1e-310}, "step_scale"),
            # A day count past the float range is refused, not an OverflowError.
            ({}, {"total_sessions": 10**400}, "player-days"),
        ],
    )
    def test_config_whose_totals_overflow_is_rejected(self, player_doc, overrides, fields):
        team = (player(**player_doc), player(baseline_steps=9000.0))
        with pytest.raises(ConfigError, match=fields):
            config(players=team, **overrides)

    def test_largest_finite_totals_are_accepted(self):
        # 48 player-days of this peak stay finite; so do its rewards.
        peak = sys.float_info.max / 49
        cfg = config(players=(player(baseline_steps=peak), player()))
        records = decision_records(run_study(cfg), cfg.step_scale, cfg.motivation_weight)
        assert all(math.isfinite(r) for d in records for r in d["rewards"].values())
        with pytest.raises(ConfigError, match="overflow"):
            config(players=(player(baseline_steps=peak * 1.05), player()))
        with pytest.raises(ConfigError, match="motivation_weight"):
            config(motivation_weight=sys.float_info.max / 40)

    def test_dict_round_trip(self):
        cfg = config(condition=Condition.SHAPLEY, seed=42, jitter=True)
        again = StudyConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_reports_bad_config(self):
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"condition": "greedy"})

    def test_from_dict_rejects_unknown_key(self):
        doc = config().to_dict() | {"epsilom": 0.5}
        with pytest.raises(ConfigError, match="epsilom"):
            StudyConfig.from_dict(doc)


class TestRunStudy:
    def test_protocol_shape(self):
        log = run_study(config(seed=11))
        assert len(log.rows) == 21 * 2
        forced = [row for row in log.rows if row.day <= 9 and row.player == 0]
        assert len(forced) == 9
        assert all(row.mode is Mode.FORCED for row in forced)
        counts = {arm: 0 for arm in Arm}
        for row in forced:
            counts[row.arm] += 1
        assert counts == {Arm.ABOVE_HIGHER: 3, Arm.BETWEEN: 3, Arm.BELOW_LOWER: 3}
        strategy = [row for row in log.rows if row.day > 9]
        assert all(row.mode is not Mode.FORCED for row in strategy)

    def test_deterministic_given_seed(self):
        cfg = config(condition=Condition.SHAPLEY, seed=1234,
                     players=(player(noise_sd=900.0, sco=0.4, effect_size=700.0,
                                     adherence_slope=1.0),
                              player(baseline_steps=8500.0, noise_sd=900.0, sco=-0.4,
                                     effect_size=700.0, adherence_slope=1.0)))
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.rows == b.rows
        assert list(decision_records(a, cfg.step_scale, cfg.motivation_weight)) == list(
            decision_records(b, cfg.step_scale, cfg.motivation_weight)
        )
        assert a.final_csv == b.final_csv

    def test_null_cohort_identical_across_conditions(self):
        players = (player(), player())
        trajectories = {}
        for cond in Condition:
            log = run_study(config(condition=cond, players=players, seed=99))
            trajectories[cond] = [
                (row.day, row.player, row.steps, row.missed) for row in log.rows
            ]
        assert trajectories[Condition.CONTROL] == trajectories[Condition.GREEDY]
        assert trajectories[Condition.GREEDY] == trajectories[Condition.SHAPLEY]

    def test_decision_prefix_stability(self):
        # day-t decisions depend only on observations through day t-1, so a
        # shortened study must reproduce the long study's prefix exactly
        for cond in Condition:
            cfg = config(
                condition=cond,
                seed=321,
                players=(player(noise_sd=800.0, sco=0.6, effect_size=900.0),
                         player(baseline_steps=8200.0, noise_sd=800.0, sco=-0.6,
                                effect_size=500.0)),
            )
            full = run_study(cfg)
            short = run_study(replace(cfg, total_sessions=12))
            full_prefix = [row for row in full.rows if row.day <= 12]
            assert full_prefix == short.rows

    def test_missed_sessions_update_nothing(self):
        cfg = config(
            players=(player(adherence_intercept=20.0),  # always misses
                     player(baseline_steps=9000.0, adherence_intercept=-20.0)),
            condition=Condition.SHAPLEY,
            seed=5,
        )
        log = run_study(cfg)
        p0_rows = [row for row in log.rows if row.player == 0]
        assert all(row.missed and row.steps is None for row in p0_rows)
        assert log.final_csv[0] == 0.0
        assert log.final_csv[1] > 0.0
        # every day's reward record omits the absent player
        records = decision_records(log, cfg.step_scale, cfg.motivation_weight)
        assert all("0" not in d["rewards"] for d in records)

    def test_all_players_missing_defers_strategy(self):
        cfg = config(
            players=(player(adherence_intercept=20.0), player(adherence_intercept=20.0)),
            condition=Condition.SHAPLEY,
            seed=6,
        )
        log = run_study(cfg)  # zero CSV throughout: must not raise
        strategy_modes = {row.mode for row in log.rows if row.day > 9}
        assert strategy_modes == {Mode.EXPLORE}

    def test_artificial_placement_uses_previous_day(self):
        # noiseless null players: previous-day steps equal baselines, so the
        # artificial teammate's steps are exactly determined by the arm
        log = run_study(config(condition=Condition.CONTROL, seed=12))
        for row in log.rows:
            want = {
                Arm.ABOVE_HIGHER: 1.2 * 10000.0,
                Arm.BETWEEN: (10000.0 + 9000.0) / 2,
                Arm.BELOW_LOWER: 0.8 * 9000.0,
            }[row.arm]
            assert row.artificial_steps == pytest.approx(want)

    def test_jitter_stays_within_bounds(self):
        log = run_study(config(condition=Condition.CONTROL, seed=13, jitter=True))
        for row in log.rows:
            base = {
                Arm.ABOVE_HIGHER: 12000.0,
                Arm.BETWEEN: 9500.0,
                Arm.BELOW_LOWER: 7200.0,
            }[row.arm]
            assert base * 0.98 <= row.artificial_steps <= base * 1.02

    def test_greedy_favors_strong_responder(self):
        # high-baseline strong upward responder vs weak downward responder:
        # the summed estimate locks onto arm A and the strong player's
        # treatment share dominates (median over replications)
        players = (
            player(baseline_steps=11000.0, noise_sd=1000.0, sco=0.9, effect_size=1400.0),
            player(baseline_steps=8600.0, noise_sd=1000.0, sco=-0.9, effect_size=400.0),
        )
        cfg = config(condition=Condition.GREEDY, players=players)
        shares = []
        for k in range(100):
            log = run_study(replace(cfg, seed=31000 + k))
            total = sum(log.final_tc_effective)
            shares.append(log.final_tc_effective[1] / total if total else 0.5)
        assert statistics.median(shares) < 0.5

    def test_shapley_state_consistency(self):
        cfg = config(
            condition=Condition.SHAPLEY,
            seed=77,
            players=(player(noise_sd=500.0, sco=0.5, effect_size=400.0),
                     player(baseline_steps=9500.0, noise_sd=500.0, sco=-0.5,
                            effect_size=400.0)),
        )
        log = run_study(cfg)
        records = decision_records(log, cfg.step_scale, cfg.motivation_weight)
        exploit_days = sum(1 for d in records if d["mode"] == "exploit")
        assert sum(log.final_tc) == exploit_days
        observed = [0.0, 0.0]
        for row in log.rows:
            if not row.missed:
                observed[row.player] += row.steps
        assert log.final_csv == pytest.approx(observed)


class TestLogSerialization:
    def make_log(self):
        return run_study(config(
            condition=Condition.SHAPLEY,
            seed=55,
            players=(player(noise_sd=700.0, sco=0.3, effect_size=300.0,
                            adherence_slope=0.5),
                     player(baseline_steps=8800.0, noise_sd=700.0, sco=-0.3,
                            effect_size=300.0, adherence_slope=0.5)),
        ))

    def test_round_trip(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        again = read_log_csv(path, name="x")
        assert again.rows == log.rows

    def test_write_is_byte_stable(self, tmp_path):
        log = self.make_log()
        write_log_csv(log, tmp_path / "a.csv")
        write_log_csv(log, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_malformed_header_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,player,steps\n1,0,100\n")
        with pytest.raises(SchemaError, match="missing columns"):
            read_log_csv(path)

    def test_bad_value_reports_line_and_column(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[6] = "Z"  # arm column
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="line 2.*arm"):
            read_log_csv(path)

    def write_edited(self, tmp_path, edit):
        """The log of `make_log` as CSV lines, passed through `edit`."""
        path = tmp_path / "log.csv"
        write_log_csv(self.make_log(), path)
        lines = [line.split(",") for line in path.read_text().splitlines()]
        edit(lines)
        path.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
        return path

    @staticmethod
    def first_line(lines, missed: str) -> int:
        return next(k for k, cells in enumerate(lines) if k and cells[3] == missed)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("steps", "nan"),
            ("steps", "-5"),
            ("steps", "inf"),
            ("artificial_steps", "nan"),
            ("artificial_steps", "-1.0"),
            ("baseline_mean", "inf"),
            ("baseline_mean", "-inf"),
            ("day", "0"),
            ("day", "-4"),
            ("pre_motivation", "-7"),
            ("pre_motivation", "0"),
            ("post_motivation", "99"),
            ("post_motivation", "6"),
            ("catered_player", "12"),
        ],
    )
    def test_non_finite_or_negative_value_names_line_and_column(self, tmp_path, column, value):
        index = LOG_COLUMNS.index(column)

        def edit(lines):
            k = self.first_line(lines, missed="0")
            lines[k][index] = value
            edit.line = k + 1

        path = self.write_edited(tmp_path, edit)
        with pytest.raises(SchemaError, match=f"line {edit.line}, column '{column}'"):
            read_log_csv(path)

    def test_missed_session_with_steps_is_schema_error(self, tmp_path):
        def edit(lines):
            k = self.first_line(lines, missed="0")
            lines[k][LOG_COLUMNS.index("missed")] = "1"
            edit.line = k + 1

        path = self.write_edited(tmp_path, edit)
        with pytest.raises(SchemaError, match=f"line {edit.line}, column 'steps'"):
            read_log_csv(path)

    @pytest.mark.parametrize(
        "pre, post, column",
        [("3", "", "pre_motivation"), ("", "4", "post_motivation"), ("3", "4", "pre_motivation")],
    )
    def test_missed_session_with_motivation_names_the_set_column(self, tmp_path, pre, post, column):
        def edit(lines):
            k = self.first_line(lines, missed="1")
            lines[k][LOG_COLUMNS.index("pre_motivation")] = pre
            lines[k][LOG_COLUMNS.index("post_motivation")] = post
            edit.line = k + 1

        path = self.write_edited(tmp_path, edit)
        with pytest.raises(SchemaError, match=f"line {edit.line}, column '{column}'"):
            read_log_csv(path)

    def test_attended_session_without_steps_is_schema_error(self, tmp_path):
        def edit(lines):
            k = self.first_line(lines, missed="1")
            lines[k][LOG_COLUMNS.index("missed")] = "0"
            edit.line = k + 1

        path = self.write_edited(tmp_path, edit)
        with pytest.raises(SchemaError, match=f"line {edit.line}, column 'steps'"):
            read_log_csv(path)

    def test_duplicated_day_and_player_is_schema_error(self, tmp_path):
        def edit(lines):
            lines.append(list(lines[5]))
            edit.line = len(lines)

        path = self.write_edited(tmp_path, edit)
        with pytest.raises(SchemaError, match=f"line {edit.line}, columns 'day', 'player'.*line 6"):
            read_log_csv(path)

    def test_empty_arm_letter_is_schema_error(self, tmp_path):
        def edit(lines):
            lines[1][LOG_COLUMNS.index("best_arm")] = ""

        path = self.write_edited(tmp_path, edit)
        with pytest.raises(SchemaError, match="line 2, column 'best_arm'"):
            read_log_csv(path)

    def test_error_names_the_physical_line_a_record_starts_on(self, tmp_path):
        def edit(lines):
            # Line 2's record runs on to line 3, so the sixth record
            # starts on physical line 7.
            lines[1][LOG_COLUMNS.index("artificial_steps")] = '"100\n"'
            lines[5][LOG_COLUMNS.index("arm")] = "Z"

        path = self.write_edited(tmp_path, edit)
        with pytest.raises(SchemaError, match="^line 7, column 'arm': "):
            read_log_csv(path)

    def test_csv_error_names_the_physical_line(self, tmp_path):
        def edit(lines):
            # A bare carriage return ends a CSV line but not a physical one.
            lines[1][LOG_COLUMNS.index("artificial_steps")] = '"100\r"'
            lines[3][LOG_COLUMNS.index("mode")] = "x" * 200

        path = self.write_edited(tmp_path, edit)
        limit = csv.field_size_limit(100)
        try:
            with pytest.raises(SchemaError, match="^line 4: field larger than field limit"):
                read_log_csv(path)
        finally:
            csv.field_size_limit(limit)

    def test_first_problem_in_line_order_includes_undecodable_bytes(self, tmp_path):
        cfg = load_scenario("conflict-cohort").conditions[1]
        path = tmp_path / "log.csv"
        write_log_csv(run_study(cfg), path)
        lines = path.read_bytes().split(b"\n")
        cells = lines[4].split(b",")
        cells[LOG_COLUMNS.index("arm")] = b"Z"
        lines[4] = b",".join(cells)
        lines[30] = b"\xff" + lines[30]
        path.write_bytes(b"\n".join(lines))
        assert path.stat().st_size < 8192
        with pytest.raises(SchemaError, match="^line 5, column 'arm': "):
            read_log_csv(path)

    @pytest.mark.parametrize("edit", [None, "field", "undecodable"])
    def test_log_is_opened_once(self, tmp_path, monkeypatch, edit):
        path = tmp_path / "log.csv"
        write_log_csv(self.make_log(), path)
        data = path.read_bytes()
        if edit == "field":
            data = data.replace(b",forced,", b",sideways,", 1)
        elif edit == "undecodable":
            data = data.replace(b"\n", b"\n\xff", 1)
        path.write_bytes(data)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        if edit is None:
            read_log_csv(path)
        else:
            with pytest.raises(SchemaError, match="^line 2"):
                read_log_csv(path)
        assert opened == [path]

    def test_summary_fields(self):
        log = self.make_log()
        summary = log_summary(log, log_metrics(log))
        assert summary["condition"] == "shapley"
        assert len(summary["baseline_means"]) == 2
        assert set(summary["miss_likelihood"]) == {"0", "1"}
        assert summary["final_sum_sd"] is not None


# next_u64 calls per run_study at seeds 0-4, recorded before the reward
# model moved to per-player lists. The day loop may get cheaper, but
# every draw stays: a faster engine has to consume this same budget.
DRAWS_PER_STUDY = {
    ("conflict-cohort", "control"): [245, 245, 245, 245, 245],
    ("conflict-cohort", "greedy"): [233, 233, 233, 233, 233],
    ("conflict-cohort", "shapley"): [245, 245, 246, 246, 246],
    ("study-protocol", "control"): [266, 266, 266, 266, 266],
    ("study-protocol", "greedy"): [254, 254, 254, 254, 254],
    ("study-protocol", "shapley"): [266, 266, 267, 267, 267],
}


@pytest.mark.parametrize("scenario, condition", sorted(DRAWS_PER_STUDY))
def test_random_draws_per_study_unchanged(monkeypatch, scenario, condition):
    draws = [0]
    next_u64 = SplitMix64.next_u64

    def counting(self):
        draws[0] += 1
        return next_u64(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counting)
    cfg = next(c for c in load_scenario(scenario).conditions if c.condition.value == condition)
    got = []
    for seed in range(5):
        draws[0] = 0
        run_study(replace(cfg, seed=seed))
        got.append(draws[0])
    assert got == DRAWS_PER_STUDY[scenario, condition]


class Direction(str, Enum):
    """A comparison target's direction, as the simulator once named it."""

    UPWARD = "upward"
    DOWNWARD = "downward"
    LATERAL = "lateral"


def oracle_alignment(sco: float, own: float, artificial: float, teammate: float) -> float:
    """Preference alignment through per-target Direction members and
    float signs, as `run_study` computed it before it compared plain
    numbers."""

    def direction(target: float) -> Direction:
        if target > own:
            return Direction.UPWARD
        if target < own:
            return Direction.DOWNWARD
        return Direction.LATERAL

    if min(own, artificial, teammate) < 0:
        raise ValueError("steps must be non-negative")
    sign = {Direction.UPWARD: 1.0, Direction.DOWNWARD: -1.0, Direction.LATERAL: 0.0}
    return (sign[direction(artificial)] * sco + sign[direction(teammate)] * sco) / 2.0


def oracle_step_response(p: SimPlayer, a: float, rng: SplitMix64) -> float:
    noise = 0.0 + p.noise_sd * rng.normal()
    return max(0.0, p.baseline_steps + a * p.effect_size + noise)


def oracle_motivation_response(a: float, rng: SplitMix64) -> tuple[int, int]:
    pre = 2 + rng.randrange(3)
    u = rng.random()
    post = pre
    if u < abs(a):
        post = min(5, max(1, pre + (1 if a > 0 else -1 if a < 0 else 0)))
    return pre, post


def oracle_miss_decision(p: SimPlayer, running_disparity: float, rng: SplitMix64) -> bool:
    return rng.random() < logistic(p.adherence_intercept + p.adherence_slope * running_disparity)


def oracle_running_disparities(observed_steps, best_given, worst_given, any_exploit):
    n = len(observed_steps)
    if not any_exploit or any(len(s) == 0 for s in observed_steps):
        return [0.0] * n
    efforts = [sum(s) / len(s) for s in observed_steps]
    treatments = [float(b - w) for b, w in zip(best_given, worst_given)]
    pr_e = percentile_rank(efforts)
    pr_t = percentile_rank(treatments)
    return [e - t for e, t in zip(pr_e, pr_t)]


def oracle_predict(model: RewardModel, player: int, best: bool) -> Arm:
    """The player's best (or worst) arm, ties to the lowest ordinal."""
    return Arm(reference_argbest(model.means(player), best))


def oracle_decision_record(
    day: int, decision: Decision, state: ShapleyBanditState, rewards: dict[int, float]
) -> dict:
    """A day's record read off the live strategy state and the day's
    rewards, as the day loop once kept it."""
    return {
        "day": day,
        "mode": decision.mode.value,
        "arm": decision.arm.letter,
        "catered_player": decision.catered_player,
        "csv": list(state.csv),
        "tc": list(state.tc),
        "rewards": {str(p): rewards[p] for p in sorted(rewards)},
    }


def run_study_by_objects(config: StudyConfig) -> tuple[StudyLog, list[dict]]:
    """`run_study` as it was before its day loop ran on plain numbers:
    a Direction per target and player-day, a best and a worst prediction
    per player and day, a reward tuple and keyword-built rows, world
    draws taken from the stream as the day goes, and efforts re-summed
    each day. It also returns each day's record, taken from the strategy
    state as the day ends. Kept as the oracle."""
    n = len(config.players)
    base = SplitMix64(config.seed)
    decision_rng = base.spawn()
    world_rng = base.spawn()
    jitter_rng = base.spawn()

    baseline_samples: list[list[float]] = [[] for _ in range(n)]
    for _day in range(config.baseline_days):
        for i, p in enumerate(config.players):
            steps = max(0.0, p.baseline_steps + (0.0 + p.noise_sd * world_rng.normal()))
            baseline_samples[i].append(steps)
    baseline_means = [sum(s) / len(s) for s in baseline_samples]
    last_steps = [samples[-1] for samples in baseline_samples]

    schedule = _forced_schedule(config.forced_exploration_days, decision_rng)
    model = RewardModel()
    state = ShapleyBanditState.fresh(n, epsilon=config.epsilon)
    players = list(range(n))
    tc_effective = [0] * n
    observed_steps: list[list[float]] = [[] for _ in range(n)]
    best_given = [0] * n
    worst_given = [0] * n
    any_exploit = False
    rows: list[SessionRow] = []
    decisions: list[dict] = []

    jitter = jitter_rng if config.jitter else None
    for day in range(1, config.total_sessions + 1):
        disparities = oracle_running_disparities(
            observed_steps, best_given, worst_given, any_exploit
        )
        if day <= config.forced_exploration_days:
            decision = Decision(arm=schedule[day - 1], catered_player=None, mode=Mode.FORCED)
        elif config.condition is Condition.CONTROL:
            decision = random_select(decision_rng)
        elif config.condition is Condition.GREEDY:
            decision = greedy_select(model, players)
        elif sum(state.csv) <= 0:
            decision = random_select(decision_rng)
        else:
            decision = shapley_select(state, model, players, decision_rng)
        arm = decision.arm

        best_arms = [oracle_predict(model, p, True) for p in players]
        worst_arms = [oracle_predict(model, p, False) for p in players]
        artificial = place_artificial_steps(arm, last_steps[0], last_steps[1], jitter)

        day_rewards: dict[int, float] = {}
        day_steps: dict[int, float] = {}
        for i, p in enumerate(config.players):
            a = oracle_alignment(p.sco, last_steps[i], artificial, last_steps[1 - i])
            steps = oracle_step_response(p, a, world_rng)
            pre, post = oracle_motivation_response(a, world_rng)
            missed = oracle_miss_decision(p, disparities[i], world_rng)
            if missed:
                steps = pre = post = None
            else:
                day_steps[i] = steps
                step_delta, motivation_delta = steps - baseline_means[i], float(post - pre)
                day_rewards[i] = (
                    step_delta / config.step_scale + config.motivation_weight * motivation_delta
                )
                model.observe_scalar(i, arm, day_rewards[i])
            rows.append(
                SessionRow(
                    day=day,
                    player=i,
                    steps=steps,
                    missed=missed,
                    pre_motivation=pre,
                    post_motivation=post,
                    arm=arm,
                    mode=decision.mode,
                    catered_player=decision.catered_player,
                    artificial_steps=artificial,
                    best_arm=best_arms[i],
                    worst_arm=worst_arms[i],
                    baseline_mean=baseline_means[i],
                )
            )

        shapley_update(state, decision, day_steps)
        if decision.mode is Mode.EXPLOIT:
            any_exploit = True
            for i in players:
                if arm == best_arms[i]:
                    tc_effective[i] += 1
        for i, steps in day_steps.items():
            observed_steps[i].append(steps)
            last_steps[i] = steps
        if day >= config.intervention_start:
            for i in players:
                if arm == best_arms[i]:
                    best_given[i] += 1
                if arm == worst_arms[i]:
                    worst_given[i] += 1
        decisions.append(oracle_decision_record(day, decision, state, day_rewards))

    audit_tc = state.tc if config.condition is Condition.SHAPLEY else tc_effective
    try:
        final_sum_sd = team_disparity_sum(state.csv, audit_tc)
    except ValueError:
        final_sum_sd = None
    log = StudyLog(
        rows=rows,
        condition=config.condition,
        seed=config.seed,
        baseline_means=baseline_means,
        final_csv=list(state.csv),
        final_tc=list(state.tc),
        final_tc_effective=tc_effective,
        final_sum_sd=final_sum_sd,
    )
    return log, decisions


def exact(value) -> tuple[str, str]:
    """A value's type and spelling, telling -0.0 from 0.0."""
    return type(value).__name__, value.hex() if type(value) is float else repr(value)


@st.composite
def study_config(draw) -> StudyConfig:
    """Configs reaching every branch of the day loop: noiseless equal
    players (lateral comparisons), sco at -1, 0 and 1, always-explore
    and never-explore strategies, no or short forced exploration, jitter
    on and off, and players who miss every session."""

    def sim_player() -> SimPlayer:
        return SimPlayer(
            baseline_steps=draw(st.sampled_from([8400.0, 10000.0, 10600.0, 1.0])),
            noise_sd=draw(st.sampled_from([0.0, 0.0, 1000.0, 2500.0])),
            sco=draw(st.sampled_from([-1.0, 0.0, 1.0, -0.0, 0.9, -0.4])),
            effect_size=draw(st.sampled_from([0.0, 400.0, 1700.0, 1e5])),
            adherence_intercept=draw(st.sampled_from([-20.0, -1.1, 0.0, 20.0])),
            adherence_slope=draw(st.sampled_from([0.0, 2.0, 50.0])),
        )

    forced = draw(st.sampled_from([0, 3, 9]))
    return StudyConfig(
        condition=draw(st.sampled_from(list(Condition))),
        players=(sim_player(), sim_player()),
        seed=draw(st.integers(0, 2**64 - 1)),
        baseline_days=draw(st.integers(1, 4)),
        forced_exploration_days=forced,
        total_sessions=draw(st.integers(forced, 24)),
        epsilon=draw(st.sampled_from([0.0, 0.01, 0.5, 1.0])),
        step_scale=draw(st.sampled_from([1000.0, 1.0, 0.5])),
        motivation_weight=draw(st.sampled_from([1.0, 0.0, -0.0, -2.0])),
        jitter=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(cfg=study_config())
def test_run_study_matches_object_oracle(cfg):
    """Same rows, field for field and bit for bit, same decisions, same
    final state and the same number of draws as the oracle."""
    logs, draws = [], []
    next_u64 = SplitMix64.next_u64
    for run in (run_study, run_study_by_objects):
        count = [0]

        def counting(self):
            count[0] += 1
            return next_u64(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SplitMix64, "next_u64", counting)
            logs.append(run(cfg))
        draws.append(count[0])
    got, (want, want_decisions) = logs
    assert [list(map(exact, row)) for row in got.rows] == [
        list(map(exact, row)) for row in want.rows
    ]
    got_decisions = decision_records(got, cfg.step_scale, cfg.motivation_weight)
    assert repr(list(got_decisions)) == repr(want_decisions)
    for name in ("baseline_means", "final_csv", "final_tc", "final_tc_effective", "final_sum_sd"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert (got.condition, got.seed) == (want.condition, want.seed)
    assert draws[0] == draws[1]


MAGNITUDES = st.sampled_from([0.0, 1.0, 1e4, 1e150, 1e300, 1e306, 1e307, 1e308]) | st.floats(
    0.0, 1e308
)


@settings(max_examples=200, deadline=None)
@given(
    baseline=st.tuples(*[MAGNITUDES.filter(lambda x: x > 0)] * 2),
    noise_sd=st.tuples(MAGNITUDES, MAGNITUDES),
    effect_size=st.tuples(MAGNITUDES, MAGNITUDES),
    step_scale=MAGNITUDES | st.sampled_from([1e-310, 5e-324, 1e-300]),
    motivation_weight=MAGNITUDES.flatmap(lambda m: st.sampled_from([m, -m])),
    condition=st.sampled_from(list(Condition)),
    seed=st.integers(0, 2**64 - 1),
)
def test_config_is_refused_or_its_study_stays_finite(
    baseline, noise_sd, effect_size, step_scale, motivation_weight, condition, seed
):
    """A config that StudyConfig accepts never overflows mid-study."""
    try:
        cfg = StudyConfig(
            condition=condition,
            players=tuple(
                SimPlayer(baseline_steps=b, noise_sd=n, sco=1.0, effect_size=e)
                for b, n, e in zip(baseline, noise_sd, effect_size)
            ),
            seed=seed,
            step_scale=step_scale,
            motivation_weight=motivation_weight,
        )
    except ConfigError:
        return
    log = run_study(cfg)
    records = decision_records(log, cfg.step_scale, cfg.motivation_weight)
    assert all(math.isfinite(r) for d in records for r in d["rewards"].values())
    assert all(math.isfinite(c) for c in log.final_csv)
    assert all(math.isfinite(m) for m in log.baseline_means)


def assert_same_log(got: StudyLog, want: StudyLog, cfg: StudyConfig) -> None:
    """Same rows bit for bit, same decisions under `cfg` and the same
    final fields."""
    assert [list(map(exact, row)) for row in got.rows] == [
        list(map(exact, row)) for row in want.rows
    ]
    assert repr(list(decision_records(got, cfg.step_scale, cfg.motivation_weight))) == repr(
        list(decision_records(want, cfg.step_scale, cfg.motivation_weight))
    )
    for name in ("baseline_means", "final_csv", "final_tc", "final_tc_effective", "final_sum_sd"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert (got.condition, got.seed) == (want.condition, want.seed)


@st.composite
def shared_world_spec(draw) -> ExperimentSpec:
    """1-3 conditions that differ in players, jitter and everything else
    `study_config` draws; about half take one common protocol length, so
    that they share each seed's world."""
    conditions = draw(
        st.lists(st.sampled_from(list(Condition)), min_size=1, max_size=3, unique=True)
    )
    baseline_days, total_sessions = draw(st.integers(1, 4)), draw(st.integers(9, 24))
    configs = []
    for condition in conditions:
        cfg = replace(draw(study_config()), condition=condition)
        if draw(st.booleans()):
            cfg = replace(cfg, baseline_days=baseline_days, total_sessions=total_sessions)
        configs.append(cfg)
    return ExperimentSpec(
        scenario="shared-world",
        conditions=tuple(configs),
        replications=draw(st.integers(1, 3)),
        base_seed=draw(st.integers(0, 2**64 - 4)),
    )


@settings(max_examples=60, deadline=None)
@given(spec=shared_world_spec())
def test_shared_world_matches_standalone_studies(spec):
    """Every log of an experiment, whose conditions share each seed's
    world, equals the study run alone at its seed; a world of another
    seed or protocol length is refused."""
    result = run_experiment(spec, "unused", write_artifacts=False)
    for cfg in spec.conditions:
        logs = result.logs[cfg.condition.value]
        assert [log.name for log in logs] == [
            f"{cfg.condition.value}/rep_{k:04d}" for k in range(spec.replications)
        ]
        for k, log in enumerate(logs):
            alone = replace(cfg, seed=spec.base_seed + k)
            assert_same_log(log, run_study(alone), alone)
            for seed, baseline_days, total_sessions in (
                (alone.seed + 1, alone.baseline_days, alone.total_sessions),
                (alone.seed, alone.baseline_days + 1, alone.total_sessions),
                (alone.seed, alone.baseline_days, alone.total_sessions + 1),
            ):
                with pytest.raises(WorldMismatchError, match="study needs"):
                    run_study(alone, draw_world(seed, baseline_days, total_sessions))


def test_world_is_an_immutable_record_of_the_draws():
    cfg = config(seed=17, baseline_days=2, total_sessions=12)
    world = draw_world(17, 2, 12)
    assert len(world.baseline_z) == 2 * 2
    assert len(world.player_days) == 12 * 2
    assert all(pre in (2, 3, 4) and 0.0 <= u_post < 1.0 and 0.0 <= u_miss < 1.0
               for _z, pre, u_post, u_miss in world.player_days)
    assert world == draw_world(17, 2, 12)
    with pytest.raises(AttributeError):
        world.seed = 18
    assert_same_log(run_study(cfg, world), run_study(cfg), cfg)
    assert issubclass(WorldMismatchError, ValueError)


# next_u64 calls over an in-memory conflict-cohort run_experiment of
# 3 x 5, with each seed's world drawn once for the three conditions.
# Drawing it again for every condition took 3615.
EXPERIMENT_DRAWS = 1410


def test_experiment_draws_each_world_once(monkeypatch):
    draws = [0]
    next_u64 = SplitMix64.next_u64

    def counting(self):
        draws[0] += 1
        return next_u64(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counting)
    spec = load_scenario("conflict-cohort", replications=5)
    run_experiment(spec, "unused", jobs=1, write_artifacts=False)
    assert draws[0] == EXPERIMENT_DRAWS


def test_decisions_jsonl_is_a_function_of_log_csv(tmp_path):
    """Each rep's decisions.jsonl is rebuilt, byte for byte, from its
    log.csv and the scenario's step_scale and motivation_weight."""
    spec = load_scenario("conflict-cohort", replications=5)
    assert {(c.step_scale, c.motivation_weight) for c in spec.conditions} == {(1000.0, 1.0)}
    run_experiment(spec, tmp_path / "run")
    reps = sorted((tmp_path / "run").glob("*/rep_*"))
    assert len(reps) == 15
    for rep in reps:
        again = tmp_path / "again.jsonl"
        write_decisions_jsonl(decision_records(read_log_csv(rep / "log.csv"), 1000.0, 1.0), again)
        assert again.read_bytes() == (rep / "decisions.jsonl").read_bytes(), rep


def test_in_memory_experiment_holds_only_rows():
    """An in-memory run keeps each log's rows and no per-day record: the
    tracemalloc peak of conflict-cohort 3 x 100 is about 3 MB (7.7 MB
    when every log also held a decision record per day)."""
    spec = load_scenario("conflict-cohort", replications=100)
    tracemalloc.start()
    try:
        run_experiment(spec, "unused", write_artifacts=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


finite_or_inf = st.floats(allow_nan=False)


@given(
    pair=st.one_of(st.tuples(finite_or_inf, finite_or_inf), finite_or_inf.map(lambda x: (x, x)))
)
def test_pair_ranks_match_percentile_rank(pair):
    assert list(map(exact, _pair_ranks(*pair))) == list(map(exact, percentile_rank(list(pair))))


def read_log_rows_per_line(path) -> list[SessionRow]:
    """The rows of the log at `path`, decoded, split and parsed a line
    at a time, so that the first problem in line order is the one
    raised: the reader as it was before it parsed by column, kept as the
    oracle. Lines are physical lines of the file, split at b"\n"; a
    record is named by the line it starts on."""
    encoding = locale.getpreferredencoding(False)
    physical: list[int] = []  # the physical line of each line the CSV reader reads

    def text_lines(fh):
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode(encoding)
            except UnicodeDecodeError as exc:
                raise SchemaError(f"line {lineno}: not {encoding} text ({exc.reason})") from None
            for part in io.StringIO(text, newline=""):
                physical.append(lineno)
                yield part

    def records(reader):
        """(start line, record) for each record."""
        read = 0
        try:
            for record in reader:
                yield physical[read], record
                read = reader.line_num
        except csv.Error as exc:
            raise SchemaError(f"line {physical[reader.line_num - 1]}: {exc}") from None

    with open(path, "rb") as fh:
        reader = records(csv.reader(text_lines(fh)))
        try:
            _, header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header") from None
        if header != LOG_COLUMNS:
            missing = [c for c in LOG_COLUMNS if c not in header]
            extra = [c for c in header if c not in LOG_COLUMNS]
            detail = []
            if missing:
                detail.append(f"missing columns {missing}")
            if extra:
                detail.append(f"unexpected columns {extra}")
            if not detail:
                detail.append(f"column order must be {LOG_COLUMNS}")
            raise SchemaError("bad header: " + "; ".join(detail))
        rows = []
        lines = []
        first_row: dict[tuple[int, int], int] = {}
        for lineno, record in reader:
            if len(record) != len(LOG_COLUMNS):
                raise SchemaError(
                    f"line {lineno}: expected {len(LOG_COLUMNS)} fields, got {len(record)}"
                )
            values = []
            for column, parse, raw in zip(LOG_COLUMNS, _PARSERS, record):
                try:
                    values.append(parse(raw))
                except ValueError as exc:
                    raise SchemaError(f"line {lineno}, column {column!r}: {exc}") from None
            row = SessionRow._make(values)
            problem = _row_error(row)
            if problem is not None:
                raise SchemaError(f"line {lineno}, column {problem[0]!r}: {problem[1]}")
            # Two records can start on one physical line, so a repeat is
            # found by record.
            first = first_row.setdefault((row.day, row.player), len(rows))
            if first != len(rows):
                raise SchemaError(
                    f"line {lineno}, columns 'day', 'player': day {row.day} player"
                    f" {row.player} repeats line {lines[first]}"
                )
            rows.append(row)
            lines.append(lineno)
    players = {row.player for row in rows}
    for lineno, row in zip(lines, rows):
        if row.catered_player is not None and row.catered_player not in players:
            raise SchemaError(
                f"line {lineno}, column 'catered_player': player {row.catered_player}"
                " has no rows in the log"
            )
    return rows


COLUMN = {name: k for k, name in enumerate(LOG_COLUMNS)}
# Small pools, so that most columns repeat their strings as real logs do;
# each spelling is one the parsers accept. A quoted line break makes a
# record span two physical lines (or, with a bare "\r", two CSV lines).
STEP_STRINGS = ["0", "0.0", "-0.0", "8000.0", "10000.0", "1e3", "9876.54321", '"100\n"']
INT_SPELLINGS = ["{}", "0{}", " {}", "+{}", '"{}\n"', '"\r\n{}"', '"{}\r"']


def int_string(value: int):
    return st.sampled_from(INT_SPELLINGS).map(lambda spelling: spelling.format(value))


def step_string():
    return st.sampled_from(STEP_STRINGS) | st.floats(0.0, 1e9).map(repr)


@st.composite
def valid_log(draw) -> list[list[str]]:
    """The records (header first) of a log that breaks no schema rule."""
    players = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    days = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True))
    records = []
    for day in days:
        for p in players:
            missed = draw(st.booleans())
            score = st.sampled_from(["1", "2", "3", "4", "5", " 3"])
            arm = st.sampled_from(["A", "B", "C", "a", "b ", " c"])
            records.append([
                draw(int_string(day)),
                draw(int_string(p)),
                "" if missed else draw(step_string()),
                "1" if missed else "0",
                "" if missed else draw(score),
                "" if missed else draw(score),
                draw(arm),
                draw(st.sampled_from(["forced", "explore", "exploit"])),
                draw(st.sampled_from(["", *map(str, players)])),
                draw(step_string()),
                draw(arm),
                draw(arm),
                draw(step_string()),
            ])
    return [list(LOG_COLUMNS), *draw(st.permutations(records))]


def pick(draw, records) -> list[str]:
    """A data record of `records` with every field, or the header when
    there is none."""
    full = [record for record in records[1:] if len(record) == len(LOG_COLUMNS)]
    return draw(st.sampled_from(full)) if full else records[0]


def edit_log(draw, records, kind) -> None:
    """Break `records` in place in the way `kind` names. An undecodable
    byte is written as the surrogate escape of 0xff."""
    record = pick(draw, records)
    if kind == "bad int":
        column = draw(st.sampled_from(["day", "player", "pre_motivation", "catered_player"]))
        record[COLUMN[column]] = draw(st.sampled_from(["x", "1.5", "2e1"]))
    elif kind == "empty field":
        column = draw(st.sampled_from(["day", "player", "missed", "arm", "mode",
                                       "artificial_steps", "best_arm", "baseline_mean"]))
        record[COLUMN[column]] = ""
    elif kind == "score":
        column = draw(st.sampled_from(["pre_motivation", "post_motivation"]))
        record[COLUMN[column]] = draw(st.sampled_from(["0", "6"]))
    elif kind == "arm":
        column = draw(st.sampled_from(["arm", "best_arm", "worst_arm"]))
        record[COLUMN[column]] = draw(st.sampled_from(["AB", "", " a"]))
    elif kind == "missed with steps":
        record[COLUMN["missed"]] = "1"
        record[COLUMN["steps"]] = record[COLUMN["steps"]] or "5.0"
    elif kind == "repeated pair":
        records.insert(draw(st.integers(1, len(records))), list(record))
    elif kind == "unknown catered player":
        record[COLUMN["catered_player"]] = "10"
    elif kind == "field count":
        if draw(st.booleans()):
            record.append("")
        else:
            del record[-1]
    elif kind == "trailing blank line":
        records.append([])
    elif kind == "header only":
        del records[1:]
    elif kind == "undecodable after field error":
        record[COLUMN["mode"]] = "sideways"
        # With or without 8 KB of padding between them, the field error
        # comes first.
        if draw(st.booleans()):
            records.append(["x" * 9000])
        records.append(["1", "\udcff"])
    elif kind == "undecodable byte":
        record[draw(st.integers(0, len(record) - 1))] += "\udcff"
    elif kind == "open quote":
        # The quoted field runs on to the end of the file, or to a line
        # that does not decode.
        column = draw(st.integers(0, len(record) - 1))
        record[column] = '"' + record[column]
    elif kind == "line break":
        record[draw(st.integers(0, len(record) - 1))] += draw(st.sampled_from(["\r", "\r\n"]))
    else:
        raise AssertionError(kind)


LOG_EDITS = ["bad int", "empty field", "score", "arm", "missed with steps", "repeated pair",
             "unknown catered player", "field count", "trailing blank line", "header only",
             "undecodable after field error", "undecodable byte", "open quote", "line break"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_column_reader_matches_per_line_reader(data):
    """On a valid log with up to two edits, the column-at-a-time reader
    accepts exactly what the per-line reader accepts, with the same rows
    and field types, and rejects the rest with the same message."""
    records = data.draw(valid_log())
    for _ in range(data.draw(st.integers(0, 2))):
        edit_log(data.draw, records, data.draw(st.sampled_from(LOG_EDITS)))
    text = "".join(",".join(record) + "\n" for record in records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        try:
            want = read_log_rows_per_line(path)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as got:
                read_log_csv(path)
            assert str(got.value) == str(exc)
            return
        got = read_log_csv(path).rows
    assert got == want
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]
