import math
import statistics
from dataclasses import replace

import pytest

from fairbandit.bandit import Arm, Mode
from fairbandit.rng import SplitMix64
from fairbandit.simworld import (
    Condition,
    ConfigError,
    Direction,
    Exposure,
    SchemaError,
    SimPlayer,
    StudyConfig,
    alignment,
    exposure_direction,
    log_summary,
    logistic,
    miss_decision,
    motivation_response,
    read_log_csv,
    run_study,
    step_response,
    write_log_csv,
)


def player(**kwargs) -> SimPlayer:
    defaults = dict(baseline_steps=10000.0, noise_sd=0.0, sco=0.0, effect_size=0.0)
    defaults.update(kwargs)
    return SimPlayer(**defaults)


def config(condition=Condition.GREEDY, players=None, **kwargs) -> StudyConfig:
    if players is None:
        players = (player(), player(baseline_steps=9000.0))
    return StudyConfig(condition=condition, players=players, **kwargs)


class TestExposure:
    def test_more_steps_is_upward(self):
        e = exposure_direction(9000, 12000, 9500)
        assert e.artificial is Direction.UPWARD

    def test_fewer_steps_is_downward(self):
        e = exposure_direction(9000, 6400, 9500)
        assert e.artificial is Direction.DOWNWARD

    def test_equal_steps_is_lateral(self):
        e = exposure_direction(9000, 9000, 9000)
        assert e.artificial is Direction.LATERAL
        assert e.teammate is Direction.LATERAL

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            exposure_direction(-1, 100, 100)

    def test_alignment_averages_targets(self):
        up_up = Exposure(Direction.UPWARD, Direction.UPWARD)
        up_down = Exposure(Direction.UPWARD, Direction.DOWNWARD)
        assert alignment(0.8, up_up) == pytest.approx(0.8)
        assert alignment(0.8, up_down) == pytest.approx(0.0)
        assert alignment(-0.5, up_up) == pytest.approx(-0.5)


class TestStepResponse:
    UP_UP = Exposure(Direction.UPWARD, Direction.UPWARD)

    def test_upward_responder_boosted(self):
        p = player(sco=1.0, effect_size=500.0)
        assert step_response(p, self.UP_UP, SplitMix64(0)) == pytest.approx(10500.0)

    def test_downward_responder_suppressed(self):
        p = player(sco=-1.0, effect_size=500.0)
        assert step_response(p, self.UP_UP, SplitMix64(0)) == pytest.approx(9500.0)

    def test_null_responder_unmoved(self):
        p = player(sco=0.0, effect_size=500.0)
        assert step_response(p, self.UP_UP, SplitMix64(0)) == pytest.approx(10000.0)

    def test_floored_at_zero(self):
        p = player(baseline_steps=100.0, sco=-1.0, effect_size=5000.0)
        assert step_response(p, self.UP_UP, SplitMix64(0)) == 0.0


class TestMotivationResponse:
    def test_full_alignment_moves_up(self):
        p = player(sco=1.0)
        rng = SplitMix64(3)
        for _ in range(50):
            pre, post = motivation_response(p, TestStepResponse.UP_UP, rng)
            assert post == min(5, pre + 1)

    def test_zero_alignment_keeps_pre(self):
        p = player(sco=0.0)
        rng = SplitMix64(4)
        for _ in range(50):
            pre, post = motivation_response(p, TestStepResponse.UP_UP, rng)
            assert post == pre

    def test_scale_bounds_over_many_draws(self):
        rng = SplitMix64(5)
        exposures = [
            Exposure(a, t)
            for a in Direction
            for t in Direction
        ]
        players = [player(sco=s) for s in (-1.0, -0.3, 0.0, 0.7, 1.0)]
        for i in range(10000):
            p = players[i % len(players)]
            e = exposures[i % len(exposures)]
            pre, post = motivation_response(p, e, rng)
            assert 1 <= pre <= 5
            assert 1 <= post <= 5


class TestMissDecision:
    def test_slope_zero_is_base_rate(self):
        p = player(adherence_intercept=-1.1, adherence_slope=0.0)
        rng = SplitMix64(6)
        misses = sum(miss_decision(p, d, rng) for d in (-1.0, 0.0, 1.0) for _ in range(5000))
        assert misses / 15000 == pytest.approx(logistic(-1.1), abs=0.01)

    def test_logistic_value_against_direct_arithmetic(self):
        assert logistic(-0.1) == pytest.approx(1.0 / (1.0 + math.exp(0.1)), abs=1e-12)
        assert logistic(-0.1) == pytest.approx(0.475, abs=0.001)
        p = player(adherence_intercept=-1.1, adherence_slope=2.0)
        rng = SplitMix64(7)
        rate = sum(miss_decision(p, 0.5, rng) for _ in range(20000)) / 20000
        assert rate == pytest.approx(0.475, abs=0.01)

    def test_monotone_in_disparity(self):
        p = player(adherence_intercept=-1.1, adherence_slope=50.0)
        rng = SplitMix64(8)
        low = sum(miss_decision(p, -1.0, rng) for _ in range(2000)) / 2000
        high = sum(miss_decision(p, 1.0, rng) for _ in range(2000)) / 2000
        assert low == pytest.approx(logistic(-1.1 - 50.0), abs=0.01)
        assert high == pytest.approx(logistic(-1.1 + 50.0), abs=0.01)

    def test_disparity_domain(self):
        with pytest.raises(ValueError):
            miss_decision(player(), 1.5, SplitMix64(0))

    def test_extreme_logistic_does_not_overflow(self):
        assert logistic(-1000.0) == 0.0
        assert logistic(1000.0) == 1.0


class TestConfigValidation:
    def test_forced_days_must_divide_across_arms(self):
        with pytest.raises(ConfigError):
            config(forced_exploration_days=8)

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
        assert a.decisions == b.decisions
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
        assert all("0" not in d["rewards"] for d in log.decisions)

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
        exploit_days = sum(1 for d in log.decisions if d["mode"] == "exploit")
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

    def test_summary_fields(self):
        log = self.make_log()
        summary = log_summary(log)
        assert summary["condition"] == "shapley"
        assert len(summary["baseline_means"]) == 2
        assert set(summary["miss_likelihood"]) == {"0", "1"}
        assert summary["final_sum_sd"] is not None
