import csv
import io
import locale
import math
import statistics
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbandit.analysis import log_metrics
from fairbandit.bandit import Arm, Mode
from fairbandit.rng import SplitMix64
from fairbandit.scenarios import load_scenario
from fairbandit.simworld import (
    LOG_COLUMNS,
    Condition,
    ConfigError,
    Direction,
    Exposure,
    SchemaError,
    SessionRow,
    SimPlayer,
    StudyConfig,
    _PARSERS,
    _row_error,
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
        assert step_response(p, alignment(p.sco, self.UP_UP), SplitMix64(0)) == pytest.approx(10500.0)

    def test_downward_responder_suppressed(self):
        p = player(sco=-1.0, effect_size=500.0)
        assert step_response(p, alignment(p.sco, self.UP_UP), SplitMix64(0)) == pytest.approx(9500.0)

    def test_null_responder_unmoved(self):
        p = player(sco=0.0, effect_size=500.0)
        assert step_response(p, alignment(p.sco, self.UP_UP), SplitMix64(0)) == pytest.approx(10000.0)

    def test_floored_at_zero(self):
        p = player(baseline_steps=100.0, sco=-1.0, effect_size=5000.0)
        assert step_response(p, alignment(p.sco, self.UP_UP), SplitMix64(0)) == 0.0


class TestMotivationResponse:
    def test_full_alignment_moves_up(self):
        p = player(sco=1.0)
        rng = SplitMix64(3)
        for _ in range(50):
            pre, post = motivation_response(alignment(p.sco, TestStepResponse.UP_UP), rng)
            assert post == min(5, pre + 1)

    def test_zero_alignment_keeps_pre(self):
        p = player(sco=0.0)
        rng = SplitMix64(4)
        for _ in range(50):
            pre, post = motivation_response(alignment(p.sco, TestStepResponse.UP_UP), rng)
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
            pre, post = motivation_response(alignment(p.sco, e), rng)
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


def read_log_rows_per_line(path) -> list[SessionRow]:
    """The rows of the log at `path`, decoded, split and parsed a line
    at a time, so that the first problem in line order is the one
    raised: the reader as it was before it parsed by column, kept as the
    oracle."""
    encoding = locale.getpreferredencoding(False)

    def text_lines(fh):
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode(encoding)
            except UnicodeDecodeError as exc:
                raise SchemaError(f"line {lineno}: not {encoding} text ({exc.reason})") from None
            yield from io.StringIO(text, newline="")

    def records(reader):
        try:
            yield from reader
        except csv.Error as exc:
            raise SchemaError(f"line {reader.line_num}: {exc}") from None

    with open(path, "rb") as fh:
        reader = records(csv.reader(text_lines(fh)))
        try:
            header = next(reader)
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
        first_line: dict[tuple[int, int], int] = {}
        for lineno, record in enumerate(reader, start=2):
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
            first = first_line.setdefault((row.day, row.player), lineno)
            if first != lineno:
                raise SchemaError(
                    f"line {lineno}, columns 'day', 'player': day {row.day} player"
                    f" {row.player} repeats line {first}"
                )
            rows.append(row)
    players = {row.player for row in rows}
    for lineno, row in enumerate(rows, start=2):
        if row.catered_player is not None and row.catered_player not in players:
            raise SchemaError(
                f"line {lineno}, column 'catered_player': player {row.catered_player}"
                " has no rows in the log"
            )
    return rows


COLUMN = {name: k for k, name in enumerate(LOG_COLUMNS)}
# Small pools, so that most columns repeat their strings as real logs do;
# each spelling is one the parsers accept.
STEP_STRINGS = ["0", "0.0", "-0.0", "8000.0", "10000.0", "1e3", "9876.54321"]
INT_SPELLINGS = ["{}", "0{}", " {}", "+{}"]


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
