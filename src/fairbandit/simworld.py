"""Seeded agent-based simulation of the 21-session team study.

Two synthetic players (plus the artificial teammate whose steps the
strategy places) walk through a 3-day unexposed baseline, then 21 daily
sessions: 9 forced-exploration days giving each arm exactly three pulls
in seeded-shuffled order, followed by strategy-driven days. Each day the
artificial teammate's steps are placed from the previous day's observed
steps, players respond to the resulting upward/downward comparisons
according to their social-comparison orientation, and may skip the
session with a probability that grows with their running
effort-vs-treatment disparity. Missed days contribute no reward
observation and no contribution credit.

Reproducibility contract: a (config, seed) pair yields a byte-identical
log on any platform. Three independent splitmix64 streams (decision,
world, jitter) are derived from the seed so that the world's responses
do not depend on which strategy is deciding; response/adherence draws
happen in a fixed per-day order whether or not the session is missed.
So every draw of the world stream is taken up front into a `StudyWorld`,
which studies at the same seed and protocol length can share (common
random numbers): the day loop reads its draws and never the stream.
"""
from __future__ import annotations

import csv
import io
import json
import locale
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import groupby
from typing import Iterator, NamedTuple

from .analysis import PlayerTally
from .bandit import (
    Arm,
    Decision,
    Mode,
    RewardModel,
    ShapleyBanditState,
    combined_reward,
    greedy_select,
    place_artificial_steps,
    predict_arms,
    random_select,
    shapley_select,
    shapley_update,
    team_disparity_sum,
)
from .rng import SplitMix64


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    # JSON true/false load as bool, a subclass of int, so no number takes one.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a JSON value must be to fill a field of each annotated type.
_ACCEPTS = {
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "float": ("a finite number", lambda v: _is_number(v) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def check_doc(cls, doc: dict, what: str) -> None:
    """Reject keys of `doc` that name no field of the dataclass `cls`, and
    values of its int, float, bool and str fields that are not of that type."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{what}: unknown key(s) {unknown}")
    for f in fields(cls):
        if f.name in doc and f.type in _ACCEPTS:
            expected, accepts = _ACCEPTS[f.type]
            if not accepts(doc[f.name]):
                raise ConfigError(f"{what}: {f.name} must be {expected}, got {doc[f.name]!r}")


def _check_finite(obj, *names: str) -> None:
    """Reject a value of the named attributes that `check_doc` would
    reject for a float field: NaN, an infinity, or not a number."""
    expected, accepts = _ACCEPTS["float"]
    for name in names:
        value = getattr(obj, name)
        if not accepts(value):
            raise ConfigError(f"{name} must be {expected}, got {value!r}")


class Condition(str, Enum):
    CONTROL = "control"
    GREEDY = "greedy"
    SHAPLEY = "shapley"


@dataclass(frozen=True)
class SimPlayer:
    """Synthetic participant.

    `sco` is the social-comparison orientation in [-1, 1]: +1 responds
    maximally to upward targets (people ahead of them), -1 to downward
    targets. `effect_size` scales the step response; the adherence
    coefficients are log-odds (miss probability is
    logistic(intercept + slope * running_disparity)).
    """

    baseline_steps: float
    noise_sd: float = 0.0
    sco: float = 0.0
    effect_size: float = 0.0
    adherence_intercept: float = -1.1
    adherence_slope: float = 0.0

    def __post_init__(self):
        _check_finite(
            self, "baseline_steps", "noise_sd", "effect_size", "adherence_intercept", "adherence_slope"
        )
        if self.baseline_steps <= 0:
            raise ConfigError("baseline_steps must be positive")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be non-negative")
        if not -1.0 <= self.sco <= 1.0:
            raise ConfigError("sco must be in [-1, 1]")
        if self.effect_size < 0:
            raise ConfigError("effect_size must be non-negative")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimPlayer":
        check_doc(cls, doc, "player")
        return cls(**doc)


TEAM_SIZE = 2  # human players per team


@dataclass(frozen=True)
class StudyConfig:
    condition: Condition
    players: tuple[SimPlayer, ...]
    seed: int = 0
    baseline_days: int = 3
    forced_exploration_days: int = 9
    total_sessions: int = 21
    epsilon: float = 0.01
    step_scale: float = 1000.0
    motivation_weight: float = 1.0
    jitter: bool = False

    def __post_init__(self):
        if isinstance(self.condition, str) and not isinstance(self.condition, Condition):
            object.__setattr__(self, "condition", Condition(self.condition))
        object.__setattr__(self, "players", tuple(self.players))
        if len(self.players) != TEAM_SIZE:
            raise ConfigError(
                f"the three-arm environment needs exactly {TEAM_SIZE} human players"
            )
        if self.baseline_days < 1:
            raise ConfigError("baseline_days must be >= 1")
        if self.forced_exploration_days < 0:
            raise ConfigError("forced_exploration_days must be >= 0")
        if self.forced_exploration_days % len(Arm) != 0:
            raise ConfigError(
                "forced_exploration_days must divide evenly across the 3 arms"
            )
        if self.forced_exploration_days > self.total_sessions:
            raise ConfigError("forced_exploration_days cannot exceed total_sessions")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        _check_finite(self, "step_scale", "motivation_weight")
        if not self.step_scale > 0:
            raise ConfigError("step_scale must be positive")
        # Every total a study forms (baseline and step sums, CSV, reward
        # sums, greedy's column sums) adds at most `days` terms, none over
        # a day's peak steps or peak |reward|. Comparing the int `days`
        # raises no OverflowError, however large.
        peak = self.peak_steps
        reward = peak / self.step_scale + abs(self.motivation_weight)
        days = TEAM_SIZE * (self.baseline_days + self.total_sessions)
        if days > sys.float_info.max / max(peak, reward):
            raise ConfigError(
                f"totals over {days} player-days overflow: a day's steps reach baseline_steps"
                f" + effect_size + 9 * noise_sd = {peak!r}, its |reward| reaches that / step_scale"
                f" + |motivation_weight| = {reward!r}"
            )

    @property
    def peak_steps(self) -> float:
        """A bound on any player's steps on any day: baseline_steps +
        effect_size + 9 * noise_sd, as Box-Muller gives |z| < 8.66."""
        return max(p.baseline_steps + p.effect_size + 9.0 * p.noise_sd for p in self.players)

    @property
    def intervention_start(self) -> int:
        return self.forced_exploration_days + 1

    def to_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "players": [vars(p) | {} for p in self.players],
            "seed": self.seed,
            "baseline_days": self.baseline_days,
            "forced_exploration_days": self.forced_exploration_days,
            "total_sessions": self.total_sessions,
            "epsilon": self.epsilon,
            "step_scale": self.step_scale,
            "motivation_weight": self.motivation_weight,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        check_doc(cls, doc, "study config")
        try:
            players = tuple(SimPlayer.from_dict(p) for p in doc["players"])
            return cls(**doc | {"condition": Condition(doc["condition"]), "players": players})
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"invalid study config: {exc}") from exc


class SessionRow(NamedTuple):
    day: int
    player: int
    steps: float | None
    missed: bool
    pre_motivation: int | None
    post_motivation: int | None
    arm: Arm
    mode: Mode
    catered_player: int | None
    artificial_steps: float
    best_arm: Arm
    worst_arm: Arm
    baseline_mean: float


@dataclass
class StudyLog:
    """Full per-session record of one simulated team study."""

    rows: list[SessionRow]
    condition: Condition | None = None
    seed: int | None = None
    name: str = ""
    baseline_means: list[float] = field(default_factory=list)
    final_csv: list[float] = field(default_factory=list)
    final_tc: list[int] = field(default_factory=list)
    final_tc_effective: list[int] = field(default_factory=list)
    final_sum_sd: float | None = None


def comparison_sign(own: float, target: float) -> int:
    """1 for a target with strictly more steps than `own` (upward), -1
    for strictly fewer (downward), 0 for equal (lateral)."""
    return (target > own) - (target < own)


def sign_alignment(sco: float, artificial_sign: int, teammate_sign: int) -> float:
    """Mean preference alignment over the two targets, given each
    target's `comparison_sign`: sco for upward, -sco for downward, 0 for
    lateral."""
    return (artificial_sign * sco + teammate_sign * sco) / 2.0


def step_response(player: SimPlayer, a: float, z: float) -> float:
    """Today's steps for preference alignment `a` (see `sign_alignment`) and
    standard normal draw `z`: baseline plus a * effect_size plus noise,
    floored at zero."""
    noise = 0.0 + player.noise_sd * z
    return max(0.0, player.baseline_steps + a * player.effect_size + noise)


def motivation_response(a: float, pre: int, u: float) -> tuple[int, int]:
    """Pre/post session motivation on the 1-5 scale. `pre` is the drawn
    pre-session score; post moves one point in the direction of
    alignment `a` when the uniform draw `u` falls below |a|, clamped to
    the scale."""
    post = pre
    if u < abs(a):
        post = min(5, max(1, pre + (1 if a > 0 else -1 if a < 0 else 0)))
    return pre, post


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def miss_decision(player: SimPlayer, running_disparity: float, u: float) -> bool:
    """Whether the player skips today's session: the uniform draw `u`
    falls below logistic(intercept + slope * running_disparity)."""
    if not -1.0 <= running_disparity <= 1.0:
        raise ValueError("running_disparity must be in [-1, 1]")
    p = logistic(player.adherence_intercept + player.adherence_slope * running_disparity)
    return u < p


def _forced_schedule(days: int, rng: SplitMix64) -> list[Arm]:
    arms = [arm for arm in Arm for _ in range(days // len(Arm))]
    rng.shuffle(arms)
    return arms


def _pair_ranks(x: float, y: float) -> tuple[float, float]:
    """`percentile_rank([x, y])` for two values that are not NaN."""
    if x < y:
        return 0.0, 1.0
    if x > y:
        return 1.0, 0.0
    return 0.5, 0.5


def _running_disparities(
    step_totals: list[float],
    step_counts: list[int],
    best_given: list[int],
    worst_given: list[int],
    any_exploit: bool,
) -> list[float]:
    """Each player's effort percentile minus treatment percentile within
    the team, from data through the previous day; zero until the first
    exploit decision has happened (and while any player lacks data).
    Effort is a player's running step total over their count of
    attended days; the total adds the steps left to right from 0.0."""
    if not any_exploit or not all(step_counts):
        return [0.0] * TEAM_SIZE
    e0, e1 = _pair_ranks(step_totals[0] / step_counts[0], step_totals[1] / step_counts[1])
    t0, t1 = _pair_ranks(
        float(best_given[0] - worst_given[0]), float(best_given[1] - worst_given[1])
    )
    return [e0 - t0, e1 - t1]


class WorldMismatchError(ValueError):
    """A `StudyWorld` drawn for another seed or protocol length than the
    study given it."""


class StudyWorld(NamedTuple):
    """Every draw of one study's world stream, in the order the day loop
    reads them: a standard normal z per baseline day and player, then
    per session day and player (z, pre-session motivation, a uniform
    for the post-session score, a uniform for the miss decision). It
    depends only on the seed and the protocol length, so studies that
    differ in strategy, players or jitter can share one."""

    seed: int
    baseline_days: int
    total_sessions: int
    baseline_z: tuple[float, ...]
    player_days: tuple[tuple[float, int, float, float], ...]

    def check(self, config: StudyConfig) -> None:
        """Raise WorldMismatchError unless this world is `config`'s."""
        want = (config.seed, config.baseline_days, config.total_sessions)
        got = (self.seed, self.baseline_days, self.total_sessions)
        if got != want:
            raise WorldMismatchError(
                f"world drawn for (seed, baseline_days, total_sessions) {got},"
                f" study needs {want}"
            )


def _streams(seed: int) -> tuple[SplitMix64, SplitMix64, SplitMix64]:
    """The decision, world and jitter streams of the study at `seed`."""
    base = SplitMix64(seed)
    return base.spawn(), base.spawn(), base.spawn()


def _draw_world(
    seed: int, world_rng: SplitMix64, baseline_days: int, total_sessions: int
) -> StudyWorld:
    normal, randrange, random = world_rng.normal, world_rng.randrange, world_rng.random
    baseline_z = tuple([normal() for _ in range(baseline_days * TEAM_SIZE)])
    # Pre-session motivation is uniform over {2, 3, 4}.
    player_days = tuple(
        [
            (normal(), 2 + randrange(3), random(), random())
            for _ in range(total_sessions * TEAM_SIZE)
        ]
    )
    return StudyWorld(seed, baseline_days, total_sessions, baseline_z, player_days)


def draw_world(seed: int, baseline_days: int, total_sessions: int) -> StudyWorld:
    """The world of every study at `seed` with this protocol length."""
    return _draw_world(seed, _streams(seed)[1], baseline_days, total_sessions)


def run_study(config: StudyConfig, world: StudyWorld | None = None) -> StudyLog:
    """Simulate one team through the full protocol and return its log.
    `world` holds the draws of the study's world stream (`draw_world`);
    without it the study draws its own, taking the same draws."""
    n = len(config.players)
    decision_rng, world_rng, jitter_rng = _streams(config.seed)
    if world is None:
        world = _draw_world(config.seed, world_rng, config.baseline_days, config.total_sessions)
    else:
        world.check(config)

    baseline_z = iter(world.baseline_z)
    baseline_samples: list[list[float]] = [[] for _ in range(n)]
    for _day in range(config.baseline_days):
        for i, player in enumerate(config.players):
            # A baseline day has no comparison: alignment 0 adds nothing.
            baseline_samples[i].append(step_response(player, 0.0, next(baseline_z)))
    baseline_means = [sum(s) / len(s) for s in baseline_samples]
    last_steps = [samples[-1] for samples in baseline_samples]

    schedule = _forced_schedule(config.forced_exploration_days, decision_rng)
    model = RewardModel()
    state = ShapleyBanditState.fresh(n, epsilon=config.epsilon)
    players = list(range(n))
    tc_effective = [0] * n
    step_totals = [0.0] * n
    step_counts = [0] * n
    best_given = [0] * n
    worst_given = [0] * n
    any_exploit = False

    rows: list[SessionRow] = []

    jitter = jitter_rng if config.jitter else None
    condition = config.condition
    forced_days = config.forced_exploration_days
    intervention_start = config.intervention_start
    step_scale = config.step_scale
    motivation_weight = config.motivation_weight
    team = [(i, player, player.sco, baseline_means[i]) for i, player in enumerate(config.players)]
    draws = iter(world.player_days)
    for day in range(1, config.total_sessions + 1):
        disparities = _running_disparities(
            step_totals, step_counts, best_given, worst_given, any_exploit
        )

        if day <= forced_days:
            decision = Decision(schedule[day - 1], None, Mode.FORCED)
        elif condition is Condition.CONTROL:
            decision = random_select(decision_rng)
        elif condition is Condition.GREEDY:
            decision = greedy_select(model, players)
        else:
            if sum(state.csv) <= 0:
                # No contribution signal yet (every session missed so
                # far): defer to exploration until rewards arrive.
                decision = random_select(decision_rng)
            else:
                decision = shapley_select(state, model, players, decision_rng)
        arm, catered, mode = decision

        predicted = [predict_arms(model, p) for p in players]
        artificial = place_artificial_steps(arm, last_steps[0], last_steps[1], jitter)

        day_steps: dict[int, float] = {}
        # place_artificial_steps has rejected negative steps of either
        # player, and never places a negative count.
        for i, player, sco, baseline_mean in team:
            own = last_steps[i]
            a = sign_alignment(
                sco, comparison_sign(own, artificial), comparison_sign(own, last_steps[1 - i])
            )
            z, pre, u_post, u_miss = next(draws)
            steps = step_response(player, a, z)
            pre, post = motivation_response(a, pre, u_post)
            missed = miss_decision(player, disparities[i], u_miss)
            if missed:
                steps = pre = post = None
            else:
                day_steps[i] = steps
                reward = combined_reward(
                    steps - baseline_mean, float(post - pre), step_scale, motivation_weight
                )
                model.observe_scalar(i, arm, reward)
            best, worst = predicted[i]
            rows.append(
                SessionRow(
                    day, i, steps, missed, pre, post, arm, mode, catered,
                    artificial, best, worst, baseline_mean,
                )
            )

        shapley_update(state, decision, day_steps)
        if mode is Mode.EXPLOIT:
            any_exploit = True
            for i in players:
                if arm is predicted[i][0]:
                    tc_effective[i] += 1
        for i, steps in day_steps.items():
            step_totals[i] += steps
            step_counts[i] += 1
            last_steps[i] = steps
        if day >= intervention_start:
            for i in players:
                best, worst = predicted[i]
                if arm is best:
                    best_given[i] += 1
                if arm is worst:
                    worst_given[i] += 1

    # Treatment shares for the final fairness audit: the strategy's own
    # counters where it maintains them (catered exploit rounds), else
    # the rounds whose chosen arm matched the player's predicted best.
    audit_tc = state.tc if config.condition is Condition.SHAPLEY else tc_effective
    try:
        final_sum_sd = team_disparity_sum(state.csv, audit_tc)
    except ValueError:
        final_sum_sd = None

    return StudyLog(
        rows=rows,
        condition=config.condition,
        seed=config.seed,
        baseline_means=baseline_means,
        final_csv=list(state.csv),
        final_tc=list(state.tc),
        final_tc_effective=tc_effective,
        final_sum_sd=final_sum_sd,
    )


def decision_records(log: StudyLog, step_scale: float, motivation_weight: float) -> Iterator[dict]:
    """Each session day's record, rebuilt from the log's rows in day order.
    Every row of a day carries its decision; `csv` adds attended steps as
    `shapley_update` does, `tc` counts exploit days catered to each player
    and `rewards` holds each attending player's combined reward."""
    n = 1 + max((row.player for row in log.rows), default=-1)
    contributions, treatments = [0.0] * n, [0] * n
    for day, day_rows in groupby(log.rows, lambda row: row.day):
        rewards = {}
        for row in day_rows:
            if not row.missed:
                contributions[row.player] += row.steps
                deltas = row.steps - row.baseline_mean, float(row.post_motivation - row.pre_motivation)
                rewards[row.player] = combined_reward(*deltas, step_scale, motivation_weight)
        if row.mode is Mode.EXPLOIT and row.catered_player is not None:
            treatments[row.catered_player] += 1
        yield {
            "day": day, "mode": row.mode.value, "arm": row.arm.letter,
            "catered_player": row.catered_player, "csv": list(contributions),
            "tc": list(treatments), "rewards": {str(p): rewards[p] for p in sorted(rewards)},
        }


LOG_COLUMNS = [
    "day",
    "player",
    "steps",
    "missed",
    "pre_motivation",
    "post_motivation",
    "arm",
    "mode",
    "catered_player",
    "artificial_steps",
    "best_arm",
    "worst_arm",
    "baseline_mean",
]


class SchemaError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_log_csv(log: StudyLog, path) -> None:
    """One row per player-day under the documented stable header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_COLUMNS)
        for row in log.rows:
            writer.writerow(
                [
                    row.day,
                    row.player,
                    _fmt(row.steps),
                    _fmt(row.missed),
                    _fmt(row.pre_motivation),
                    _fmt(row.post_motivation),
                    row.arm.letter,
                    row.mode.value,
                    _fmt(row.catered_player),
                    _fmt(row.artificial_steps),
                    row.best_arm.letter,
                    row.worst_arm.letter,
                    _fmt(row.baseline_mean),
                ]
            )


def _flag(raw: str) -> bool:
    if raw == "1":
        return True
    if raw == "0":
        return False
    raise ValueError(f"expected 0 or 1, got {raw!r}")


def _opt_int(raw: str) -> int | None:
    return int(raw) if raw else None


def _opt_score(raw: str) -> int | None:
    """A motivation score on the 1-5 scale, or None for an empty field."""
    if not raw:
        return None
    score = int(raw)
    if not 1 <= score <= 5:
        raise ValueError(f"score {score} is outside the 1-5 scale")
    return score


def _opt_float(raw: str) -> float | None:
    return float(raw) if raw else None


_MODE_BY_VALUE = {mode.value: mode for mode in Mode}


def _mode(raw: str) -> Mode:
    try:
        return _MODE_BY_VALUE[raw]
    except KeyError:
        raise ValueError(f"{raw!r} is not a valid Mode") from None


# One parser per LOG_COLUMNS entry, in that order; each raises ValueError.
_PARSERS = (
    int,
    int,
    _opt_float,
    _flag,
    _opt_score,
    _opt_score,
    Arm.from_letter,
    _mode,
    _opt_int,
    float,
    Arm.from_letter,
    Arm.from_letter,
    float,
)


def _row_error(row: SessionRow) -> tuple[str, str] | None:
    """(column, reason) for a parsed row that no simulation can write:
    a day below 1, a step count that is negative or not finite, or a
    missed session with data (or an attended one without steps)."""
    if row.day < 1:
        return "day", f"day {row.day} is below 1"
    if row.missed:
        if row.steps is not None:
            return "steps", "a missed session has steps"
        if row.pre_motivation is not None or row.post_motivation is not None:
            column = "pre_motivation" if row.pre_motivation is not None else "post_motivation"
            return column, "a missed session has motivation scores"
    elif row.steps is None:
        return "steps", "an attended session has no steps"
    elif not 0.0 <= row.steps < math.inf:
        return "steps", f"{row.steps!r} is not a finite non-negative step count"
    if not 0.0 <= row.artificial_steps < math.inf:
        return "artificial_steps", f"{row.artificial_steps!r} is not a finite non-negative step count"
    if not 0.0 <= row.baseline_mean < math.inf:
        return "baseline_mean", f"{row.baseline_mean!r} is not a finite non-negative step count"
    return None


def _read_records(path) -> tuple[str, list[list[str]], SchemaError | None]:
    """The text of the log at `path` and its CSV records, read and
    decoded once, and the SchemaError for bytes that are not text in the
    encoding `open` defaults to, or for CSV the reader cannot split. The
    text and records stop before the line that raised it, as a
    line-at-a-time reader's would."""
    with open(path, "rb") as fh:
        data = fh.read()
    encoding = locale.getpreferredencoding(False)
    try:
        text, cut = data.decode(encoding), None
    except UnicodeDecodeError as exc:
        text = data[: data.rfind(b"\n", 0, exc.start) + 1].decode(encoding)
        line = data.count(b"\n", 0, exc.start) + 1
        cut = SchemaError(f"line {line}: not {encoding} text ({exc.reason})")
    reader = csv.reader(_lines_then_raise(text, cut))
    records = []
    try:
        for record in reader:
            records.append(record)
    except csv.Error as exc:
        cut = SchemaError(f"line {_line_numbers(text)[reader.line_num - 1]}: {exc}")
    except SchemaError:
        pass
    return text, records, cut


def _lines_then_raise(text: str, error: SchemaError | None):
    """The lines of `text` as a file opened with newline="" yields them,
    then `error`, so that the CSV reader drops a record it cut open."""
    yield from io.StringIO(text, newline="")
    if error is not None:
        raise error


def _line_numbers(text: str) -> list[int]:
    """The physical line of each line that the CSV reader reads from
    `text`, then the line after the last. Only "\n" ends a physical
    line; a bare "\r" ends a CSV line too."""
    numbers, number = [], 1
    for line in io.StringIO(text, newline=""):
        numbers.append(number)
        number += line.endswith("\n")
    numbers.append(number)
    return numbers


def _record_lines(text: str) -> list[int]:
    """The physical line on which each CSV record of `text` starts, the
    header first. A quoted field can hold line breaks, so a record can
    span lines."""
    numbers = _line_numbers(text)
    reader = csv.reader(io.StringIO(text, newline=""))
    starts = [numbers[0]]
    try:
        for _ in reader:
            starts.append(numbers[reader.line_num])
    except csv.Error:
        pass
    return starts


def read_log_csv(path, name: str = "") -> StudyLog:
    """Parse a session log CSV, validating the documented schema.

    Header mismatches, unparseable values, a day below 1, step counts
    that are negative or not finite, motivation scores outside 1-5, a
    missed session with data or an attended one without steps, a
    repeated (day, player) pair and a `catered_player` that has no rows
    raise SchemaError naming the offending line and column. So do bytes
    that are not text in the locale's encoding and CSV the reader cannot
    split (a field over the csv module's size limit), naming the line.
    The error raised is the first problem in line order, except that a
    `catered_player` with no rows is only named when nothing else is
    wrong, as it takes the whole log to find. Lines are physical lines
    of the file: a record names the line it starts on.

    A log repeats a handful of strings in most columns, so each column
    parses every distinct string once and maps its fields through the
    results. The rows are walked one at a time only to name a problem
    that a check over the whole log found.
    """
    text, records, cut = _read_records(path)
    if not records:
        raise cut or SchemaError("empty file: missing header")
    header, *records = records
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
    starts: list[int] = []

    def line(k: int) -> int:
        """The physical line of data record `k`, found only for an error."""
        if not starts:
            starts.extend(_record_lines(text)[1:])
        return starts[k]

    # Like a read error, a record of the wrong width or with a field that
    # does not parse ends the rows: only a problem on an earlier line, or
    # an earlier such record, is named before it.
    width = len(LOG_COLUMNS)
    stop = next((k for k, record in enumerate(records) if len(record) != width), len(records))
    if stop < len(records):
        cut = SchemaError(f"line {line(stop)}: expected {width} fields, got {len(records[stop])}")
    raw_columns = list(zip(*records[:stop])) or [()] * width
    values = []
    for column, parse, raws in zip(LOG_COLUMNS, _PARSERS, raw_columns):
        parsed, failed = {}, {}
        for raw in set(raws):
            try:
                parsed[raw] = parse(raw)
            except ValueError as exc:
                failed[raw] = exc
        values.append(parsed)
        if failed:
            bad = next(k for k, raw in enumerate(raws) if raw in failed)
            if bad < stop:
                stop = bad
                cut = SchemaError(f"line {line(bad)}, column {column!r}: {failed[raws[bad]]}")
    columns = [
        list(map(parsed.__getitem__, raws[:stop])) for parsed, raws in zip(values, raw_columns)
    ]
    rows = list(map(SessionRow._make, zip(*columns)))
    days, players, catered = columns[0], columns[1], columns[8]
    if any(map(_row_error, rows)) or len(set(zip(days, players))) != len(rows):
        raise _first_row_problem(rows, line)
    if cut is not None:
        raise cut
    strays = set(catered).difference(players, (None,))
    if strays:
        k = next(k for k, player in enumerate(catered) if player in strays)
        raise SchemaError(
            f"line {line(k)}, column 'catered_player': player {catered[k]}"
            " has no rows in the log"
        )
    return StudyLog(rows=rows, name=name)


def _first_row_problem(rows: list[SessionRow], line) -> SchemaError:
    """The error for the first row that `_row_error` rejects or whose
    (day, player) pair repeats an earlier row's; `line(k)` is the
    physical line of row `k`."""
    first_row: dict[tuple[int, int], int] = {}
    for k, row in enumerate(rows):
        problem = _row_error(row)
        if problem is not None:
            return SchemaError(f"line {line(k)}, column {problem[0]!r}: {problem[1]}")
        first = first_row.setdefault((row.day, row.player), k)
        if first != k:
            return SchemaError(
                f"line {line(k)}, columns 'day', 'player': day {row.day} player"
                f" {row.player} repeats line {line(first)}"
            )
    raise AssertionError("every row is valid and unique")


def log_summary(log: StudyLog, tallies: dict[int, PlayerTally]) -> dict:
    """Per-study JSON summary: baselines, final strategy state and the
    headline per-player outcomes. `tallies` is the log's `log_metrics`
    over the analysis window."""
    post = [score for tally in tallies.values() for score in tally.post_motivation]
    return {
        "condition": log.condition.value if log.condition else None,
        "seed": log.seed,
        "baseline_means": log.baseline_means,
        "final_csv": log.final_csv,
        "final_tc": log.final_tc,
        "final_tc_effective": log.final_tc_effective,
        "final_sum_sd": log.final_sum_sd,
        "steps_vs_baseline": {
            str(p): (t.effort - log.baseline_means[p]) if t.effort is not None else None
            for p, t in tallies.items()
        }
        if log.baseline_means
        else {},
        "post_motivation_mean": sum(post) / len(post) if post else None,
        "miss_likelihood": {str(p): t.miss_likelihood for p, t in tallies.items()},
    }


def write_log_summary(log: StudyLog, path, tallies: dict[int, PlayerTally]) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(log_summary(log, tallies), fh, indent=2, sort_keys=True)
        fh.write("\n")
