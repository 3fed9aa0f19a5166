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
So every draw of the world stream is taken up front, before the first
day, and the day loop reads its draws and never the stream. No day
before the first strategy day reads the condition or epsilon, so studies
that differ only in those can share a `StudyPrefix` of them, which
carries the world's draws (common random numbers).
"""
from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .bandit import (
    Arm,
    Decision,
    Mode,
    RewardModel,
    ShapleyBanditState,
    _total,
    combined_reward,
    greedy_select,
    place_artificial_steps,
    predict_arms,
    random_select,
    shapley_select,
    shapley_update,
)
from .logs import SessionRow, StudyLog
from .logs import write_log_csv  # noqa: F401  imported by benchmarks/corpus.py
from .rng import SplitMix64, world_draws
from .strictjson import is_number


class ConfigError(ValueError):
    pass


class Condition(str, Enum):
    CONTROL = "control"
    GREEDY = "greedy"
    SHAPLEY = "shapley"


# What a JSON value must be to fill a field of each annotated type, by
# the type's name up to any `[`: a tuple field takes a list of objects.
_ACCEPTS = {
    "int": ("an integer", lambda v: is_number(v) and isinstance(v, int)),
    "float": ("a finite number", lambda v: is_number(v) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "Condition": (
        f"one of {', '.join(c.value for c in Condition)}",
        lambda v: v in [c.value for c in Condition],
    ),
    "tuple": ("a list of objects", lambda v: isinstance(v, list)),
}


def check_doc(cls, doc: dict, what: str) -> None:
    """Reject keys of `doc` that name no field of the dataclass `cls`, a
    field without a default that `doc` lacks, and values that `_ACCEPTS`
    rejects for their field's type."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{what}: unknown key(s) {unknown}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in doc:
            raise ConfigError(f"{what} missing key: {f.name!r}")
        rule = _ACCEPTS.get(f.type.partition("[")[0])
        if f.name in doc and rule is not None:
            expected, accepts = rule
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
        if self.total_sessions < 1:
            raise ConfigError("total_sessions must be >= 1")
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
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "condition": self.condition.value,
            "players": [vars(p) | {} for p in self.players],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        check_doc(cls, doc, "study config")
        return cls(**doc | {"players": tuple(SimPlayer.from_dict(p) for p in doc["players"])})


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


def _miss_probability(player: SimPlayer, running_disparity: float) -> float:
    if not -1.0 <= running_disparity <= 1.0:
        raise ValueError("running_disparity must be in [-1, 1]")
    return logistic(player.adherence_intercept + player.adherence_slope * running_disparity)


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
    csv: list[float],
    step_counts: list[int],
    best_given: list[int],
    worst_given: list[int],
) -> list[float]:
    """Each player's effort percentile minus treatment percentile within
    the team, from data through the previous day; zero while any player
    lacks data (`run_study` also takes zero until the first exploit day).
    Effort is a player's CSV, their attended steps added left to right
    from 0.0, over their count of attended days."""
    if not all(step_counts):
        return [0.0] * TEAM_SIZE
    e0, e1 = _pair_ranks(csv[0] / step_counts[0], csv[1] / step_counts[1])
    t0, t1 = _pair_ranks(
        float(best_given[0] - worst_given[0]), float(best_given[1] - worst_given[1])
    )
    return [e0 - t0, e1 - t1]


class PrefixMismatchError(ValueError):
    """A `StudyPrefix` given a study that differs from its own in more than
    condition and epsilon."""


# The config fields that the days before the first strategy day read.
_PREFIX_FIELDS = [f.name for f in fields(StudyConfig) if f.name not in ("condition", "epsilon")]
prefix_key = attrgetter(*_PREFIX_FIELDS)


class StudyPrefix(NamedTuple):
    """A study's day loop between two days: before its first session day
    (`_start`), or after its forced days (`study_prefix`). No forced day
    exploits or counts toward the best/worst arm tallies."""

    key: tuple  # `prefix_key` of its study
    baseline_means: tuple[float, ...]
    schedule: tuple[Decision, ...]  # one per forced day
    # Every draw of the world stream after the baseline days, per session
    # day and player: z, pre-session motivation, a uniform for the
    # post-session score, a uniform for the miss decision.
    draws: tuple[tuple[float, int, float, float], ...]
    rows: tuple[SessionRow, ...]  # one per draw read
    estimates: tuple  # ((player, cells), ...) of the reward sums, counts and means
    tallies: tuple  # per player: CSV, TC, attended days, last steps, predicted arms
    streams: tuple[int, int]  # the decision and jitter streams' states

    def check(self, config: StudyConfig) -> None:
        """Raise PrefixMismatchError unless `config` differs from its study
        only in condition and epsilon."""
        if prefix_key(config) != self.key:
            differ = [f for f, a, b in zip(_PREFIX_FIELDS, self.key, prefix_key(config)) if a != b]
            raise PrefixMismatchError(f"prefix run for a study that differs in {differ}")


def _start(config: StudyConfig) -> StudyPrefix:
    """`config`'s study before its first session day. It takes every draw
    of the world stream up front: a standard normal z per baseline day
    and player, then `StudyPrefix.draws`."""
    base = SplitMix64(config.seed)
    decision_rng, world_rng, jitter_rng = base.spawn(), base.spawn(), base.spawn()
    normal, randrange, random = world_rng.normal, world_rng.randrange, world_rng.random
    n = len(config.players)
    # Pre-session motivation is uniform over {2, 3, 4}. The scalar draws
    # below are the reference, taken when the block holds a rejected output.
    drawn = world_draws(world_rng, config.baseline_days * n, config.total_sessions * n, 2, 3)
    baseline_z, draws = drawn or ([normal() for _ in range(config.baseline_days * n)], tuple(
        [(normal(), 2 + randrange(3), random(), random()) for _ in range(config.total_sessions * n)]
    ))
    # A baseline day has no comparison: alignment 0 adds nothing. Each
    # baseline day draws once per player, so player i's draws are [i::n].
    samples = [
        [step_response(player, 0.0, z) for z in baseline_z[i::n]]
        for i, player in enumerate(config.players)
    ]
    schedule = _forced_schedule(config.forced_exploration_days, decision_rng)
    last_steps, unobserved = tuple(s[-1] for s in samples), predict_arms(RewardModel(), 0)
    return StudyPrefix(
        prefix_key(config), tuple(_total(s) / len(s) for s in samples),
        tuple([Decision(arm, None, Mode.FORCED) for arm in schedule]), draws, rows=(),
        estimates=((), (), ()), tallies=((0.0,) * n, (0,) * n, (0,) * n, last_steps, (unobserved,) * n),
        streams=(decision_rng._state, jitter_rng._state),
    )


def study_prefix(config: StudyConfig) -> StudyPrefix:
    """`config`'s study after its baseline and forced days, which no
    strategy decides."""
    start = _start(config)
    rows, model, tallies, rngs = _run_days(config, start, config.forced_exploration_days)
    cells = (model._sums, model._counts, model._means)
    return start._replace(
        rows=tuple(rows), estimates=tuple(tuple((p, tuple(v)) for p, v in c.items()) for c in cells),
        tallies=tuple(map(tuple, tallies)), streams=tuple(rng._state for rng in rngs),
    )


def _run_days(config: StudyConfig, at: StudyPrefix, last_day: int) -> tuple:
    """The day loop from the state `at` through `last_day`, starting on the
    day after `at`'s last row. A forced day takes its decision from `at`'s
    schedule, a later day from `config`'s strategy. Returns the rows, the
    reward model, `StudyPrefix.tallies` as lists and the decision and
    jitter streams. Rewards and steps fold in through the validated
    updates, which `StudyConfig`'s overflow bound keeps from raising."""
    n = len(config.players)
    model = RewardModel()
    model._sums, model._counts, model._means = ({p: list(v) for p, v in cells} for cells in at.estimates)
    csv, tc, step_counts, last_steps, predicted = tallies = list(map(list, at.tallies))
    state = ShapleyBanditState(csv, tc, config.epsilon)
    decision_rng, jitter_rng = rngs = list(map(SplitMix64, at.streams))
    if config.condition is Condition.CONTROL:
        decide = partial(random_select, decision_rng)
    elif config.condition is Condition.GREEDY:
        decide = partial(greedy_select, model, range(n))
    else:
        decide = partial(shapley_select, state, predicted, decision_rng)
    schedule, forced_days = at.schedule, len(at.schedule)
    rows, best_given, worst_given = list(at.rows), [0] * n, [0] * n
    any_exploit, exploit, no_disparity = False, Mode.EXPLOIT, [0.0] * n
    observe, new_row = model.observe_scalar, tuple.__new__
    jitter = jitter_rng if config.jitter else None
    intervention_start = config.intervention_start
    scale, weight = config.step_scale, config.motivation_weight
    # The last member caches the player's miss probability per running disparity.
    team = [(i, 1 - i, player, player.sco, at.baseline_means[i], {}) for i, player in enumerate(config.players)]
    draws = iter(at.draws[len(at.rows):])
    for day in range(len(at.rows) // n + 1, last_day + 1):
        disparities = no_disparity if not any_exploit else _running_disparities(
            csv, step_counts, best_given, worst_given
        )
        decision = schedule[day - 1] if day <= forced_days else decide()
        arm, catered, mode = decision
        any_exploit = any_exploit or mode is exploit
        artificial = place_artificial_steps(arm, last_steps[0], last_steps[1], jitter)

        day_steps = {}
        # place_artificial_steps has rejected negative steps of either
        # player, and never places a negative count.
        for i, other, player, sco, baseline_mean, miss_p in team:
            own = last_steps[i]
            a = sign_alignment(
                sco, comparison_sign(own, artificial), comparison_sign(own, last_steps[other])
            )
            z, pre, u_post, u_miss = next(draws)
            steps = step_response(player, a, z)
            pre, post = motivation_response(a, pre, u_post)
            if (d := disparities[i]) not in miss_p:  # a running disparity takes at most five values
                miss_p[d] = _miss_probability(player, d)
            best, worst = predicted[i]
            missed = u_miss < miss_p[d]
            if missed:
                steps = pre = post = None
            else:
                day_steps[i] = steps
                reward = combined_reward(steps - baseline_mean, float(post - pre), scale, weight)
                observe(i, arm, reward)
                predicted[i] = predict_arms(model, i)
            # `tuple.__new__` skips the named tuple's Python-level `__new__`.
            rows.append(new_row(SessionRow, (
                day, i, steps, missed, pre, post, arm, mode, catered, artificial, best, worst, baseline_mean
            )))
            if day >= intervention_start:
                best_given[i] += arm is best
                worst_given[i] += arm is worst

        # The CSV adds each attended player's steps from 0.0, so it is
        # also the running step total that effort reads.
        shapley_update(state, decision, day_steps)
        for i, steps in day_steps.items():
            step_counts[i] += 1
            last_steps[i] = steps
    return rows, model, tallies, rngs


def run_study(config: StudyConfig, prefix: StudyPrefix | None = None) -> StudyLog:
    """Simulate one team through the full protocol and return its log.
    `prefix` may be the `study_prefix` of a study of another condition or
    epsilon; the later days resume from it. Without it the study runs
    every day from its start."""
    if prefix is None:
        prefix = _start(config)
    else:
        prefix.check(config)
    rows = _run_days(config, prefix, config.total_sessions)[0]
    return StudyLog(rows, config.condition, config.seed, intervention_start=config.intervention_start)
