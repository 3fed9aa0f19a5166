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
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum

from .analysis import DEFAULT_INTERVENTION_START, log_metrics, percentile_rank
from .bandit import (
    Arm,
    Decision,
    Mode,
    Reward,
    RewardModel,
    ShapleyBanditState,
    decision_record,
    greedy_select,
    place_artificial_steps,
    predict_best_arm,
    predict_worst_arm,
    random_select,
    shapley_select,
    shapley_update,
    team_disparity_sum,
)
from .rng import SplitMix64


class ConfigError(ValueError):
    pass


def check_keys(cls, doc: dict, what: str) -> None:
    """Reject keys of `doc` that name no field of the dataclass `cls`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{what}: unknown key(s) {unknown}")


class Condition(str, Enum):
    CONTROL = "control"
    GREEDY = "greedy"
    SHAPLEY = "shapley"


class Direction(str, Enum):
    UPWARD = "upward"
    DOWNWARD = "downward"
    LATERAL = "lateral"


@dataclass(frozen=True)
class Exposure:
    """Comparison direction toward each of a player's two targets."""

    artificial: Direction
    teammate: Direction


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
        if self.baseline_steps <= 0:
            raise ConfigError("baseline_steps must be positive")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be non-negative")
        if not -1.0 <= self.sco <= 1.0:
            raise ConfigError("sco must be in [-1, 1]")
        if self.effect_size < 0:
            raise ConfigError("effect_size must be non-negative")


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
        if len(self.players) != 2:
            raise ConfigError("the three-arm environment needs exactly 2 human players")
        if self.baseline_days < 1:
            raise ConfigError("baseline_days must be >= 1")
        if self.forced_exploration_days % len(Arm) != 0:
            raise ConfigError(
                "forced_exploration_days must divide evenly across the 3 arms"
            )
        if self.forced_exploration_days > self.total_sessions:
            raise ConfigError("forced_exploration_days cannot exceed total_sessions")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")

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
        check_keys(cls, doc, "study config")
        try:
            players = tuple(SimPlayer(**p) for p in doc["players"])
            return cls(**doc | {"condition": Condition(doc["condition"]), "players": players})
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"invalid study config: {exc}") from exc


@dataclass(frozen=True)
class SessionRow:
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
    decisions: list[dict] = field(default_factory=list)


def compare_steps(own: float, target: float) -> Direction:
    if target > own:
        return Direction.UPWARD
    if target < own:
        return Direction.DOWNWARD
    return Direction.LATERAL


def exposure_direction(
    player_steps: float, artificial_steps: float, teammate_steps: float
) -> Exposure:
    """Comparison direction toward each target: strictly more steps than
    the player is upward, strictly fewer is downward, equal is lateral."""
    if min(player_steps, artificial_steps, teammate_steps) < 0:
        raise ValueError("steps must be non-negative")
    return Exposure(
        artificial=compare_steps(player_steps, artificial_steps),
        teammate=compare_steps(player_steps, teammate_steps),
    )


_DIRECTION_SIGN = {Direction.UPWARD: 1.0, Direction.DOWNWARD: -1.0, Direction.LATERAL: 0.0}


def alignment(sco: float, exposure: Exposure) -> float:
    """Mean preference alignment over the two targets: sco for an upward
    target, -sco for downward, 0 for lateral."""
    return (
        _DIRECTION_SIGN[exposure.artificial] * sco
        + _DIRECTION_SIGN[exposure.teammate] * sco
    ) / 2.0


def step_response(player: SimPlayer, exposure: Exposure, rng: SplitMix64) -> float:
    """Today's steps: baseline plus alignment * effect_size plus noise,
    floored at zero. Always consumes one normal draw."""
    a = alignment(player.sco, exposure)
    noise = rng.normal(0.0, player.noise_sd)
    return max(0.0, player.baseline_steps + a * player.effect_size + noise)


def motivation_response(
    player: SimPlayer, exposure: Exposure, rng: SplitMix64
) -> tuple[int, int]:
    """Pre/post session motivation on the 1-5 scale. Pre is uniform over
    {2, 3, 4}; post moves one point in the alignment's direction with
    probability |alignment|, clamped to the scale. Draw count is fixed."""
    pre = 2 + rng.randrange(3)
    a = alignment(player.sco, exposure)
    u = rng.random()
    post = pre
    if u < abs(a):
        post = min(5, max(1, pre + (1 if a > 0 else -1 if a < 0 else 0)))
    return pre, post


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def miss_decision(player: SimPlayer, running_disparity: float, rng: SplitMix64) -> bool:
    """Whether the player skips today's session: probability
    logistic(intercept + slope * running_disparity)."""
    if not -1.0 <= running_disparity <= 1.0:
        raise ValueError("running_disparity must be in [-1, 1]")
    p = logistic(player.adherence_intercept + player.adherence_slope * running_disparity)
    return rng.random() < p


def _forced_schedule(days: int, rng: SplitMix64) -> list[Arm]:
    arms = [arm for arm in Arm for _ in range(days // len(Arm))]
    rng.shuffle(arms)
    return arms


def _running_disparities(
    observed_steps: list[list[float]],
    best_given: list[int],
    worst_given: list[int],
    any_exploit: bool,
) -> list[float]:
    """Each player's effort percentile minus treatment percentile within
    the team, from data through the previous day; zero until the first
    exploit decision has happened (and while any player lacks data)."""
    n = len(observed_steps)
    if not any_exploit or any(len(s) == 0 for s in observed_steps):
        return [0.0] * n
    efforts = [sum(s) / len(s) for s in observed_steps]
    treatments = [float(b - w) for b, w in zip(best_given, worst_given)]
    pr_e = percentile_rank(efforts)
    pr_t = percentile_rank(treatments)
    return [e - t for e, t in zip(pr_e, pr_t)]


def run_study(config: StudyConfig) -> StudyLog:
    """Simulate one team through the full protocol and return its log."""
    n = len(config.players)
    base = SplitMix64(config.seed)
    decision_rng = base.spawn()
    world_rng = base.spawn()
    jitter_rng = base.spawn()

    baseline_samples: list[list[float]] = [[] for _ in range(n)]
    for _day in range(config.baseline_days):
        for i, player in enumerate(config.players):
            steps = max(0.0, player.baseline_steps + world_rng.normal(0.0, player.noise_sd))
            baseline_samples[i].append(steps)
    baseline_means = [sum(s) / len(s) for s in baseline_samples]
    last_steps = [samples[-1] for samples in baseline_samples]

    schedule = _forced_schedule(config.forced_exploration_days, decision_rng)
    model = RewardModel(config.step_scale, config.motivation_weight)
    state = ShapleyBanditState.fresh(n, epsilon=config.epsilon)
    players = list(range(n))
    tc_effective = [0] * n
    observed_steps: list[list[float]] = [[] for _ in range(n)]
    best_given = [0] * n
    worst_given = [0] * n
    any_exploit = False

    rows: list[SessionRow] = []
    decisions: list[dict] = []

    for day in range(1, config.total_sessions + 1):
        disparities = _running_disparities(
            observed_steps, best_given, worst_given, any_exploit
        )

        if day <= config.forced_exploration_days:
            decision = Decision(arm=schedule[day - 1], catered_player=None, mode=Mode.FORCED)
        elif config.condition is Condition.CONTROL:
            decision = random_select(decision_rng)
        elif config.condition is Condition.GREEDY:
            decision = greedy_select(model, players)
        else:
            if sum(state.csv) <= 0:
                # No contribution signal yet (every session missed so
                # far): defer to exploration until rewards arrive.
                decision = random_select(decision_rng)
            else:
                decision = shapley_select(state, model, players, decision_rng)

        best_arms = [predict_best_arm(model, p) for p in players]
        worst_arms = [predict_worst_arm(model, p) for p in players]
        artificial = place_artificial_steps(
            decision.arm,
            last_steps[0],
            last_steps[1],
            jitter_rng if config.jitter else None,
        )

        day_rewards: dict[int, float] = {}
        day_steps: dict[int, float] = {}
        for i, player in enumerate(config.players):
            exposure = exposure_direction(last_steps[i], artificial, last_steps[1 - i])
            steps = step_response(player, exposure, world_rng)
            pre, post = motivation_response(player, exposure, world_rng)
            missed = miss_decision(player, disparities[i], world_rng)
            if missed:
                steps = pre = post = None
            else:
                day_steps[i] = steps
                reward = Reward(steps - baseline_means[i], float(post - pre))
                model.observe(i, decision.arm, reward)
                day_rewards[i] = reward.combined(config.step_scale, config.motivation_weight)
            rows.append(
                SessionRow(
                    day=day,
                    player=i,
                    steps=steps,
                    missed=missed,
                    pre_motivation=pre,
                    post_motivation=post,
                    arm=decision.arm,
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
                if decision.arm == best_arms[i]:
                    tc_effective[i] += 1
        for i, steps in day_steps.items():
            observed_steps[i].append(steps)
            last_steps[i] = steps
        if day >= config.intervention_start:
            for i in players:
                if decision.arm == best_arms[i]:
                    best_given[i] += 1
                if decision.arm == worst_arms[i]:
                    worst_given[i] += 1

        decisions.append(decision_record(day, decision, state, day_rewards))

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
        decisions=decisions,
    )


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


def _parse_field(raw: str, kind: str, line: int, column: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "opt_int":
            return int(raw) if raw != "" else None
        if kind == "float":
            return float(raw)
        if kind == "opt_float":
            return float(raw) if raw != "" else None
        if kind == "bool":
            if raw in ("0", "1"):
                return raw == "1"
            raise ValueError(f"expected 0 or 1, got {raw!r}")
        if kind == "arm":
            return Arm.from_letter(raw)
        if kind == "mode":
            return Mode(raw)
    except ValueError as exc:
        raise SchemaError(f"line {line}, column {column!r}: {exc}") from None
    raise AssertionError(kind)


def read_log_csv(path, name: str = "") -> StudyLog:
    """Parse a session log CSV, validating the documented schema.

    Header mismatches and unparseable values raise SchemaError with the
    offending column (and line) named.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(LOG_COLUMNS):
                raise SchemaError(
                    f"line {lineno}: expected {len(LOG_COLUMNS)} fields, got {len(record)}"
                )
            value = dict(zip(LOG_COLUMNS, record))
            rows.append(
                SessionRow(
                    day=_parse_field(value["day"], "int", lineno, "day"),
                    player=_parse_field(value["player"], "int", lineno, "player"),
                    steps=_parse_field(value["steps"], "opt_float", lineno, "steps"),
                    missed=_parse_field(value["missed"], "bool", lineno, "missed"),
                    pre_motivation=_parse_field(
                        value["pre_motivation"], "opt_int", lineno, "pre_motivation"
                    ),
                    post_motivation=_parse_field(
                        value["post_motivation"], "opt_int", lineno, "post_motivation"
                    ),
                    arm=_parse_field(value["arm"], "arm", lineno, "arm"),
                    mode=_parse_field(value["mode"], "mode", lineno, "mode"),
                    catered_player=_parse_field(
                        value["catered_player"], "opt_int", lineno, "catered_player"
                    ),
                    artificial_steps=_parse_field(
                        value["artificial_steps"], "float", lineno, "artificial_steps"
                    ),
                    best_arm=_parse_field(value["best_arm"], "arm", lineno, "best_arm"),
                    worst_arm=_parse_field(value["worst_arm"], "arm", lineno, "worst_arm"),
                    baseline_mean=_parse_field(
                        value["baseline_mean"], "float", lineno, "baseline_mean"
                    ),
                )
            )
    return StudyLog(rows=rows, name=name)


def log_summary(log: StudyLog, intervention_start: int = DEFAULT_INTERVENTION_START) -> dict:
    """Per-study JSON summary: baselines, final strategy state and the
    headline per-player outcomes."""
    tallies = log_metrics(log, intervention_start)
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


def write_log_summary(
    log: StudyLog, path, intervention_start: int = DEFAULT_INTERVENTION_START
) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(log_summary(log, intervention_start), fh, indent=2, sort_keys=True)
        fh.write("\n")
