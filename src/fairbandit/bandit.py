"""Decision strategies for the three-arm social-comparison environment.

Three strategies are provided:

* random control -- uniform arm each round;
* greedy -- the arm maximizing the summed estimated reward across all
  players, which can persistently neglect a minority-preference player;
* fairness-aware -- tracks each player's Cumulative Shapley Value (CSV,
  their attributed contribution in steps) and a Treatment Counter (TC,
  exploit rounds catered to them), and on each exploit round caters to
  the player whose treatment would bring the team's treatment shares
  closest to its contribution shares.

The arm controls where an artificial teammate's reported steps are
placed relative to the two human players: 20% above the higher player,
between them, or 20% below the lower player, creating an extra upward
or downward comparison target for each human.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .rng import SplitMix64
from .shapley import shapley_all  # noqa: F401  patched by name in benchmarks/spans.py

PlayerId = int


class Arm(IntEnum):
    """Placement of the artificial teammate's reported steps."""

    ABOVE_HIGHER = 0
    BETWEEN = 1
    BELOW_LOWER = 2

    @property
    def letter(self) -> str:
        return "ABC"[self]

    @classmethod
    def from_letter(cls, letter: str) -> "Arm":
        arm = _ARM_BY_LETTER.get(letter.strip().upper())
        if arm is None:
            raise ValueError(f"unknown arm letter {letter!r}")
        return arm


# Every arm in ordinal order, so that `_ARMS[i]` is `Arm(i)`. The hot
# path indexes this tuple instead of iterating or calling the enum.
_ARMS = tuple(Arm)
_ARM_BY_LETTER = {arm.letter: arm for arm in _ARMS}


class Mode(Enum):
    FORCED = "forced"
    EXPLORE = "explore"
    EXPLOIT = "exploit"


class Decision(NamedTuple):
    arm: Arm
    catered_player: PlayerId | None = None
    mode: Mode = Mode.EXPLOIT


def combined_reward(
    step_delta: float, motivation_delta: float, step_scale: float, motivation_weight: float
) -> float:
    """The scalar a bandit learns from: the step change in units of
    `step_scale` plus the weighted motivation change."""
    return step_delta / step_scale + motivation_weight * motivation_delta


class ZeroTotalCSVError(ValueError):
    """Contribution shares are undefined until some CSV has accrued."""


def place_artificial_steps(
    arm: Arm,
    steps_a: float,
    steps_b: float,
    jitter: SplitMix64 | None = None,
) -> float:
    """Steps reported for the artificial teammate under the given arm.

    ABOVE_HIGHER is 1.2x the higher player, BELOW_LOWER is 0.8x the
    lower, BETWEEN is the midpoint. With `jitter`, the result is
    obfuscated by a uniform factor in [0.98, 1.02]. Never negative.
    """
    if steps_a < 0 or steps_b < 0:
        raise ValueError("player steps must be non-negative")
    if arm is Arm.ABOVE_HIGHER:
        placed = 1.2 * max(steps_a, steps_b)
    elif arm is Arm.BELOW_LOWER:
        placed = 0.8 * min(steps_a, steps_b)
    else:
        placed = (steps_a + steps_b) / 2.0
    if jitter is not None:
        placed *= jitter.uniform(0.98, 1.02)
    return max(0.0, placed)


class RewardModel:
    """Per-(player, arm) running estimates of expected combined reward.

    Sample means over everything observed so far; unobserved cells
    estimate 0 (rewards are deltas vs. baseline, so "no effect" is the
    natural prior, and forced exploration fills every cell before any
    exploit decision anyway). Each player's sums, counts and means are
    lists indexed by `int(arm)`; a mean is updated with its cell.
    """

    def __init__(self):
        self._sums: dict[PlayerId, list[float]] = {}
        self._counts: dict[PlayerId, list[int]] = {}
        self._means: dict[PlayerId, list[float]] = {}

    def observe_scalar(self, player: PlayerId, arm: Arm, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"reward must be finite, got {value}")
        sums = self._sums.get(player)
        if sums is None:
            sums = self._sums[player] = [0.0] * len(_ARMS)
            self._counts[player] = [0] * len(_ARMS)
            self._means[player] = [0.0] * len(_ARMS)
        counts = self._counts[player]
        sums[arm] += value
        counts[arm] += 1
        self._means[player][arm] = sums[arm] / counts[arm]

    def means(self, player: PlayerId) -> list[float]:
        """The player's estimate for every arm, indexed by `int(arm)`."""
        means = self._means.get(player)
        return list(means) if means else [0.0] * len(_ARMS)


def _argbest(scores: Sequence[float], best: bool) -> int:
    """Index of the highest (or lowest) score; ties go to the lowest index."""
    return scores.index(max(scores) if best else min(scores))


_NO_ESTIMATES = (0.0,) * len(_ARMS)


def predict_arms(model: RewardModel, player: PlayerId) -> tuple[Arm, Arm]:
    """The arms with the highest and the lowest estimated reward for this
    player, from one read of its estimates. Ties break to the lowest
    ordinal."""
    means = model._means.get(player, _NO_ESTIMATES)
    return _ARMS[_argbest(means, True)], _ARMS[_argbest(means, False)]


def greedy_select(model: RewardModel, players: Iterable[PlayerId]) -> Decision:
    """The arm maximizing the summed estimated reward over all players."""
    players = list(players)
    if not players:
        raise ValueError("players must be nonempty")
    sums = [sum(column) for column in zip(*(model.means(p) for p in players))]
    return Decision(arm=_ARMS[_argbest(sums, True)], catered_player=None, mode=Mode.EXPLOIT)


def random_select(rng: SplitMix64) -> Decision:
    return Decision(arm=_ARMS[rng.randrange(len(_ARMS))], catered_player=None, mode=Mode.EXPLORE)


@dataclass
class ShapleyBanditState:
    """Per-player Cumulative Shapley Value and Treatment Counter, plus
    the strategy's exploration probability."""

    csv: list[float]
    tc: list[int]
    epsilon: float = 0.01

    def __post_init__(self):
        if len(self.csv) != len(self.tc):
            raise ValueError("csv and tc must have one entry per player")
        if any(not math.isfinite(c) for c in self.csv):
            raise ValueError("csv entries must be finite")
        if any(t < 0 for t in self.tc):
            raise ValueError("tc entries must be non-negative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")

    @classmethod
    def fresh(cls, n_players: int, epsilon: float = 0.01) -> "ShapleyBanditState":
        return cls(csv=[0.0] * n_players, tc=[0] * n_players, epsilon=epsilon)


def _shares(values: Sequence[float], total: float) -> list[float]:
    return [v / total for v in values]


def shapley_disparity(state: ShapleyBanditState, player: PlayerId) -> float:
    """|contribution share - treatment share| for one player.

    With no treatments recorded yet, the treatment share is taken as the
    uniform 1/n prior. With zero total CSV the contribution share is
    undefined and the caller must defer until rewards have arrived.
    """
    return _all_disparities(state.csv, state.tc)[player]


def _all_disparities(csv: Sequence[float], tc: Sequence[int]) -> list[float]:
    total_csv = sum(csv)
    if total_csv <= 0:
        raise ZeroTotalCSVError("total CSV is zero; contribution shares undefined")
    n = len(csv)
    csvr = _shares(csv, total_csv)
    total_tc = sum(tc)
    tcr = _shares([float(t) for t in tc], float(total_tc)) if total_tc > 0 else [1.0 / n] * n
    return [abs(c - t) for c, t in zip(csvr, tcr)]


def disparity_sum_if_catered(state: ShapleyBanditState, candidate: PlayerId) -> float:
    """Team-total disparity that would result from catering to `candidate`
    this round (their treatment counter incremented by one)."""
    tc = list(state.tc)
    tc[candidate] += 1
    return sum(_all_disparities(state.csv, tc))


def team_disparity_sum(csv: Sequence[float], tc: Sequence[int]) -> float:
    """Current team-total disparity for arbitrary CSV/TC vectors."""
    return sum(_all_disparities(csv, tc))


def shapley_select(
    state: ShapleyBanditState,
    model: RewardModel,
    players: Iterable[PlayerId],
    rng: SplitMix64,
) -> Decision:
    """One round of the fairness-aware strategy.

    With probability epsilon, explore with a uniform-random arm.
    Otherwise cater to the player whose hypothetical treatment yields
    the lowest team-total disparity (ties to the lowest player id) and
    pull the arm currently estimated best for that player.
    """
    players = sorted(players)
    if not players:
        raise ValueError("players must be nonempty")
    if rng.random() < state.epsilon:
        return random_select(rng)
    sums = [(disparity_sum_if_catered(state, p), p) for p in players]
    _, catered = min(sums)
    return Decision(
        arm=predict_arms(model, catered)[0], catered_player=catered, mode=Mode.EXPLOIT
    )


def shapley_update(
    state: ShapleyBanditState,
    decision: Decision,
    step_rewards: Mapping[PlayerId, float],
) -> None:
    """Fold one round's observed steps into the strategy state.

    Every observed player's CSV grows by their Shapley attribution under
    the deployed additive-steps game (`shapley.AdditiveSteps`), which is
    exactly their own steps. Only an exploit decision with a catered
    player increments a treatment counter; exploration and forced rounds
    never do.
    """
    for player, steps in step_rewards.items():
        if not math.isfinite(steps) or steps < 0:
            raise ValueError(f"step reward for player {player} must be finite and >= 0")
    for player, steps in step_rewards.items():
        state.csv[player] += steps
    if decision.mode is Mode.EXPLOIT and decision.catered_player is not None:
        state.tc[decision.catered_player] += 1


def write_decisions_jsonl(records: Iterable[dict], path) -> None:
    with open(path, "w", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=False) + "\n")
