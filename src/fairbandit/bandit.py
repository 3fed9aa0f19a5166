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
_ABOVE_HIGHER, _BELOW_LOWER = _ARMS[0], _ARMS[2]


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
    if arm is _ABOVE_HIGHER:
        placed = 1.2 * max(steps_a, steps_b)
    elif arm is _BELOW_LOWER:
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


def _argbest(scores: Sequence[float]) -> tuple[int, int]:
    """Indices of the highest and the lowest score; ties go to the lowest index."""
    return scores.index(max(scores)), scores.index(min(scores))


_NO_ESTIMATES = (0.0,) * len(_ARMS)
_EXPLORE, _EXPLOIT = Mode.EXPLORE, Mode.EXPLOIT  # a global reads faster than a member


def predict_arms(model: RewardModel, player: PlayerId) -> tuple[Arm, Arm]:
    """The arms with the highest and the lowest estimated reward for this
    player, from one read of its estimates. Ties break to the lowest
    ordinal."""
    best, worst = _argbest(model._means.get(player, _NO_ESTIMATES))
    return _ARMS[best], _ARMS[worst]


def greedy_select(model: RewardModel, players: Iterable[PlayerId]) -> Decision:
    """The arm maximizing the summed estimated reward over all players."""
    rows = [model._means.get(p, _NO_ESTIMATES) for p in players]
    if not rows:
        raise ValueError("players must be nonempty")
    sums = [_total(column) for column in zip(*rows)]
    return Decision(_ARMS[_argbest(sums)[0]], None, _EXPLOIT)


def random_select(rng: SplitMix64) -> Decision:
    return Decision(_ARMS[rng.randrange(len(_ARMS))], None, _EXPLORE)


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


def _total(values: Iterable[float]) -> float:
    """`values` added left to right from 0.0, the same bits on every CPython
    (the builtin `sum` compensates floats from 3.12); exact for counts below 2**53."""
    total = 0.0
    for value in values:
        total += value
    return total


def disparities(csv: Sequence[float], tc: Sequence[int], catered: PlayerId | None = None) -> list[float]:
    """|contribution share - treatment share| per player, with the TC of
    `catered` (if any) one higher. While every TC is zero the treatment
    share is the uniform 1/n prior. Raises ZeroTotalCSVError while the
    total CSV is not positive, as the contribution shares are undefined."""
    total_csv = _total(csv)
    if total_csv <= 0:
        raise ZeroTotalCSVError("total CSV is zero; contribution shares undefined")
    if catered is not None:
        tc = list(tc)
        tc[catered] += 1
    total_tc = _total(tc)
    tcr = [t / total_tc for t in tc] if total_tc > 0 else [1.0 / len(csv)] * len(csv)
    return [abs(c / total_csv - t) for c, t in zip(csv, tcr)]


def shapley_select(
    state: ShapleyBanditState, predicted: Sequence[tuple[Arm, Arm]], rng: SplitMix64
) -> Decision:
    """One round of the fairness-aware strategy, given each player's
    `predict_arms` pair.

    While no CSV has accrued (every session missed so far), and otherwise
    with probability epsilon, explore with a uniform-random arm. Else
    cater to the player whose hypothetical treatment yields the lowest
    team-total disparity (ties to the lowest player id) and pull the arm
    predicted best for that player.
    """
    if _total(state.csv) <= 0 or rng.random() < state.epsilon:
        return random_select(rng)
    csv, tc = state.csv, state.tc
    _, catered = min((_total(disparities(csv, tc, p)), p) for p in range(len(csv)))
    return Decision(predicted[catered][0], catered, _EXPLOIT)


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
    never do. Every step is checked before any is folded.
    """
    for player, steps in step_rewards.items():
        if not math.isfinite(steps) or steps < 0:
            raise ValueError(f"step reward for player {player} must be finite and >= 0")
    for player, steps in step_rewards.items():
        state.csv[player] += steps
    if decision.mode is _EXPLOIT and decision.catered_player is not None:
        state.tc[decision.catered_player] += 1
