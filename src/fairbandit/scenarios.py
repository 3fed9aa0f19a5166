"""Bundled experiment scenarios.

* ``null-cohort``: two identical non-responders (sco 0, no noise), a
  sanity check that strategy choice is irrelevant when comparisons
  cannot move anyone.
* ``conflict-cohort``: the adverse case for greedy selection. Player 0
  walks the most but responds only weakly to comparisons; player 1
  walks less but responds strongly to downward targets, so the summed
  estimate keeps favoring player 1's arm. The top contributor is handed
  their worst arm round after round, their treatment rank stays pinned
  below their effort rank, and their adherence decays -- while the
  fairness-aware strategy matches treatment shares to contribution
  shares and keeps both players at the base miss rate.
* ``study-protocol``: the full 3-baseline / 9-forced / 21-session shape
  with all three conditions, jittered artificial placement and a mildly
  heterogeneous pair.
"""
from __future__ import annotations

from .experiment import ExperimentSpec
from .simworld import Condition, SimPlayer, StudyConfig

# Each scenario's default replications and base seed, and the StudyConfig
# fields that every one of its conditions sets.
BUNDLED = {
    "null-cohort": (50, 7000, {
        "players": (
            SimPlayer(baseline_steps=9000.0, noise_sd=0.0, sco=0.0, effect_size=0.0),
            SimPlayer(baseline_steps=9000.0, noise_sd=0.0, sco=0.0, effect_size=0.0),
        ),
    }),
    "conflict-cohort": (200, 4100, {
        "players": (
            SimPlayer(
                baseline_steps=10600.0,
                noise_sd=1000.0,
                sco=0.9,
                effect_size=400.0,
                adherence_intercept=-1.1,
                adherence_slope=2.0,
            ),
            SimPlayer(
                baseline_steps=8400.0,
                noise_sd=1000.0,
                sco=-0.9,
                effect_size=1700.0,
                adherence_intercept=-1.1,
                adherence_slope=2.0,
            ),
        ),
    }),
    "study-protocol": (30, 9900, {
        "players": (
            SimPlayer(
                baseline_steps=10000.0,
                noise_sd=2500.0,
                sco=0.5,
                effect_size=900.0,
                adherence_intercept=-1.1,
                adherence_slope=1.0,
            ),
            SimPlayer(
                baseline_steps=8000.0,
                noise_sd=2500.0,
                sco=-0.4,
                effect_size=600.0,
                adherence_intercept=-1.1,
                adherence_slope=1.0,
            ),
        ),
        "jitter": True,
    }),
}


def load_scenario(name: str, replications: int | None = None, base_seed: int | None = None) -> ExperimentSpec:
    """The bundled scenario `name` with one condition per `Condition`, at
    its own replications and base seed unless others are given."""
    try:
        default_replications, default_seed, config = BUNDLED[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; bundled: {', '.join(sorted(BUNDLED))}"
        ) from None
    return ExperimentSpec(
        scenario=name,
        conditions=tuple(StudyConfig(condition=c, **config) for c in Condition),
        replications=default_replications if replications is None else replications,
        base_seed=default_seed if base_seed is None else base_seed,
    )
