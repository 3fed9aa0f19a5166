"""Self-checks: the documented worked example and the axiom suite.

The worked example replays the strategy's reference calculation: after
nine rounds player 1 holds CSV 27,500 steps with 5 treatments and
player 2 holds CSV 32,800 with 4, so contribution shares are
0.456/0.544 against treatment shares 0.556/0.444, a disparity of 0.1
each. Catering to player 1 would push the team disparity sum to 0.288
while catering to player 2 drops it to 0.088, so an exploit round
caters to player 2 and pulls that player's best arm (C).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .bandit import (
    Arm,
    Mode,
    RewardModel,
    ShapleyBanditState,
    _total,
    disparities,
    predict_arms,
    shapley_select,
)
from .rng import SplitMix64, unit
from .shapley import (
    ORACLE_MAX_PLAYERS,
    AxiomReport,
    Coalition,
    TableBacked,
    _check_players,
    _close,
    check_axioms,
    shapley_oracle_permutations,
)
from .shapley import shapley_all  # noqa: F401  patched by name in benchmarks/spans.py

WORKED_EXAMPLE_CSV = (27500.0, 32800.0)
WORKED_EXAMPLE_TC = (5, 4)
WORKED_EXAMPLE_EXPECTED = {
    "csvr_1": 0.456,
    "tcr_1": 0.556,
    "sd_1": 0.1,
    "sd_2": 0.1,
    "sum_if_cater_1": 0.288,
    "sum_if_cater_2": 0.088,
    "catered_player": 1,  # zero-based: player 2
    "arm": Arm.BELOW_LOWER,
}
WORKED_EXAMPLE_TOLERANCE = 1e-3  # the expected figures are given to 3 decimals


@dataclass
class Check:
    name: str
    expected: float | str
    actual: float | str
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: expected {self.expected}, got {self.actual}"


@dataclass
class WorkedExampleResult:
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _example_model() -> RewardModel:
    """Arm estimates matching the example: A best for player 1, C best
    for player 2."""
    model = RewardModel()
    for arm, value in [(Arm.ABOVE_HIGHER, 1.0), (Arm.BETWEEN, 0.1), (Arm.BELOW_LOWER, -0.5)]:
        model.observe_scalar(0, arm, value)
    for arm, value in [(Arm.ABOVE_HIGHER, -0.5), (Arm.BETWEEN, 0.2), (Arm.BELOW_LOWER, 1.0)]:
        model.observe_scalar(1, arm, value)
    return model


def verify_worked_example() -> WorkedExampleResult:
    """Recompute every number in the reference example from
    `WORKED_EXAMPLE_CSV` and `WORKED_EXAMPLE_TC` and compare each with
    `WORKED_EXAMPLE_EXPECTED`, within `WORKED_EXAMPLE_TOLERANCE`."""
    state = ShapleyBanditState(
        csv=list(WORKED_EXAMPLE_CSV), tc=list(WORKED_EXAMPLE_TC), epsilon=0.0
    )
    expected = WORKED_EXAMPLE_EXPECTED
    checks: list[Check] = []

    def num(name: str, actual: float) -> None:
        want = expected[name]
        ok = abs(actual - want) <= WORKED_EXAMPLE_TOLERANCE
        checks.append(Check(name, want, round(actual, 6), ok))

    csvr_1 = state.csv[0] / _total(state.csv)
    tcr_1 = state.tc[0] / _total(state.tc)
    num("csvr_1", csvr_1)
    num("tcr_1", tcr_1)
    sd = disparities(state.csv, state.tc)
    num("sd_1", sd[0])
    num("sd_2", sd[1])
    num("sum_if_cater_1", _total(disparities(state.csv, state.tc, 0)))
    num("sum_if_cater_2", _total(disparities(state.csv, state.tc, 1)))

    model = _example_model()
    decision = shapley_select(state, [predict_arms(model, p) for p in (0, 1)], SplitMix64(0))
    checks.append(
        Check(
            "catered_player",
            f"player {expected['catered_player'] + 1}",
            f"player {(decision.catered_player or 0) + 1}",
            decision.catered_player == expected["catered_player"]
            and decision.mode is Mode.EXPLOIT,
        )
    )
    checks.append(
        Check("arm", expected["arm"].letter, decision.arm.letter, decision.arm is expected["arm"])
    )
    return WorkedExampleResult(checks)


@dataclass
class AxiomSuiteResult:
    trials: int
    failures: list[str] = field(default_factory=list)
    warning: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


def random_table_game(n: int, rng: SplitMix64) -> TableBacked:
    """Random characteristic function with subset values uniform in [-100, 100):
    the values `rng.uniform(-100.0, 100.0)` would give, from one block."""
    _check_players(n)
    table = [0.0] + [-100.0 + 200.0 * unit(u) for u in rng.block((1 << n) - 1)]
    return TableBacked._of_table(n, table)


def run_axiom_suite(trials: int, max_n: int, seed: int) -> AxiomSuiteResult:
    """Check the four axioms and oracle equivalence on random games."""
    if max_n > ORACLE_MAX_PLAYERS:
        raise ValueError("max_n above 8 makes the permutation oracle infeasible")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    result = AxiomSuiteResult(trials=trials)
    if trials == 0:
        result.warning = "0 trials requested: vacuous pass"
        return result
    rng = SplitMix64(seed)
    for t in range(trials):
        n = 2 + rng.randrange(max_n - 1)
        coalition = Coalition.of_size(n)
        v = random_table_game(n, rng)
        partner = random_table_game(n, rng)
        report: AxiomReport = check_axioms(v, coalition, additivity_partner=partner)
        if not report.all_pass:
            failed = [
                name
                for name in ("efficiency", "symmetry", "nullity", "additivity")
                if not getattr(report, name)
            ]
            result.failures.append(f"trial {t}: axioms failed: {', '.join(failed)} (n={n})")
        phi = report.witnesses["efficiency"]["phi"]
        oracle = shapley_oracle_permutations(v, coalition)
        for i, (a, b) in enumerate(zip(phi, oracle)):
            if not _close(a, b):
                result.failures.append(
                    f"trial {t}: player {i} diverges from the permutation oracle: {a} vs {b}"
                )
                break
    return result
