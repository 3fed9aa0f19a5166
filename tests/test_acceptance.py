"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values (visible with ``pytest -s``)."""
import hashlib
import time
from pathlib import Path

from fairbandit.analysis import (
    correlation_diff_test,
    disparity_report,
    pearson_r,
    percentile_rank,
)
from fairbandit.bandit import (
    Arm,
    Mode,
    RewardModel,
    ShapleyBanditState,
    greedy_select,
    predict_arms,
    shapley_select,
    shapley_update,
)
from fairbandit.cli import main
from fairbandit.experiment import run_experiment
from fairbandit.rng import SplitMix64
from fairbandit.scenarios import load_scenario
from fairbandit.shapley import AdditiveSteps, Coalition, shapley_all
from fairbandit.simworld import Condition, SimPlayer, StudyConfig, run_study
from fairbandit.verification import run_axiom_suite, verify_worked_example


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    result = verify_worked_example()
    elapsed = time.perf_counter() - t0
    values = ", ".join(f"{c.name}={c.actual}" for c in result.checks)
    report(
        "criterion 1: worked-example reproduction",
        result.passed and elapsed < 1.0,
        f"{values}; runtime {elapsed:.3f}s",
    )


def test_criterion_2_axiom_suite():
    t0 = time.perf_counter()
    result = run_axiom_suite(trials=100, max_n=6, seed=2024)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2: axiom suite + oracle equivalence",
        result.passed and elapsed < 10.0,
        f"{result.trials} random games, {len(result.failures)} failures, runtime {elapsed:.2f}s",
    )


def test_criterion_3_additive_collapse():
    rng = SplitMix64(303)
    worst = 0.0
    for _ in range(200):
        n = 2 + rng.randrange(7)
        steps = [rng.uniform(0, 20000) for _ in range(n)]
        phi = shapley_all(AdditiveSteps(steps), Coalition.of_size(n))
        for got, want in zip(phi, steps):
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
    report(
        "criterion 3: additive collapse (attribution equals own steps)",
        worst <= 1e-9,
        f"worst relative error {worst:.2e} over 200 games",
    )


def test_criterion_4_greedy_bandit_problem_demonstration(tmp_path):
    t0 = time.perf_counter()
    spec = load_scenario("conflict-cohort", 200)
    result = run_experiment(spec, tmp_path, write_artifacts=False)
    elapsed = time.perf_counter() - t0
    rows = {r["condition"]: r for r in result.condition_summaries}
    greedy_median = rows["greedy"]["batch_median_r"]
    shapley_median = rows["shapley"]["batch_median_r"]
    frac = result.comparison["shapley_lower_fraction"]
    z, p = result.comparison["fisher_z"], result.comparison["p_value"]
    ok = (
        greedy_median is not None
        and shapley_median is not None
        and greedy_median > shapley_median
        and frac >= 0.90
        and z is not None
        and p is not None
        and elapsed < 60.0
    )
    report(
        "criterion 4: greedy-bandit-problem demonstration (200 reps/condition)",
        ok,
        f"median r greedy={greedy_median:.3f} > shapley={shapley_median:.3f}; "
        f"sum-SD lower under shapley in {frac:.1%} of pairs; "
        f"fisher z={z:.2f}, p={p:.2e}; runtime {elapsed:.1f}s",
    )


def test_criterion_5_conflict_witness():
    model = RewardModel()
    for arm, value in [(Arm.ABOVE_HIGHER, 10.0), (Arm.BETWEEN, 0.0), (Arm.BELOW_LOWER, -2.0)]:
        model.observe_scalar(0, arm, value)
    for arm, value in [(Arm.ABOVE_HIGHER, -4.0), (Arm.BETWEEN, 1.0), (Arm.BELOW_LOWER, 3.0)]:
        model.observe_scalar(1, arm, value)
    greedy = greedy_select(model, [0, 1])
    state = ShapleyBanditState(csv=[100.0, 100.0], tc=[3, 1], epsilon=0.0)
    fair = shapley_select(state, [predict_arms(model, p) for p in (0, 1)], SplitMix64(0))
    ok = (
        greedy.arm is Arm.ABOVE_HIGHER
        and fair.catered_player == 1
        and fair.arm is predict_arms(model, 1)[0]
        and fair.arm is not Arm.ABOVE_HIGHER
    )
    report(
        "criterion 5: conflict witness (greedy A vs fairness-aware C)",
        ok,
        f"greedy={greedy.arm.letter}, fair={fair.arm.letter} catering player {fair.catered_player}",
    )


def test_criterion_6_strategy_contracts():
    # TC conservation
    state = ShapleyBanditState(csv=[1000.0, 800.0], tc=[0, 0], epsilon=0.25)
    model = RewardModel()
    rng = SplitMix64(606)
    exploits = 0
    for _ in range(400):
        decision = shapley_select(state, [predict_arms(model, p) for p in (0, 1)], rng)
        exploits += decision.mode is Mode.EXPLOIT
        shapley_update(state, decision, {0: 10.0, 1: 12.0})
    conservation_ok = sum(state.tc) == exploits

    # epsilon = 1: uniform arm frequencies within +/-2% over 10,000 draws
    state1 = ShapleyBanditState(csv=[1.0, 1.0], tc=[0, 0], epsilon=1.0)
    counts = {arm: 0 for arm in Arm}
    rng = SplitMix64(607)
    for _ in range(10000):
        counts[shapley_select(state1, [predict_arms(model, p) for p in (0, 1)], rng).arm] += 1
    explore_ok = all(abs(counts[a] / 10000 - 1 / 3) <= 0.02 for a in Arm)

    # argmax invariance under a constant shift of one player's means
    base = RewardModel()
    shifted = RewardModel()
    for arm, value in [(Arm.ABOVE_HIGHER, 0.4), (Arm.BETWEEN, -0.2), (Arm.BELOW_LOWER, 1.1)]:
        base.observe_scalar(0, arm, value)
        shifted.observe_scalar(0, arm, value + 123.0)
    argmax_ok = predict_arms(base, 0)[0] is predict_arms(shifted, 0)[0]

    # csv-scale invariance of the fairness-aware choice
    choices = set()
    for scale in (0.01, 1.0, 1e6):
        s = ShapleyBanditState(csv=[27500.0 * scale, 32800.0 * scale], tc=[5, 4], epsilon=0.0)
        m = RewardModel()
        for arm, value in [(Arm.ABOVE_HIGHER, 1.0), (Arm.BELOW_LOWER, -1.0)]:
            m.observe_scalar(0, arm, value)
            m.observe_scalar(1, arm, -value)
        d = shapley_select(s, [predict_arms(m, p) for p in (0, 1)], SplitMix64(1))
        choices.add((d.catered_player, d.arm))
    scale_ok = len(choices) == 1

    report(
        "criterion 6: strategy contracts",
        conservation_ok and explore_ok and argmax_ok and scale_ok,
        f"tc-conservation={conservation_ok}, explore-uniformity={explore_ok}, "
        f"argmax-invariance={argmax_ok}, scale-invariance={scale_ok}",
    )


def test_criterion_7_analysis_correctness():
    r = pearson_r([1, 2, 3, 4], [2, 1, 4, 3])
    pearson_ok = abs(r - 0.6) < 1e-12

    ranks = percentile_rank([10, 10, 30])
    ties_ok = ranks == [0.25, 0.25, 1.0]

    z, p = correlation_diff_test(0.5, 50, 0.0, 50)
    diff_ok = abs(z - 2.66) <= 0.01 and abs(p - 0.008) <= 0.001

    # disparity stays in [-1, 1] on fuzzed study logs
    rng = SplitMix64(707)
    bounded = True
    logs = []
    for k in range(30):
        players = (
            SimPlayer(
                baseline_steps=rng.uniform(4000, 14000),
                noise_sd=rng.uniform(0, 3000),
                sco=rng.uniform(-1, 1),
                effect_size=rng.uniform(0, 2000),
                adherence_slope=rng.uniform(0, 3),
            ),
            SimPlayer(
                baseline_steps=rng.uniform(4000, 14000),
                noise_sd=rng.uniform(0, 3000),
                sco=rng.uniform(-1, 1),
                effect_size=rng.uniform(0, 2000),
                adherence_slope=rng.uniform(0, 3),
            ),
        )
        condition = [Condition.CONTROL, Condition.GREEDY, Condition.SHAPLEY][k % 3]
        log = run_study(StudyConfig(condition=condition, players=players, seed=7000 + k))
        log.name = f"fuzz{k}"
        logs.append(log)
    try:
        rep = disparity_report(logs)
        bounded = all(-1.0 <= m.disparity <= 1.0 for m in rep.rows)
    except ValueError:
        bounded = False

    report(
        "criterion 7: analysis correctness",
        pearson_ok and ties_ok and diff_ok and bounded,
        f"r=0.6 exact={pearson_ok}, tie-ranks={ties_ok}, "
        f"diff-test z={z:.3f} p={p:.4f}, fuzzed disparity bounded={bounded}",
    )


def test_criterion_8_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        code = main(
            ["run", "--scenario", "conflict-cohort", "--replications", "5", "--out", str(out)]
        )
        assert code == 0

    def csv_hashes(root: Path) -> dict[str, str]:
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix == ".csv"
        }

    h1, h2 = csv_hashes(out1), csv_hashes(out2)
    ok = h1 == h2 and len(h1) > 0
    report(
        "criterion 8: determinism (identical spec+seed, byte-identical CSVs)",
        ok,
        f"{len(h1)} CSV artifacts compared",
    )
