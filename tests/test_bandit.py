import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbandit.bandit import (
    Arm,
    Decision,
    Mode,
    RewardModel,
    ShapleyBanditState,
    ZeroTotalCSVError,
    combined_reward,
    disparity_sum_if_catered,
    greedy_select,
    place_artificial_steps,
    predict_arms,
    random_select,
    shapley_disparity,
    shapley_select,
    shapley_update,
    team_disparity_sum,
    write_decisions_jsonl,
)
from fairbandit.rng import SplitMix64
from fairbandit.shapley import AdditiveSteps, Coalition, shapley_all
from fairbandit.simworld import SessionRow, StudyLog, decision_records


def model_with_means(means: dict[int, dict[Arm, float]]) -> RewardModel:
    model = RewardModel()
    for player, per_arm in means.items():
        for arm, value in per_arm.items():
            model.observe_scalar(player, arm, value)
    return model


# The motivating conflict: arm A wins the summed estimate while hurting
# player 1, whose best arm is C.
CONFLICT_MEANS = {
    0: {Arm.ABOVE_HIGHER: 10.0, Arm.BETWEEN: 0.0, Arm.BELOW_LOWER: -2.0},
    1: {Arm.ABOVE_HIGHER: -4.0, Arm.BETWEEN: 1.0, Arm.BELOW_LOWER: 3.0},
}


class TestPlacement:
    def test_above_higher_is_twenty_percent_up(self):
        assert place_artificial_steps(Arm.ABOVE_HIGHER, 8000, 10000) == pytest.approx(12000.0)

    def test_below_lower_is_twenty_percent_down(self):
        assert place_artificial_steps(Arm.BELOW_LOWER, 8000, 10000) == pytest.approx(6400.0)

    def test_between_is_midpoint(self):
        assert place_artificial_steps(Arm.BETWEEN, 8000, 10000) == pytest.approx(9000.0)

    def test_jitter_stays_within_two_percent(self):
        rng = SplitMix64(3)
        for _ in range(500):
            placed = place_artificial_steps(Arm.ABOVE_HIGHER, 8000, 10000, jitter=rng)
            assert 12000 * 0.98 <= placed <= 12000 * 1.02

    def test_negative_steps_rejected(self):
        # So the day loop never compares a negative step count.
        with pytest.raises(ValueError):
            place_artificial_steps(Arm.BETWEEN, -1.0, 100.0)
        with pytest.raises(ValueError):
            place_artificial_steps(Arm.BETWEEN, 100.0, -1.0)

    def test_arm_letters(self):
        assert [a.letter for a in Arm] == ["A", "B", "C"]
        assert Arm.from_letter("c") is Arm.BELOW_LOWER
        with pytest.raises(ValueError):
            Arm.from_letter("D")

    @pytest.mark.parametrize("letter", ["", " ", "AB", "BC", "ABC"])
    def test_arm_letter_must_be_one_letter(self, letter):
        with pytest.raises(ValueError, match="unknown arm letter"):
            Arm.from_letter(letter)


class TestRewardModel:
    def test_first_observation_sets_mean(self):
        model = RewardModel()
        model.observe_scalar(0, Arm.ABOVE_HIGHER, 100.0)
        assert model.means(0) == [100.0, 0.0, 0.0]

    def test_mean_of_two(self):
        model = RewardModel()
        model.observe_scalar(0, Arm.BETWEEN, 100.0)
        model.observe_scalar(0, Arm.BETWEEN, 200.0)
        assert model.means(0)[Arm.BETWEEN] == pytest.approx(150.0)

    def test_cells_are_isolated(self):
        model = RewardModel()
        model.observe_scalar(0, Arm.ABOVE_HIGHER, 5.0)
        model.observe_scalar(1, Arm.BELOW_LOWER, -3.0)
        assert model.means(0) == [5.0, 0.0, 0.0]
        assert model.means(1) == [0.0, 0.0, -3.0]
        assert model.means(2) == [0.0, 0.0, 0.0]

    def test_combined_reward_weighting(self):
        value = combined_reward(500.0, 1.0, 1000.0, 1.0)
        assert value == pytest.approx(1.5)
        model = RewardModel()
        model.observe_scalar(0, Arm.ABOVE_HIGHER, value)
        assert model.means(0)[Arm.ABOVE_HIGHER] == pytest.approx(1.5)

    def test_nonfinite_reward_rejected(self):
        model = RewardModel()
        with pytest.raises(ValueError):
            model.observe_scalar(0, Arm.BETWEEN, float("nan"))


class DictRewardModel:
    """The (player, arm)-keyed dict layout RewardModel had before its
    per-player lists; the reference the list layout must match."""

    def __init__(self):
        self._count = {}
        self._sum = {}

    def observe_scalar(self, player, arm, value):
        key = (player, arm)
        self._count[key] = self._count.get(key, 0) + 1
        self._sum[key] = self._sum.get(key, 0.0) + value

    def mean(self, player, arm):
        key = (player, arm)
        n = self._count.get(key, 0)
        return self._sum[key] / n if n else 0.0


def reference_argbest(scores, best):
    target = max(scores) if best else min(scores)
    return [i for i, s in enumerate(scores) if s == target][0]


def reference_predict(model, player, best):
    return Arm(reference_argbest([model.mean(player, arm) for arm in Arm], best))


def reference_greedy(model, players):
    sums = [sum(model.mean(p, arm) for p in players) for arm in Arm]
    return Arm(reference_argbest(sums, True))


OBSERVED_VALUES = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-1e6, 1e6)


class TestRewardModelLayout:
    @settings(max_examples=300, deadline=None)
    @given(
        observations=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(list(Arm)), OBSERVED_VALUES), max_size=40
        ),
    )
    def test_matches_dict_layout(self, observations):
        model, reference = RewardModel(), DictRewardModel()
        for player, arm, value in observations:
            model.observe_scalar(player, arm, value)
            reference.observe_scalar(player, arm, value)
        players = [0, 1, 2, 3]  # player 3 is never observed
        for player in players:
            means = model.means(player)
            for arm in Arm:
                want = reference.mean(player, arm)
                assert means[arm].hex() == want.hex()
            best = reference_predict(reference, player, True)
            worst = reference_predict(reference, player, False)
            got_best, got_worst = predict_arms(model, player)
            assert got_best is best and got_worst is worst
        for team in ([0, 1], [1, 0], [0, 1, 2, 3], [3]):
            assert greedy_select(model, team).arm is reference_greedy(reference, team)

    def test_means_is_a_copy(self):
        model = model_with_means(CONFLICT_MEANS)
        model.means(0)[Arm.ABOVE_HIGHER] = 99.0
        assert model.means(0)[Arm.ABOVE_HIGHER] == 10.0


class TestArmPrediction:
    def test_argmax(self):
        model = model_with_means({0: {Arm.ABOVE_HIGHER: 5, Arm.BETWEEN: 3, Arm.BELOW_LOWER: 1}})
        assert predict_arms(model, 0)[0] is Arm.ABOVE_HIGHER

    def test_tie_breaks_to_lowest_ordinal(self):
        model = model_with_means({0: {Arm.ABOVE_HIGHER: 2, Arm.BETWEEN: 2, Arm.BELOW_LOWER: 2}})
        assert predict_arms(model, 0) == (Arm.ABOVE_HIGHER, Arm.ABOVE_HIGHER)
        model = model_with_means({0: {Arm.ABOVE_HIGHER: 2, Arm.BETWEEN: 2, Arm.BELOW_LOWER: 1}})
        assert predict_arms(model, 0)[0] is Arm.ABOVE_HIGHER

    def test_unobserved_model_defaults_to_first_arm(self):
        assert predict_arms(RewardModel(), 0) == (Arm.ABOVE_HIGHER, Arm.ABOVE_HIGHER)

    def test_worst_arm(self):
        model = model_with_means(CONFLICT_MEANS)
        assert predict_arms(model, 1)[1] is Arm.ABOVE_HIGHER

    def test_argmax_invariance_under_constant_shift(self):
        model = model_with_means(CONFLICT_MEANS)
        shifted = model_with_means(
            {p: {a: v + 17.5 for a, v in per.items()} for p, per in CONFLICT_MEANS.items()}
        )
        for player in (0, 1):
            assert predict_arms(model, player)[0] is predict_arms(shifted, player)[0]


class TestGreedySelect:
    def test_conflict_model_selects_net_winner(self):
        # sums: A = +6, B = +1, C = +1, so A wins despite hurting player 1
        decision = greedy_select(model_with_means(CONFLICT_MEANS), [0, 1])
        assert decision.arm is Arm.ABOVE_HIGHER
        assert decision.mode is Mode.EXPLOIT
        assert decision.catered_player is None

    def test_unanimous_preference(self):
        means = {
            0: {Arm.ABOVE_HIGHER: -1.0, Arm.BETWEEN: 0.0, Arm.BELOW_LOWER: 2.0},
            1: {Arm.ABOVE_HIGHER: 0.0, Arm.BETWEEN: 1.0, Arm.BELOW_LOWER: 3.0},
        }
        assert greedy_select(model_with_means(means), [0, 1]).arm is Arm.BELOW_LOWER

    def test_all_zero_tie_breaks_to_first(self):
        assert greedy_select(RewardModel(), [0, 1]).arm is Arm.ABOVE_HIGHER

    def test_empty_players_rejected(self):
        with pytest.raises(ValueError):
            greedy_select(RewardModel(), [])


class TestShapleyDisparity:
    def test_worked_example_values(self):
        state = ShapleyBanditState(csv=[27500.0, 32800.0], tc=[5, 4])
        assert shapley_disparity(state, 0) == pytest.approx(0.0995, abs=5e-4)
        assert shapley_disparity(state, 1) == pytest.approx(0.0995, abs=5e-4)

    def test_equal_shares_are_zero(self):
        state = ShapleyBanditState(csv=[100.0, 100.0], tc=[3, 3])
        assert shapley_disparity(state, 0) == 0.0
        assert shapley_disparity(state, 1) == 0.0

    def test_cold_start_uses_uniform_treatment_prior(self):
        state = ShapleyBanditState(csv=[100.0, 100.0], tc=[0, 0])
        assert shapley_disparity(state, 0) == 0.0
        assert shapley_disparity(state, 1) == 0.0

    def test_zero_total_csv_raises(self):
        state = ShapleyBanditState(csv=[0.0, 0.0], tc=[1, 1])
        with pytest.raises(ZeroTotalCSVError):
            shapley_disparity(state, 0)


class TestShapleySelect:
    def worked_state(self, epsilon=0.0):
        return ShapleyBanditState(csv=[27500.0, 32800.0], tc=[5, 4], epsilon=epsilon)

    def worked_model(self):
        return model_with_means(
            {
                0: {Arm.ABOVE_HIGHER: 1.0, Arm.BETWEEN: 0.0, Arm.BELOW_LOWER: -1.0},
                1: {Arm.ABOVE_HIGHER: -1.0, Arm.BETWEEN: 0.0, Arm.BELOW_LOWER: 1.0},
            }
        )

    def test_worked_example_hypothetical_sums(self):
        state = self.worked_state()
        assert disparity_sum_if_catered(state, 0) == pytest.approx(0.288, abs=1e-3)
        assert disparity_sum_if_catered(state, 1) == pytest.approx(0.088, abs=1e-3)

    def test_worked_example_decision(self):
        decision = shapley_select(self.worked_state(), self.worked_model(), [0, 1], SplitMix64(0))
        assert decision.mode is Mode.EXPLOIT
        assert decision.catered_player == 1
        assert decision.arm is Arm.BELOW_LOWER

    def test_symmetric_state_tie_breaks_to_lowest_id(self):
        state = ShapleyBanditState(csv=[100.0, 100.0], tc=[4, 4], epsilon=0.0)
        decision = shapley_select(state, self.worked_model(), [0, 1], SplitMix64(0))
        assert decision.catered_player == 0

    def test_epsilon_one_explores_uniformly(self):
        state = ShapleyBanditState(csv=[1.0, 1.0], tc=[0, 0], epsilon=1.0)
        rng = SplitMix64(42)
        counts = {arm: 0 for arm in Arm}
        for _ in range(10000):
            decision = shapley_select(state, RewardModel(), [0, 1], rng)
            assert decision.mode is Mode.EXPLORE
            counts[decision.arm] += 1
        for arm in Arm:
            assert abs(counts[arm] / 10000 - 1 / 3) < 0.02

    def test_zero_csv_outside_exploration_raises(self):
        state = ShapleyBanditState(csv=[0.0, 0.0], tc=[0, 0], epsilon=0.0)
        with pytest.raises(ZeroTotalCSVError):
            shapley_select(state, RewardModel(), [0, 1], SplitMix64(0))

    def test_scale_invariance_of_selection(self):
        model = self.worked_model()
        for scale in (0.001, 1.0, 250.0):
            state = ShapleyBanditState(
                csv=[27500.0 * scale, 32800.0 * scale], tc=[5, 4], epsilon=0.0
            )
            decision = shapley_select(state, model, [0, 1], SplitMix64(0))
            assert decision.catered_player == 1
            assert decision.arm is Arm.BELOW_LOWER

    def test_divergence_witness_vs_greedy(self):
        # Same reward model: greedy picks A, the fairness-aware strategy
        # caters to the lower-treatment player and picks their best (C).
        model = model_with_means(CONFLICT_MEANS)
        state = ShapleyBanditState(csv=[100.0, 100.0], tc=[3, 1], epsilon=0.0)
        greedy = greedy_select(model, [0, 1])
        fair = shapley_select(state, model, [0, 1], SplitMix64(0))
        assert greedy.arm is Arm.ABOVE_HIGHER
        assert fair.catered_player == 1
        assert fair.arm is Arm.BELOW_LOWER
        assert fair.arm is not greedy.arm


class TestShapleyUpdate:
    def test_additive_collapse_and_tc(self):
        state = ShapleyBanditState.fresh(2)
        decision = Decision(arm=Arm.ABOVE_HIGHER, catered_player=0, mode=Mode.EXPLOIT)
        shapley_update(state, decision, {0: 6000.0, 1: 8000.0})
        assert state.csv == pytest.approx([6000.0, 8000.0])
        assert state.tc == [1, 0]

    def test_explore_updates_csv_but_not_tc(self):
        state = ShapleyBanditState.fresh(2)
        decision = Decision(arm=Arm.BETWEEN, catered_player=None, mode=Mode.EXPLORE)
        shapley_update(state, decision, {0: 100.0, 1: 200.0})
        assert state.csv == pytest.approx([100.0, 200.0])
        assert state.tc == [0, 0]

    def test_missing_player_gets_no_credit(self):
        state = ShapleyBanditState.fresh(2)
        decision = Decision(arm=Arm.BETWEEN, catered_player=None, mode=Mode.FORCED)
        shapley_update(state, decision, {1: 500.0})
        assert state.csv == pytest.approx([0.0, 500.0])

    def test_nine_rounds_reproduce_worked_example_state(self):
        state = ShapleyBanditState.fresh(2)
        per_round = [(27500.0 / 9, 32800.0 / 9)] * 9
        catered = [0, 1, 0, 1, 0, 1, 0, 0, 1]  # five rounds for p0, four for p1
        for (s0, s1), who in zip(per_round, catered):
            decision = Decision(arm=Arm.ABOVE_HIGHER, catered_player=who, mode=Mode.EXPLOIT)
            shapley_update(state, decision, {0: s0, 1: s1})
        assert state.csv == pytest.approx([27500.0, 32800.0])
        assert state.tc == [5, 4]
        assert disparity_sum_if_catered(state, 0) == pytest.approx(0.288, abs=1e-3)
        assert disparity_sum_if_catered(state, 1) == pytest.approx(0.088, abs=1e-3)

    def test_negative_steps_rejected(self):
        state = ShapleyBanditState.fresh(2)
        decision = Decision(arm=Arm.BETWEEN, catered_player=None, mode=Mode.FORCED)
        with pytest.raises(ValueError):
            shapley_update(state, decision, {0: -5.0})

    @given(
        st.dictionaries(
            st.integers(0, 1), st.floats(0, 1e6, allow_subnormal=False), min_size=1, max_size=2
        )
    )
    @settings(max_examples=100)
    def test_closed_form_matches_exact_engine(self, step_rewards):
        state = ShapleyBanditState.fresh(2)
        decision = Decision(arm=Arm.BETWEEN, catered_player=None, mode=Mode.FORCED)
        shapley_update(state, decision, step_rewards)
        present = sorted(step_rewards)
        phi = shapley_all(
            AdditiveSteps([step_rewards[p] for p in present]), Coalition.of_size(len(present))
        )
        expected = [0.0, 0.0]
        for pos, player in enumerate(present):
            expected[player] = phi[pos]
        # The engine takes a player's marginal value as a difference of
        # coalition sums, so its rounding error scales with the team total.
        total = sum(step_rewards.values())
        assert state.csv == pytest.approx(expected, rel=1e-12, abs=1e-12 * total)

    @given(st.lists(st.floats(0, 1e5), min_size=2, max_size=2), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_csv_never_decreases(self, steps, seed):
        state = ShapleyBanditState(csv=[50.0, 60.0], tc=[1, 1])
        before = list(state.csv)
        decision = random_select(SplitMix64(seed))
        shapley_update(state, decision, dict(enumerate(steps)))
        assert all(after >= b for after, b in zip(state.csv, before))


class TestTCConservation:
    def test_sum_tc_equals_exploit_count(self):
        state = ShapleyBanditState(csv=[1000.0, 800.0], tc=[0, 0], epsilon=0.3)
        model = RewardModel()
        rng = SplitMix64(77)
        exploits = 0
        for _ in range(200):
            decision = shapley_select(state, model, [0, 1], rng)
            if decision.mode is Mode.EXPLOIT:
                exploits += 1
            shapley_update(state, decision, {0: 10.0, 1: 12.0})
        assert sum(state.tc) == exploits


class TestRandomSelect:
    def test_uniform_over_arms(self):
        rng = SplitMix64(5)
        counts = {arm: 0 for arm in Arm}
        for _ in range(10000):
            counts[random_select(rng).arm] += 1
        for arm in Arm:
            assert abs(counts[arm] / 10000 - 1 / 3) < 0.02

    def test_mode_and_membership(self):
        decision = random_select(SplitMix64(1))
        assert decision.mode is Mode.EXPLORE
        assert decision.arm in set(Arm)
        assert decision.catered_player is None

    def test_seeded_sequence_reproducible(self):
        rng = SplitMix64(9)
        first = [random_select(rng).arm for _ in range(20)]
        rng = SplitMix64(9)
        second = [random_select(rng).arm for _ in range(20)]
        assert first == second


class TestStateValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ShapleyBanditState(csv=[1.0], tc=[0], epsilon=1.5)

    def test_negative_tc_rejected(self):
        with pytest.raises(ValueError):
            ShapleyBanditState(csv=[1.0], tc=[-1])

    def test_nonfinite_csv_rejected(self):
        with pytest.raises(ValueError):
            ShapleyBanditState(csv=[math.inf], tc=[0])


class TestDecisionRecord:
    # Day 1 (forced, arm A): player 0 attends, player 1 misses. Day 2
    # (exploit, arm C, catered to player 1): both attend.
    LOG = StudyLog(
        rows=[
            SessionRow(1, 0, 100.0, False, 3, 4, Arm.ABOVE_HIGHER, Mode.FORCED, None,
                       120.0, Arm.ABOVE_HIGHER, Arm.ABOVE_HIGHER, 50.0),
            SessionRow(1, 1, None, True, None, None, Arm.ABOVE_HIGHER, Mode.FORCED, None,
                       120.0, Arm.ABOVE_HIGHER, Arm.ABOVE_HIGHER, 250.0),
            SessionRow(2, 0, 150.0, False, 3, 3, Arm.BELOW_LOWER, Mode.EXPLOIT, 1,
                       80.0, Arm.ABOVE_HIGHER, Arm.BELOW_LOWER, 50.0),
            SessionRow(2, 1, 200.0, False, 2, 2, Arm.BELOW_LOWER, Mode.EXPLOIT, 1,
                       80.0, Arm.BELOW_LOWER, Arm.ABOVE_HIGHER, 250.0),
        ]
    )

    def test_stable_field_names(self):
        records = list(decision_records(self.LOG, step_scale=100.0, motivation_weight=1.0))
        assert records == [
            {
                "day": 1,
                "mode": "forced",
                "arm": "A",
                "catered_player": None,
                "csv": [100.0, 0.0],
                "tc": [0, 0],
                "rewards": {"0": 1.5},
            },
            {
                "day": 2,
                "mode": "exploit",
                "arm": "C",
                "catered_player": 1,
                "csv": [250.0, 200.0],
                "tc": [0, 1],
                "rewards": {"0": 1.0, "1": -0.5},
            },
        ]
        assert [list(record) for record in records] == [
            ["day", "mode", "arm", "catered_player", "csv", "tc", "rewards"]
        ] * 2

    def test_jsonl_round_trip(self, tmp_path):
        records = decision_records(self.LOG, step_scale=100.0, motivation_weight=1.0)
        path = tmp_path / "decisions.jsonl"
        write_decisions_jsonl(records, path)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["day"] for line in lines] == [1, 2]


def test_team_disparity_sum_matches_per_player():
    state = ShapleyBanditState(csv=[27500.0, 32800.0], tc=[5, 4])
    total = shapley_disparity(state, 0) + shapley_disparity(state, 1)
    assert team_disparity_sum(state.csv, state.tc) == pytest.approx(total)
