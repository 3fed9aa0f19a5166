import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbandit.analysis import (
    correlation_diff_test,
    correlation_significance,
    disparity_report,
    effort,
    fisher_z,
    log_metrics,
    miss_likelihood,
    net_top_treatment,
    normal_cdf,
    pearson_r,
    percentile_rank,
    report_summary,
    write_report_json,
)
from fairbandit.bandit import Arm, Mode
from fairbandit.scenarios import load_scenario
from fairbandit.logs import SessionRow, StudyLog
from fairbandit.simworld import Condition, run_study


def make_row(day, player, steps, missed=False, arm=Arm.ABOVE_HIGHER,
             best=Arm.ABOVE_HIGHER, worst=Arm.BELOW_LOWER, baseline=9000.0):
    return SessionRow(
        day=day,
        player=player,
        steps=None if missed else steps,
        missed=missed,
        pre_motivation=None if missed else 3,
        post_motivation=None if missed else 3,
        arm=arm,
        mode=Mode.EXPLOIT,
        catered_player=None,
        artificial_steps=10000.0,
        best_arm=best,
        worst_arm=worst,
        baseline_mean=baseline,
    )


class TestEffort:
    def test_constant_steps(self):
        log = StudyLog(rows=[make_row(d, 0, 10000.0) for d in range(10, 22)], intervention_start=10)
        assert effort(log, 0) == pytest.approx(10000.0)

    def test_mean_of_two(self):
        log = StudyLog(rows=[make_row(10, 0, 8000.0), make_row(11, 0, 12000.0)], intervention_start=10)
        assert effort(log, 0) == pytest.approx(10000.0)

    def test_missed_days_excluded(self):
        log = StudyLog(
            rows=[
                make_row(10, 0, 8000.0),
                make_row(11, 0, None, missed=True),
                make_row(12, 0, 12000.0),
            ],
            intervention_start=10,
        )
        assert effort(log, 0) == pytest.approx(10000.0)

    def test_pre_intervention_days_excluded(self):
        log = StudyLog(rows=[make_row(5, 0, 99999.0), make_row(10, 0, 7000.0)], intervention_start=10)
        assert effort(log, 0) == pytest.approx(7000.0)

    def test_all_missed_reports_absent(self):
        log = StudyLog(rows=[make_row(d, 0, None, missed=True) for d in range(10, 22)], intervention_start=10)
        assert effort(log, 0) is None


class TestNetTopTreatment:
    def test_always_best(self):
        rows = [make_row(d, 0, 9000.0, arm=Arm.ABOVE_HIGHER, best=Arm.ABOVE_HIGHER)
                for d in range(10, 22)]
        assert net_top_treatment(StudyLog(rows=rows, intervention_start=10), 0) == 12

    def test_always_worst(self):
        rows = [make_row(d, 0, 9000.0, arm=Arm.BELOW_LOWER, worst=Arm.BELOW_LOWER)
                for d in range(10, 22)]
        assert net_top_treatment(StudyLog(rows=rows, intervention_start=10), 0) == -12

    def test_balanced(self):
        rows = [
            make_row(d, 0, 9000.0,
                     arm=Arm.ABOVE_HIGHER if d % 2 else Arm.BELOW_LOWER)
            for d in range(10, 22)
        ]
        assert net_top_treatment(StudyLog(rows=rows, intervention_start=10), 0) == 0

    def test_neutral_arm_counts_nothing(self):
        rows = [make_row(d, 0, 9000.0, arm=Arm.BETWEEN) for d in range(10, 22)]
        assert net_top_treatment(StudyLog(rows=rows, intervention_start=10), 0) == 0


class TestMissLikelihood:
    def test_no_misses(self):
        log = StudyLog(rows=[make_row(d, 0, 9000.0) for d in range(1, 22)], intervention_start=10)
        assert miss_likelihood(log, 0) == 0.0

    def test_seven_of_twentyone(self):
        rows = [make_row(d, 0, 9000.0, missed=(d <= 7)) for d in range(1, 22)]
        assert miss_likelihood(StudyLog(rows=rows, intervention_start=10), 0) == pytest.approx(1 / 3)

    def test_all_missed(self):
        rows = [make_row(d, 0, None, missed=True) for d in range(1, 22)]
        assert miss_likelihood(StudyLog(rows=rows, intervention_start=10), 0) == 1.0


class TestPercentileRank:
    def test_three_distinct(self):
        assert percentile_rank([10, 20, 30]) == [0.0, 0.5, 1.0]

    def test_ties_take_mean_positional_rank(self):
        # positional ranks of the tied 10s are 0 and 1 -> scaled 0 and 0.5,
        # averaging to 0.25
        assert percentile_rank([10, 10, 30]) == [0.25, 0.25, 1.0]

    def test_singleton(self):
        assert percentile_rank([42]) == [0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_rank([])

    def test_order_independence(self):
        assert percentile_rank([30, 10, 20]) == [1.0, 0.0, 0.5]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_monotone(self, values):
        ranks = percentile_rank(values)
        for i in range(len(values)):
            for j in range(len(values)):
                if values[i] > values[j]:
                    assert ranks[i] >= ranks[j]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_bounded(self, values):
        assert all(0.0 <= r <= 1.0 for r in percentile_rank(values))


class TestPearson:
    def test_perfect_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_hand_computed_case(self):
        # cov = 3, sd_x = sd_y = sqrt(5): r = 3/5
        assert pearson_r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2], [3, 4])

    def test_degenerate_variance(self):
        with pytest.raises(ValueError):
            pearson_r([1, 1, 1], [1, 2, 3])

    @given(
        st.lists(
            # magnitudes below ~1e-3 get absorbed by the shift and break the
            # property through rounding alone, so keep inputs well-conditioned
            st.floats(-100, 100).filter(lambda v: v == 0.0 or abs(v) > 1e-3),
            min_size=4,
            max_size=20,
            unique=True,
        ),
        st.floats(0.1, 50),
        st.floats(-100, 100),
    )
    @settings(max_examples=100)
    def test_affine_invariance(self, x, a, b):
        y = [(i * 7 % 13) + 0.5 * v for i, v in enumerate(x)]
        try:
            base = pearson_r(x, y)
            transformed = pearson_r([a * v + b for v in x], y)
        except ValueError:
            return
        assert transformed == pytest.approx(base, abs=1e-7)


class TestCorrelationDiffTest:
    def test_equal_correlations_give_zero_and_one(self):
        z, p = correlation_diff_test(0.3, 30, 0.3, 30)
        assert z == 0.0
        assert p == 1.0

    def test_reference_case(self):
        # atanh(0.5)/sqrt(2/47) = 2.6629; two-sided p = 0.00775
        z, p = correlation_diff_test(0.5, 50, 0.0, 50)
        assert z == pytest.approx(2.66, abs=0.01)
        assert p == pytest.approx(0.008, abs=0.001)

    def test_antisymmetry(self):
        z1, p1 = correlation_diff_test(0.5, 40, 0.1, 60)
        z2, p2 = correlation_diff_test(0.1, 60, 0.5, 40)
        assert z1 == pytest.approx(-z2)
        assert p1 == pytest.approx(p2)

    def test_insufficient_n(self):
        with pytest.raises(ValueError):
            correlation_diff_test(0.5, 3, 0.0, 50)

    def test_perfect_correlation_rejected(self):
        with pytest.raises(ValueError):
            correlation_diff_test(1.0, 50, 0.0, 50)


def test_correlation_significance():
    z, p = correlation_significance(0.5, 50)
    assert z == pytest.approx(math.atanh(0.5) * math.sqrt(47))
    assert p == pytest.approx(0.000166, abs=5e-5)
    z0, p0 = correlation_significance(0.0, 50)
    assert (z0, p0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        correlation_significance(0.5, 3)


class TestNormalCdf:
    # tabulated standard normal quantiles
    TABLE = [
        (0.0, 0.5),
        (1.0, 0.8413447461),
        (1.96, 0.9750021049),
        (2.5758293035, 0.995),
        (-1.0, 0.1586552539),
        (-2.3263478740, 0.01),
    ]

    def test_against_tabulated_quantiles(self):
        for x, want in self.TABLE:
            assert normal_cdf(x) == pytest.approx(want, abs=1e-7)

    def test_fisher_z_is_atanh(self):
        assert fisher_z(0.5) == pytest.approx(math.atanh(0.5))
        with pytest.raises(ValueError):
            fisher_z(1.0)


def hand_crafted_cohort() -> StudyLog:
    """3 players, 4 days, intervention from day 3.

    efforts 8000 < 10000 < 12000 -> PR(E) = {0, .5, 1}
    net top  +2  >  0    >  -2   -> PR(T) = {1, .5, 0}
    disparity = {-1, 0, +1}; miss likelihood = {0, .25, .5}
    -> exactly linear, so r = 1.
    """
    rows = []
    # player 0: always their best arm, never misses
    for day in (1, 2, 3, 4):
        rows.append(make_row(day, 0, 8000.0, arm=Arm.ABOVE_HIGHER))
    # player 1: one best day, one worst day, one pre-intervention miss
    rows.append(make_row(1, 1, None, missed=True))
    rows.append(make_row(2, 1, 10000.0))
    rows.append(make_row(3, 1, 10000.0, arm=Arm.ABOVE_HIGHER))
    rows.append(make_row(4, 1, 10000.0, arm=Arm.BELOW_LOWER))
    # player 2: always their worst arm, misses two pre-intervention days
    rows.append(make_row(1, 2, None, missed=True))
    rows.append(make_row(2, 2, None, missed=True))
    rows.append(make_row(3, 2, 12000.0, arm=Arm.BELOW_LOWER))
    rows.append(make_row(4, 2, 12000.0, arm=Arm.BELOW_LOWER))
    return StudyLog(rows=rows, intervention_start=3)


class TestDisparityReport:
    def test_hand_checked_three_player_cohort(self):
        report = disparity_report([hand_crafted_cohort()], intervention_start=3)
        by_player = {m.player: m for m in report.rows}
        assert by_player["p0"].disparity == pytest.approx(-1.0)
        assert by_player["p1"].disparity == pytest.approx(0.0)
        assert by_player["p2"].disparity == pytest.approx(1.0)
        assert by_player["p2"].miss_likelihood == pytest.approx(0.5)
        assert report.correlation.r == pytest.approx(1.0)
        # rows sorted ascending by disparity
        assert [m.player for m in report.rows] == ["p0", "p1", "p2"]

    def test_identical_lists_correlate_perfectly(self):
        report = disparity_report([hand_crafted_cohort()], intervention_start=3)
        d = [m.disparity for m in report.rows]
        assert pearson_r(d, list(d)) == pytest.approx(1.0)

    def test_simulated_logs_are_read_over_their_own_window(self):
        spec = load_scenario("conflict-cohort", 30, None)
        greedy = next(c for c in spec.conditions if c.condition is Condition.GREEDY)
        config = replace(greedy, forced_exploration_days=3)
        logs = [run_study(replace(config, seed=seed)) for seed in range(30)]
        assert disparity_report(logs) == disparity_report(logs, 4)
        assert disparity_report(logs) != disparity_report(logs, 10)

    def test_window_override_leaves_the_logs_as_they_were(self):
        log = hand_crafted_cohort()
        assert disparity_report([log], 1) != disparity_report([log])
        assert log.intervention_start == 3

    @pytest.mark.parametrize("named", [False, True])
    def test_a_window_with_tallies_is_refused(self, named):
        log = hand_crafted_cohort()
        logs = ["cohort"] if named else [log]
        with pytest.raises(ValueError, match="tallies"):
            disparity_report(logs, 1, tallies=[log_metrics(log)])

    def test_tallies_take_names_not_logs(self):
        log = hand_crafted_cohort()
        with pytest.raises(TypeError, match="name, not a StudyLog"):
            disparity_report([log], tallies=[log_metrics(log)])
        assert disparity_report(["cohort"], tallies=[log_metrics(log)]).rows[0].player == "cohort:p0"

    def test_log_without_a_window_is_refused(self):
        with pytest.raises(TypeError, match="intervention_start"):
            StudyLog(rows=[make_row(10, 0, 9000.0)])

    def test_report_json_is_the_sorted_summary(self, tmp_path):
        report = disparity_report([hand_crafted_cohort()])
        path = tmp_path / "report.json"
        write_report_json(report, path)
        text = path.read_text()
        assert text.endswith("}\n")
        assert json.loads(text) == report_summary(report)
        assert text == json.dumps(report_summary(report), indent=2, sort_keys=True) + "\n"

    def test_requires_three_players(self):
        log = StudyLog(rows=[make_row(10, 0, 9000.0), make_row(10, 1, 9500.0)], intervention_start=10)
        with pytest.raises(ValueError):
            disparity_report([log])

    def test_independent_noise_has_small_r(self):
        # disparity permuted against miss likelihood drawn independently:
        # across seeded trials the median |r| stays small
        from fairbandit.rng import SplitMix64

        rng = SplitMix64(33)
        rs = []
        for _ in range(40):
            n = 30
            disp = [rng.uniform(-1, 1) for _ in range(n)]
            miss = [rng.uniform(0, 1) for _ in range(n)]
            rs.append(abs(pearson_r(disp, miss)))
        rs.sort()
        assert rs[len(rs) // 2] < 0.2

    @given(
        st.lists(st.floats(0, 1e5), min_size=2, max_size=30),
        st.lists(st.integers(-21, 21), min_size=2, max_size=30),
    )
    @settings(max_examples=200)
    def test_disparity_always_bounded(self, efforts, treatments):
        n = min(len(efforts), len(treatments))
        pr_e = percentile_rank(efforts[:n])
        pr_t = percentile_rank([float(t) for t in treatments[:n]])
        for e, t in zip(pr_e, pr_t):
            assert -1.0 <= e - t <= 1.0

    def test_zero_disparity_when_ranks_coincide(self):
        efforts = [1000.0, 2000.0, 3000.0]
        treatments = [1.0, 2.0, 3.0]
        pr_e = percentile_rank(efforts)
        pr_t = percentile_rank(treatments)
        assert all(e - t == 0.0 for e, t in zip(pr_e, pr_t))

    def test_summary_carries_r_z_p(self):
        report = disparity_report([hand_crafted_cohort()], intervention_start=3)
        summary = report_summary(report)
        assert summary["pearson_r"] == pytest.approx(1.0)
        assert {"n", "pearson_r", "fisher_z", "z", "p"} <= set(summary)
        # three players cannot support a significance test
        assert summary["z"] is None and summary["p"] is None
