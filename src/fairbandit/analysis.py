"""Post-hoc cohort analysis: effort, treatment, disparity and adherence.

For each analyzable player the pipeline computes three observables --
mean daily steps over the intervention window (effort), net top
treatment (sessions given their predicted-best arm minus sessions given
their predicted-worst), and miss likelihood (fraction of scheduled
sessions missed) -- then derives disparity as the player's effort
percentile minus their treatment percentile within the cohort, a value
in [-1, 1] where +1 means highest effort with lowest treatment. The
report pairs sorted disparities with miss likelihoods and attaches
their Pearson correlation; two correlations (e.g. from two strategy
conditions) are compared with a Fisher z test.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

DEFAULT_INTERVENTION_START = 10

REPORT_COLUMNS = ["player", "disparity", "miss_likelihood", "effort", "treatment"]


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the erf identity Phi(x) = (1 + erf(x/sqrt(2)))/2."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length samples."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 observations")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("degenerate sample: zero variance")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def fisher_z(r: float) -> float:
    if abs(r) >= 1.0:
        raise ValueError("|r| must be < 1 for the Fisher transform")
    return math.atanh(r)


def correlation_diff_test(r1: float, n1: int, r2: float, n2: int) -> tuple[float, float]:
    """Two-sided test for a difference between two independent Pearson
    correlations: z = (atanh(r1) - atanh(r2)) / sqrt(1/(n1-3) + 1/(n2-3)),
    with p from the standard normal."""
    if n1 < 4 or n2 < 4:
        raise ValueError("need n >= 4 in both samples")
    z = (fisher_z(r1) - fisher_z(r2)) / math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    return z, p


def slope_diff_test(b1: float, se1: float, b2: float, se2: float) -> tuple[float, float]:
    """Difference test for two regression slopes with known standard
    errors: z = (b1 - b2) / sqrt(se1^2 + se2^2)."""
    if se1 <= 0 or se2 <= 0:
        raise ValueError("standard errors must be positive")
    z = (b1 - b2) / math.sqrt(se1 * se1 + se2 * se2)
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    return z, p


def percentile_rank(values: Sequence[float]) -> list[float]:
    """Ranks rescaled to [0, 1]: the smallest value gets 0, the largest 1
    (rank/(n-1)), ties get the mean of their positional ranks, and a
    single element gets 0.5."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot rank an empty list")
    if n == 1:
        return [0.5]
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    pos = 0
    while pos < n:
        end = pos
        while end + 1 < n and values[order[end + 1]] == values[order[pos]]:
            end += 1
        mean_rank = (pos + end) / 2.0 / (n - 1)
        for k in range(pos, end + 1):
            ranks[order[k]] = mean_rank
        pos = end + 1
    return ranks


@dataclass(frozen=True)
class PlayerMetrics:
    player: str
    effort: float
    net_top_treatment: int
    miss_likelihood: float
    disparity: float


@dataclass(frozen=True)
class CorrelationReport:
    r: float
    n: int
    fisher_z: float


@dataclass(slots=True)
class PlayerTally:
    """One player's counts from a single pass over a log's rows.

    The window sums cover days from the intervention start on; misses
    and sessions cover every scheduled session. Values accumulate in row
    order.
    """

    step_sum: float = 0.0
    attended: int = 0
    net_top_treatment: int = 0
    misses: int = 0
    sessions: int = 0
    post_motivation: list[int] = field(default_factory=list)

    @property
    def effort(self) -> float | None:
        return self.step_sum / self.attended if self.attended else None

    @property
    def miss_likelihood(self) -> float:
        return self.misses / self.sessions


def log_metrics(
    log, intervention_start: int = DEFAULT_INTERVENTION_START
) -> dict[int, PlayerTally]:
    """Every player's tally from one walk over `log.rows`, keyed by
    player id in ascending order."""
    tallies: dict[int, PlayerTally] = {}
    for row in log.rows:
        tally = tallies.get(row.player)
        if tally is None:
            tally = tallies[row.player] = PlayerTally()
        tally.sessions += 1
        if row.missed:
            tally.misses += 1
        if row.day < intervention_start:
            continue
        tally.net_top_treatment += (row.arm == row.best_arm) - (row.arm == row.worst_arm)
        if not row.missed:
            tally.step_sum += row.steps
            tally.attended += 1
            if row.post_motivation is not None:
                tally.post_motivation.append(row.post_motivation)
    return dict(sorted(tallies.items()))


def effort(log, player: int, intervention_start: int = DEFAULT_INTERVENTION_START) -> float | None:
    """Mean steps over the player's attended intervention-window days,
    or None when every intervention day was missed."""
    tally = log_metrics(log, intervention_start).get(player)
    return tally.effort if tally else None


def net_top_treatment(
    log, player: int, intervention_start: int = DEFAULT_INTERVENTION_START
) -> int:
    """Sessions given the player's predicted-best arm minus sessions given
    their predicted-worst, over the intervention window. Best/worst are
    the model's predictions recorded at decision time."""
    tally = log_metrics(log, intervention_start).get(player)
    return tally.net_top_treatment if tally else 0


def miss_likelihood(log, player: int) -> float:
    tally = log_metrics(log).get(player)
    if tally is None:
        raise ValueError(f"no sessions for player {player}")
    return tally.miss_likelihood


@dataclass
class DisparityReport:
    """Cohort table sorted ascending by disparity, plus the disparity vs.
    miss-likelihood correlation and both disparity aggregations (the
    signed mean and the mean of absolute values)."""

    rows: list[PlayerMetrics]
    correlation: CorrelationReport
    mean_signed_disparity: float
    mean_abs_disparity: float


def cohort_metrics(
    logs: Sequence, intervention_start: int = DEFAULT_INTERVENTION_START
) -> list[PlayerMetrics]:
    """Per-player metrics pooled over every log in the cohort. Players
    with no attended intervention days are excluded. Percentile ranks
    (and hence disparities) are computed within the pooled cohort."""
    labels: list[str] = []
    efforts: list[float] = []
    treatments: list[int] = []
    misses: list[float] = []
    for log in logs:
        prefix = f"{log.name}:" if getattr(log, "name", "") else ""
        for player, tally in log_metrics(log, intervention_start).items():
            if tally.effort is None:
                continue
            labels.append(f"{prefix}p{player}")
            efforts.append(tally.effort)
            treatments.append(tally.net_top_treatment)
            misses.append(tally.miss_likelihood)
    pr_effort = percentile_rank(efforts)
    pr_treatment = percentile_rank([float(t) for t in treatments])
    return [
        PlayerMetrics(
            player=labels[i],
            effort=efforts[i],
            net_top_treatment=treatments[i],
            miss_likelihood=misses[i],
            disparity=pr_effort[i] - pr_treatment[i],
        )
        for i in range(len(labels))
    ]


def disparity_report(
    logs: Sequence, intervention_start: int = DEFAULT_INTERVENTION_START
) -> DisparityReport:
    metrics = cohort_metrics(logs, intervention_start)
    if len(metrics) < 3:
        raise ValueError(f"need at least 3 analyzable players, got {len(metrics)}")
    metrics.sort(key=lambda m: (m.disparity, m.player))
    disparities = [m.disparity for m in metrics]
    r = pearson_r(disparities, [m.miss_likelihood for m in metrics])
    z = math.copysign(math.inf, r) if abs(r) >= 1.0 else fisher_z(r)
    report = CorrelationReport(r=r, n=len(metrics), fisher_z=z)
    return DisparityReport(
        rows=metrics,
        correlation=report,
        mean_signed_disparity=sum(disparities) / len(disparities),
        mean_abs_disparity=sum(abs(d) for d in disparities) / len(disparities),
    )


def write_report_csv(report: DisparityReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for m in report.rows:
            writer.writerow(
                [m.player, m.disparity, m.miss_likelihood, m.effort, m.net_top_treatment]
            )


def correlation_significance(r: float, n: int) -> tuple[float, float]:
    """Test of a single correlation against zero: z = atanh(r) * sqrt(n-3),
    two-sided p from the standard normal."""
    if n < 4:
        raise ValueError("need n >= 4")
    if abs(r) >= 1.0:
        return math.copysign(math.inf, r), 0.0
    z = fisher_z(r) * math.sqrt(n - 3)
    return z, 2.0 * (1.0 - normal_cdf(abs(z)))


def report_summary(report: DisparityReport) -> dict:
    if report.correlation.n >= 4:
        z, p = correlation_significance(report.correlation.r, report.correlation.n)
    else:
        z, p = None, None
    finite = lambda x: x if x is None or isinstance(x, int) or math.isfinite(x) else None
    return {
        "n": report.correlation.n,
        "pearson_r": report.correlation.r,
        "fisher_z": finite(report.correlation.fisher_z),
        "z": finite(z),
        "p": p,
        "mean_signed_disparity": report.mean_signed_disparity,
        "mean_abs_disparity": report.mean_abs_disparity,
    }
