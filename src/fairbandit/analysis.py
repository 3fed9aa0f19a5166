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
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .bandit import Mode, ZeroTotalCSVError, _total, disparities

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
    mx = _total(x) / n
    my = _total(y) / n
    sxx = _total((a - mx) ** 2 for a in x)
    syy = _total((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("degenerate sample: zero variance")
    sxy = _total((a - mx) * (b - my) for a, b in zip(x, y))
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

    The window sums cover days from the intervention start on, the rest
    every session, in row order. `post_sum` adds the window's post-session
    motivation scores and `post_count` counts them. `contribution` is the
    final CSV, `catered` the final TC, `given_best` the exploit days given
    the predicted-best arm.
    """

    baseline_mean: float
    step_sum: float = 0.0
    attended: int = 0
    net_top_treatment: int = 0
    misses: int = 0
    sessions: int = 0
    post_sum: int = 0
    post_count: int = 0
    contribution: float = 0.0
    catered: int = 0
    given_best: int = 0

    @property
    def effort(self) -> float | None:
        return self.step_sum / self.attended if self.attended else None

    @property
    def steps_vs_baseline(self) -> float | None:
        return self.step_sum / self.attended - self.baseline_mean if self.attended else None

    @property
    def miss_likelihood(self) -> float:
        return self.misses / self.sessions


def log_metrics(log) -> dict[int, PlayerTally]:
    """Every player's tally from one walk over `log.rows`, keyed by
    player id in ascending order, with the window sums from
    `log.intervention_start` on."""
    tallies: dict[int, PlayerTally] = {}
    exploit, intervention_start = Mode.EXPLOIT, log.intervention_start
    # A `SessionRow` unpacked once reads faster than field by field.
    for day, player, steps, missed, _, post, arm, mode, catered, _, best, worst, baseline in log.rows:
        tally = tallies.get(player)
        if tally is None:
            tally = tallies[player] = PlayerTally(baseline)
        tally.sessions += 1
        if missed:
            tally.misses += 1
        else:
            tally.contribution += steps
        if mode is exploit:
            tally.catered += catered == player
            tally.given_best += arm is best
        if day < intervention_start:
            continue
        tally.net_top_treatment += (arm is best) - (arm is worst)
        if not missed:
            tally.step_sum += steps
            tally.attended += 1
            if post is not None:
                tally.post_sum += post
                tally.post_count += 1
    return dict(sorted(tallies.items()))


def audit_sum_sd(tallies: dict[int, PlayerTally]) -> float | None:
    """The team disparity sum audited at the end of a study: CSVs against TCs, or
    against `given_best` if no exploit day was catered. None while no CSV accrued."""
    treatments = [tally.catered for tally in tallies.values()]
    if not any(treatments):
        treatments = [tally.given_best for tally in tallies.values()]
    try:
        return _total(disparities([tally.contribution for tally in tallies.values()], treatments))
    except ZeroTotalCSVError:
        return None


def effort(log, player: int) -> float | None:
    """Mean steps over the player's attended intervention-window days,
    or None when every intervention day was missed."""
    tally = log_metrics(log).get(player)
    return tally.effort if tally else None


def net_top_treatment(log, player: int) -> int:
    """Sessions given the player's predicted-best arm minus sessions given
    their predicted-worst, over the intervention window. Best/worst are
    the model's predictions recorded at decision time."""
    tally = log_metrics(log).get(player)
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


def disparity_report(
    logs: Sequence,
    intervention_start: int | None = None,
    tallies: Sequence[dict[int, PlayerTally]] | None = None,
) -> DisparityReport:
    """The report pooled over every log, each read over its own window, or
    from `intervention_start` on when one is given. Players with no
    attended window days are excluded; percentile ranks (and hence
    disparities) are computed within the pooled cohort. Fewer than 3 such
    players, or a mean step count that overflows, raise ValueError.
    `tallies`, when given, is each log's `log_metrics`, in log order, taken
    over a window already, and `logs` are then the logs' names."""
    if tallies is None:
        if intervention_start is not None:
            logs = (replace(log, intervention_start=intervention_start) for log in logs)
        named_tallies = ((log.name, log_metrics(log)) for log in logs)
    elif intervention_start is None:
        named_tallies = zip(logs, tallies, strict=True)
    else:
        raise ValueError("tallies have their logs' windows; give the logs to move the window")
    labels, efforts, treatments, misses = [], [], [], []
    for name, log_tallies in named_tallies:
        if not isinstance(name, str):
            raise TypeError(f"with tallies, give each log's name, not a {type(name).__name__}")
        prefix = f"{name}:" if name else ""
        for player, tally in log_tallies.items():
            if tally.effort is None:
                continue
            if not math.isfinite(tally.effort):
                raise ValueError(f"{prefix}p{player}: mean steps {tally.effort} is not finite")
            labels.append(f"{prefix}p{player}")
            efforts.append(tally.effort)
            treatments.append(tally.net_top_treatment)
            misses.append(tally.miss_likelihood)
    if len(labels) < 3:
        raise ValueError(f"need at least 3 analyzable players, got {len(labels)}")
    pr_effort = percentile_rank(efforts)
    pr_treatment = percentile_rank([float(t) for t in treatments])
    metrics = [
        PlayerMetrics(label, effort, treatment, miss, pe - pt)
        for label, effort, treatment, miss, pe, pt in zip(
            labels, efforts, treatments, misses, pr_effort, pr_treatment
        )
    ]
    metrics.sort(key=lambda m: (m.disparity, m.player))
    disparities = [m.disparity for m in metrics]
    r = pearson_r(disparities, [m.miss_likelihood for m in metrics])
    z = math.copysign(math.inf, r) if abs(r) >= 1.0 else fisher_z(r)
    report = CorrelationReport(r=r, n=len(metrics), fisher_z=z)
    return DisparityReport(
        rows=metrics,
        correlation=report,
        mean_signed_disparity=_total(disparities) / len(disparities),
        mean_abs_disparity=_total(abs(d) for d in disparities) / len(disparities),
    )


def write_report_csv(report: DisparityReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for m in report.rows:
            writer.writerow(
                [m.player, m.disparity, m.miss_likelihood, m.effort, m.net_top_treatment]
            )


def write_report_json(report: DisparityReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(report_summary(report), indent=2, sort_keys=True) + "\n")


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
