"""Batch experiment orchestration: replications, reports, manifest.

An experiment spec names a scenario, one study config per condition, a
replication count and a base seed. Replication k of every condition
runs with seed base_seed + k, so replications are paired across
conditions and the whole artifact tree is a pure function of the spec.

Output layout (all paths recorded in manifest.json)::

    out/
      manifest.json
      summary.json          cross-condition table + correlation comparison
      summary.csv
      <condition>/
        report.csv          pooled disparity report for the condition
        report.json
        rep_0000/log.csv    per-session rows (documented schema)
        rep_0000/decisions.jsonl
        rep_0000/summary.json
"""
from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Sequence

from . import __version__
from .analysis import (
    DEFAULT_INTERVENTION_START,
    DisparityReport,
    correlation_diff_test,
    disparity_report,
    log_metrics,
    report_summary,
    write_report_csv,
)
from .analysis import effort, miss_likelihood  # noqa: F401  patched by name in benchmarks/spans.py
from .bandit import write_decisions_jsonl
from .simworld import (
    ConfigError,
    StudyConfig,
    StudyLog,
    check_keys,
    run_study,
    write_log_csv,
    write_log_summary,
)

BATCH_SIZE = 10


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str
    conditions: tuple[StudyConfig, ...]
    replications: int
    base_seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        names = [c.condition.value for c in self.conditions]
        if len(set(names)) != len(names):
            raise ConfigError(f"condition names must be unique, got {names}")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "output_dir": self.output_dir,
            "conditions": [c.to_dict() for c in self.conditions],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        check_keys(cls, doc, "experiment spec")
        try:
            return cls(
                scenario=str(doc["scenario"]),
                conditions=tuple(StudyConfig.from_dict(c) for c in doc["conditions"]),
                replications=int(doc["replications"]),
                base_seed=int(doc.get("base_seed", 0)),
                output_dir=doc.get("output_dir"),
            )
        except KeyError as exc:
            raise ConfigError(f"experiment spec missing key: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def spec_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    spec_hash: str
    seeds: list[int]
    files: list[str]
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "seeds": self.seeds,
            "files": sorted(self.files),
            "version": self.version,
        }


def replication_seeds(spec: ExperimentSpec) -> list[int]:
    return [spec.base_seed + k for k in range(spec.replications)]


def _run_one(config: StudyConfig) -> StudyLog:
    return run_study(config)


def run_condition(
    config: StudyConfig, seeds: Sequence[int], jobs: int = 1
) -> list[StudyLog]:
    configs = [replace(config, seed=seed) for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            logs = list(pool.map(_run_one, configs))
    else:
        logs = [run_study(c) for c in configs]
    for k, log in enumerate(logs):
        log.name = f"{config.condition.value}/rep_{k:04d}"
    return logs


def batch_median_r(
    logs: Sequence[StudyLog], intervention_start: int = DEFAULT_INTERVENTION_START
) -> float | None:
    """Median disparity-vs-miss correlation over batches of replications.

    A single 2-player study cannot support a correlation, so consecutive
    replications are pooled into cohorts of `BATCH_SIZE` studies and the
    correlation is computed per cohort; batches that are degenerate
    (constant disparity or misses) are skipped.
    """
    rs = []
    for start in range(0, len(logs) - BATCH_SIZE + 1, BATCH_SIZE):
        batch = logs[start : start + BATCH_SIZE]
        try:
            rs.append(disparity_report(batch, intervention_start).correlation.r)
        except ValueError:
            continue
    if not rs:
        return None
    return median(rs)


def _condition_summary(
    condition: str,
    logs: Sequence[StudyLog],
    report: DisparityReport | None,
    batch_r: float | None,
    intervention_start: int,
) -> dict:
    steps_vs_baseline = []
    miss_rates = []
    post_scores = []
    sum_sds = []
    for log in logs:
        for p, tally in log_metrics(log, intervention_start).items():
            if tally.effort is not None:
                steps_vs_baseline.append(tally.effort - log.baseline_means[p])
            miss_rates.append(tally.miss_likelihood)
            post_scores.extend(tally.post_motivation)
        if log.final_sum_sd is not None:
            sum_sds.append(log.final_sum_sd)
    mean = lambda xs: sum(xs) / len(xs) if xs else None
    return {
        "condition": condition,
        "replications": len(logs),
        "steps_vs_baseline": mean(steps_vs_baseline),
        "post_motivation_mean": mean(post_scores),
        "miss_rate": mean(miss_rates),
        "mean_sum_sd": mean(sum_sds),
        "disparity_miss_r": report.correlation.r if report else None,
        "disparity_miss_n": report.correlation.n if report else None,
        "batch_median_r": batch_r,
        "mean_signed_disparity": report.mean_signed_disparity if report else None,
        "mean_abs_disparity": report.mean_abs_disparity if report else None,
    }


SUMMARY_COLUMNS = [
    "condition",
    "replications",
    "steps_vs_baseline",
    "post_motivation_mean",
    "miss_rate",
    "mean_sum_sd",
    "disparity_miss_r",
    "batch_median_r",
]


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    out_dir: Path
    logs: dict[str, list[StudyLog]]
    condition_summaries: list[dict]
    comparison: dict | None
    manifest: RunManifest

    def summary(self) -> dict:
        return {
            "scenario": self.spec.scenario,
            "replications": self.spec.replications,
            "base_seed": self.spec.base_seed,
            "conditions": self.condition_summaries,
            "greedy_vs_shapley": self.comparison,
        }


def _paired_sum_sd(greedy: Sequence[StudyLog], shapley: Sequence[StudyLog]) -> dict:
    pairs = [
        (g.final_sum_sd, s.final_sum_sd)
        for g, s in zip(greedy, shapley)
        if g.final_sum_sd is not None and s.final_sum_sd is not None
    ]
    lower = sum(1 for g, s in pairs if s < g)
    return {
        "paired_replications": len(pairs),
        "shapley_lower_count": lower,
        "shapley_lower_fraction": lower / len(pairs) if pairs else None,
    }


def run_experiment(
    spec: ExperimentSpec,
    out_dir,
    jobs: int = 1,
    write_artifacts: bool = True,
) -> ExperimentResult:
    """Run every condition of `spec`, analysing each over its own
    intervention window (`StudyConfig.intervention_start`)."""
    out = Path(out_dir)
    seeds = replication_seeds(spec)
    files: list[str] = []
    logs: dict[str, list[StudyLog]] = {}
    reports: dict[str, DisparityReport | None] = {}
    batch_rs: dict[str, float | None] = {}

    for config in spec.conditions:
        name = config.condition.value
        start = config.intervention_start
        condition_logs = run_condition(config, seeds, jobs)
        logs[name] = condition_logs
        try:
            reports[name] = disparity_report(condition_logs, start)
        except ValueError:
            reports[name] = None
        batch_rs[name] = batch_median_r(condition_logs, start)

        if write_artifacts:
            cond_dir = out / name
            for k, log in enumerate(condition_logs):
                rep_dir = cond_dir / f"rep_{k:04d}"
                rep_dir.mkdir(parents=True, exist_ok=True)
                write_log_csv(log, rep_dir / "log.csv")
                write_decisions_jsonl(log.decisions, rep_dir / "decisions.jsonl")
                write_log_summary(log, rep_dir / "summary.json", start)
                files += [
                    str((rep_dir / fname).relative_to(out))
                    for fname in ("log.csv", "decisions.jsonl", "summary.json")
                ]
            if reports[name] is not None:
                write_report_csv(reports[name], cond_dir / "report.csv")
                (cond_dir / "report.json").write_text(
                    json.dumps(report_summary(reports[name]), indent=2, sort_keys=True) + "\n"
                )
                files += [str((cond_dir / f).relative_to(out)) for f in ("report.csv", "report.json")]

    comparison = None
    if "greedy" in logs and "shapley" in logs:
        comparison = _paired_sum_sd(logs["greedy"], logs["shapley"])
        rg, rs_ = reports.get("greedy"), reports.get("shapley")
        if rg is not None and rs_ is not None:
            z, p = correlation_diff_test(
                rg.correlation.r, rg.correlation.n, rs_.correlation.r, rs_.correlation.n
            )
            comparison.update(
                {
                    "greedy_r": rg.correlation.r,
                    "shapley_r": rs_.correlation.r,
                    "fisher_z": z,
                    "p_value": p,
                }
            )

    summaries = [
        _condition_summary(
            c.condition.value,
            logs[c.condition.value],
            reports[c.condition.value],
            batch_rs[c.condition.value],
            c.intervention_start,
        )
        for c in spec.conditions
    ]

    manifest = RunManifest(spec_hash=spec.spec_hash(), seeds=seeds, files=[])
    result = ExperimentResult(spec, out, logs, summaries, comparison, manifest)

    if write_artifacts:
        (out / "summary.json").write_text(
            json.dumps(result.summary(), indent=2, sort_keys=True) + "\n"
        )
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SUMMARY_COLUMNS)
            for row in summaries:
                writer.writerow([row[c] for c in SUMMARY_COLUMNS])
        files += ["summary.json", "summary.csv", "manifest.json"]
        manifest.files = files
        (out / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return result
