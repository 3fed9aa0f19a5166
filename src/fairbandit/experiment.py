"""Batch experiment orchestration: replications, reports, manifest.

An experiment spec names a scenario, one study config per condition, a
replication count and a base seed. Replication k of every condition
runs with seed base_seed + k, so replications are paired across
conditions and the whole artifact tree is a pure function of the spec.
Conditions of the same protocol length read the same world draws at a
seed, which are taken once per seed.

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

import contextlib
import csv
import hashlib
import json
import sys
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from statistics import median
from typing import Sequence

from . import __version__
from .analysis import (
    DisparityReport,
    PlayerTally,
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
    StudyWorld,
    TEAM_SIZE,
    check_doc,
    decision_records,
    draw_world,
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
        if not self.conditions:
            raise ConfigError("an experiment needs at least one condition")
        names = [c.condition.value for c in self.conditions]
        if len(set(names)) != len(names):
            raise ConfigError(f"condition names must be unique, got {names}")
        # A condition's mean steps_vs_baseline adds one term per player and
        # replication, none over the study's peak steps in size.
        terms = self.replications * TEAM_SIZE
        for c in self.conditions:
            if terms > sys.float_info.max / c.peak_steps:
                raise ConfigError(
                    f"condition {c.condition.value}: {self.replications} replications x"
                    f" {TEAM_SIZE} players = {terms} steps_vs_baseline terms of up to"
                    f" peak_steps {c.peak_steps!r} overflow the condition's mean"
                )

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
        check_doc(cls, doc, "experiment spec")
        if not isinstance(doc.get("conditions", []), list):
            raise ConfigError(
                f"experiment spec: conditions must be a list of objects, got {doc['conditions']!r}"
            )
        try:
            return cls(
                scenario=doc["scenario"],
                conditions=tuple(StudyConfig.from_dict(c) for c in doc["conditions"]),
                replications=doc["replications"],
                base_seed=doc.get("base_seed", 0),
                output_dir=doc.get("output_dir"),
            )
        except KeyError as exc:
            raise ConfigError(f"experiment spec missing key: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read spec {path}: {exc.strerror}") from exc
        try:
            doc = json.loads(text)
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


def _run_seed(configs: Sequence[StudyConfig], seed: int) -> list[StudyLog]:
    """Each config's study at `seed`. Configs of the same protocol length
    read one world, drawn once (common random numbers)."""
    worlds: dict[tuple[int, int], StudyWorld] = {}
    logs = []
    for config in configs:
        shape = (config.baseline_days, config.total_sessions)
        if shape not in worlds:
            worlds[shape] = draw_world(seed, *shape)
        logs.append(run_study(replace(config, seed=seed), worlds[shape]))
    return logs


def _run_seeds(
    configs: Sequence[StudyConfig], seeds: Sequence[int], pool: Executor | None
) -> list[list[StudyLog]]:
    """Each config's logs, one per seed, named `<condition>/rep_NNNN`.
    One task per seed runs every config, in `pool` when one is given."""
    by_seed = list((pool.map if pool is not None else map)(partial(_run_seed, configs), seeds))
    runs = [[logs[c] for logs in by_seed] for c in range(len(configs))]
    for config, logs in zip(configs, runs):
        for k, log in enumerate(logs):
            log.name = f"{config.condition.value}/rep_{k:04d}"
    return runs


def run_condition(
    config: StudyConfig, seeds: Sequence[int], pool: Executor | None = None
) -> list[StudyLog]:
    """One log per seed, run in `pool` when one is given."""
    return _run_seeds((config,), seeds, pool)[0]


def batch_median_r(
    logs: Sequence[StudyLog], tallies: Sequence[dict[int, PlayerTally]]
) -> float | None:
    """Median disparity-vs-miss correlation over batches of replications.

    A single 2-player study cannot support a correlation, so consecutive
    replications are pooled into cohorts of `BATCH_SIZE` studies and the
    correlation is computed per cohort; batches that are degenerate
    (constant disparity or misses) are skipped. `tallies` is each log's
    `log_metrics` over the analysis window, in log order.
    """
    rs = []
    for start in range(0, len(logs) - BATCH_SIZE + 1, BATCH_SIZE):
        batch = slice(start, start + BATCH_SIZE)
        try:
            rs.append(disparity_report(logs[batch], tallies=tallies[batch]).correlation.r)
        except ValueError:
            continue
    if not rs:
        return None
    return median(rs)


def _condition_summary(
    condition: str,
    logs: Sequence[StudyLog],
    tallies: Sequence[dict[int, PlayerTally]],
    report: DisparityReport | None,
    batch_r: float | None,
) -> dict:
    steps_vs_baseline = []
    miss_rates = []
    post_scores = []
    sum_sds = []
    for log, log_tallies in zip(logs, tallies, strict=True):
        for p, tally in log_tallies.items():
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
    intervention window (`StudyConfig.intervention_start`). Each log is
    tallied once (`log_metrics`) and every analysis of it reads that.
    Each seed's studies run as one task that draws the seed's world once
    for every condition; with `jobs` > 1 the tasks run in one process
    pool."""
    out = Path(out_dir)
    seeds = replication_seeds(spec)
    files: list[str] = []
    logs: dict[str, list[StudyLog]] = {}
    reports: dict[str, DisparityReport | None] = {}
    summaries: list[dict] = []

    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        runs = _run_seeds(spec.conditions, seeds, pool)
    for config, condition_logs in zip(spec.conditions, runs):
        name = config.condition.value
        start = config.intervention_start
        logs[name] = condition_logs
        tallies = [log_metrics(log, start) for log in condition_logs]
        try:
            reports[name] = disparity_report(condition_logs, start, tallies)
        except ValueError:
            reports[name] = None
        batch_r = batch_median_r(condition_logs, tallies)
        summaries.append(_condition_summary(name, condition_logs, tallies, reports[name], batch_r))

        if write_artifacts:
            cond_dir = out / name
            for k, log in enumerate(condition_logs):
                rep_dir = cond_dir / f"rep_{k:04d}"
                rep_dir.mkdir(parents=True, exist_ok=True)
                write_log_csv(log, rep_dir / "log.csv")
                records = decision_records(log, config.step_scale, config.motivation_weight)
                write_decisions_jsonl(records, rep_dir / "decisions.jsonl")
                write_log_summary(log, rep_dir / "summary.json", tallies[k])
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
            try:
                z, p = correlation_diff_test(
                    rg.correlation.r, rg.correlation.n, rs_.correlation.r, rs_.correlation.n
                )
            except ValueError:
                pass  # fewer than 4 players in a report, or |r| = 1: no Fisher test
            else:
                comparison.update(
                    {
                        "greedy_r": rg.correlation.r,
                        "shapley_r": rs_.correlation.r,
                        "fisher_z": z,
                        "p_value": p,
                    }
                )

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
