"""Batch experiment orchestration: replications, reports, manifest.

An experiment spec names a scenario, one study config per condition, a
replication count and a base seed. Replication k of every condition
runs with seed base_seed + k, so replications are paired across
conditions and the whole artifact tree is a pure function of the spec.
Conditions that differ only in strategy and epsilon share a seed's
world draws and forced days, taken and simulated once per seed.

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
import json
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from . import __version__, strictjson
from .analysis import (
    DisparityReport,
    PlayerTally,
    audit_sum_sd,
    correlation_diff_test,
    disparity_report,
    log_metrics,
    write_report_csv,
    write_report_json,
)
from .analysis import effort, miss_likelihood  # noqa: F401  patched by name in benchmarks/spans.py
from .bandit import _total
from .logs import StudyLog, decision_records, write_decisions_jsonl, write_log_csv, write_log_summary
from .simworld import ConfigError, StudyConfig, TEAM_SIZE, check_doc, prefix_key, run_study, study_prefix

BATCH_SIZE = 10
REP_FILES = ("log.csv", "decisions.jsonl", "summary.json")


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
            if c.seed != 0:
                raise ConfigError(f"condition {c.condition.value}: seed {c.seed} would be ignored,"
                                  " as replication k runs at base_seed + k; set base_seed")
            if terms > sys.float_info.max / c.peak_steps:
                raise ConfigError(
                    f"condition {c.condition.value}: {self.replications} replications x"
                    f" {TEAM_SIZE} players = {terms} steps_vs_baseline terms of up to"
                    f" peak_steps {c.peak_steps!r} overflow the condition's mean"
                )
        # SplitMix64 keeps a seed's low 64 bits: a seed outside them would
        # silently run another seed's studies.
        last = self.base_seed + self.replications - 1
        if not 0 <= self.base_seed <= last < 1 << 64:
            raise ConfigError(
                f"seeds base_seed {self.base_seed} to base_seed + replications - 1 = {last}"
                " must lie in [0, 2**64)"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "conditions": [c.to_dict() for c in self.conditions],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        check_doc(cls, doc, "experiment spec")
        return cls(**doc | {"conditions": tuple(StudyConfig.from_dict(c) for c in doc["conditions"])})

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read spec {path}: {exc.strerror}") from exc
        try:
            doc = strictjson.loads(text)
        except strictjson.RepeatedKeyError as exc:
            raise ConfigError(f"spec has a {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def spec_hash(self) -> str:
        import hashlib  # only a manifest needs it; importing it costs every run's start-up

        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def replication_seeds(spec: ExperimentSpec) -> list[int]:
    return [spec.base_seed + k for k in range(spec.replications)]


def _seeded(spec_config: StudyConfig, seed: int) -> StudyConfig:
    # `replace(spec_config, seed=seed)` would re-run `__post_init__`, which checks no seed.
    config = object.__new__(StudyConfig)
    config.__dict__.update(vars(spec_config), seed=seed)
    return config


def _rep_name(config: StudyConfig, k: int) -> str:
    return f"{config.condition.value}/rep_{k:04d}"


def _run_seed(configs: Sequence[StudyConfig], seed: int, k: int) -> list[StudyLog]:
    """Each config's study at `seed`, named as replication `k`
    (`<condition>/rep_NNNN`). Configs that differ only in condition and
    epsilon share one `study_prefix`: the world's draws, taken once
    (common random numbers), and the forced days, run once. A config that
    shares its prefix with no other runs in one pass, with no snapshot."""
    seeded = [_seeded(config, seed) for config in configs]
    keys = [prefix_key(config) for config in seeded]
    prefixes, logs = {}, []
    for config, key in zip(seeded, keys):
        if key not in prefixes and keys.count(key) > 1:
            prefixes[key] = study_prefix(config)
        log = run_study(config, prefix=prefixes.get(key))
        log.name = _rep_name(config, k)
        logs.append(log)
    return logs


def run_condition(config: StudyConfig, seeds: Sequence[int]) -> list[StudyLog]:
    """One log per seed, the k-th named `<condition>/rep_NNNN`."""
    return [_run_seed((config,), seed, k)[0] for k, seed in enumerate(seeds)]


@dataclass(frozen=True)
class ReplicationLogs(Sequence):
    """A condition's logs, replication k's at seed `base_seed + k` for each
    k in `reps`, as a read-only sequence that holds no log. Each access
    runs that replication's study alone and names the log
    `<condition>/rep_NNNN`: a log is a pure function of its config and
    seed, so it equals the one the experiment ran, on a shared prefix or
    not. It takes integer indices only; `list(logs)[a:b]` slices."""

    config: StudyConfig
    base_seed: int
    reps: range

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, index: int) -> StudyLog:
        if isinstance(index, slice):
            raise TypeError("ReplicationLogs takes an integer index; list(logs)[a:b] slices")
        k = self.reps[index]  # IndexError past either end
        return _run_seed((self.config,), self.base_seed + k, k)[0]


def batch_median_r(names: Sequence[str], tallies: Sequence[dict[int, PlayerTally]]) -> float | None:
    """Median disparity-vs-miss correlation over batches of replications.

    A single 2-player study cannot support a correlation, so consecutive
    replications are pooled into cohorts of `BATCH_SIZE` studies and the
    correlation is computed per cohort; batches that are degenerate
    (constant disparity or misses) are skipped. `tallies` is each log's
    `log_metrics`, in log order, and `names` the logs' names.
    """
    rs = []
    for start in range(0, len(names) - BATCH_SIZE + 1, BATCH_SIZE):
        batch = slice(start, start + BATCH_SIZE)
        try:
            rs.append(disparity_report(names[batch], tallies=tallies[batch]).correlation.r)
        except ValueError:
            continue
    return _median(rs) if rs else None


def _median(values: list[float]) -> float:
    """The median by the expression `statistics.median` uses, so its bits match."""
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _condition_summary(
    condition: str,
    tallies: Sequence[dict[int, PlayerTally]],
    report: DisparityReport | None,
    batch_r: float | None,
) -> dict:
    steps_vs_baseline = []
    miss_rates = []
    post_sum = post_count = 0
    for log_tallies in tallies:
        for tally in log_tallies.values():
            if tally.steps_vs_baseline is not None:
                steps_vs_baseline.append(tally.steps_vs_baseline)
            miss_rates.append(tally.miss_likelihood)
            post_sum += tally.post_sum
            post_count += tally.post_count
    mean = lambda xs: _total(xs) / len(xs) if xs else None
    return {
        "condition": condition,
        "replications": len(tallies),
        "steps_vs_baseline": mean(steps_vs_baseline),
        "post_motivation_mean": post_sum / post_count if post_count else None,
        "miss_rate": mean(miss_rates),
        "mean_sum_sd": mean([sd for sd in map(audit_sum_sd, tallies) if sd is not None]),
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
    logs: dict[str, ReplicationLogs]
    condition_summaries: list[dict]
    comparison: dict | None

    def summary(self) -> dict:
        return {
            "scenario": self.spec.scenario,
            "replications": self.spec.replications,
            "base_seed": self.spec.base_seed,
            "conditions": self.condition_summaries,
            "greedy_vs_shapley": self.comparison,
        }


def _paired_sum_sd(
    greedy: Sequence[dict[int, PlayerTally]], shapley: Sequence[dict[int, PlayerTally]]
) -> dict:
    sds = zip(map(audit_sum_sd, greedy), map(audit_sum_sd, shapley))
    pairs = [(g, s) for g, s in sds if g is not None and s is not None]
    lower = [s < g for g, s in pairs].count(True)
    return {
        "paired_replications": len(pairs),
        "shapley_lower_count": lower,
        "shapley_lower_fraction": lower / len(pairs) if pairs else None,
    }


class ProcessPoolExecutor:
    """`concurrent.futures.ProcessPoolExecutor`, imported when a run starts
    one: importing it loads `multiprocessing` and `logging`, which an
    in-memory, `--jobs 1` or `analyze` run never uses. The name is a class
    in this module so that a caller can put another pool in its place."""

    def __init__(self, max_workers: int):
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(max_workers)

    def map(self, fn, *iterables, chunksize: int = 1):
        return self._pool.map(fn, *iterables, chunksize=chunksize)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._pool.shutdown()  # waits for the workers, as `Executor.__exit__` does


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seed_task(
    configs: Sequence[StudyConfig], out: Path | None, seed: int, k: int
) -> list[dict[int, PlayerTally]]:
    """Each config's tallies (`log_metrics`) of replication `k` at `seed`
    (`_run_seed`), with the log's three rep files written under `out`
    unless it is None. Returns no log, so a pooled task pickles no log."""
    tallies = []
    for config, log in zip(configs, _run_seed(configs, seed, k)):
        tallies.append(log_metrics(log))
        if out is not None:
            rep_dir = out / log.name
            rep_dir.mkdir(parents=True, exist_ok=True)
            write_log_csv(log, rep_dir / "log.csv")
            records = decision_records(log, config.step_scale, config.motivation_weight)
            write_decisions_jsonl(records, rep_dir / "decisions.jsonl")
            write_log_summary(log, rep_dir / "summary.json", tallies[-1])
    return tallies


def run_experiment(
    spec: ExperimentSpec,
    out_dir,
    jobs: int = 1,
    write_artifacts: bool = True,
) -> ExperimentResult:
    """Run every condition of `spec`, analysing each log over its own
    intervention window (`StudyConfig.intervention_start`). Each seed's
    task (`_seed_task`) takes the seed's world draws and forced days once
    for the conditions that differ only in strategy and epsilon, tallies
    and writes each log, and drops it. With `jobs` > 1 the tasks run in
    one pool of at most one worker per seed and per usable CPU, in chunks
    of a quarter of a worker's share of the seeds, and send back only
    their tallies. A run that starts no pool imports no pool module
    (`ProcessPoolExecutor`). This process takes the tallies in seed order
    and writes the reports, summaries and manifest.
    `ExperimentResult.logs` runs a log again when it is read."""
    out = Path(out_dir)
    seeds = replication_seeds(spec)
    reps = range(len(seeds))
    names = [config.condition.value for config in spec.conditions]
    tallies: dict[str, list[dict[int, PlayerTally]]] = {name: [] for name in names}
    correlations = {}
    summaries: list[dict] = []

    workers = min(jobs, len(seeds), _usable_cpus())
    task = partial(_seed_task, spec.conditions, out if write_artifacts else None)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        chunked = partial(pool.map, chunksize=max(1, len(seeds) // (4 * workers))) if pool else map
        for seed_tallies in chunked(task, seeds, reps):
            for name, log_tallies in zip(names, seed_tallies):
                tallies[name].append(log_tallies)

    for config, name in zip(spec.conditions, names):
        rep_names = [_rep_name(config, k) for k in reps]
        try:
            report = disparity_report(rep_names, tallies=tallies[name])
        except ValueError:
            report = None
        batch_r = batch_median_r(rep_names, tallies[name])
        summaries.append(_condition_summary(name, tallies[name], report, batch_r))
        if report is not None:
            correlations[name] = report.correlation
            if write_artifacts:
                write_report_csv(report, out / name / "report.csv")
                write_report_json(report, out / name / "report.json")
        del report  # the comparison reads only the correlations

    comparison = None
    if "greedy" in tallies and "shapley" in tallies:
        comparison = _paired_sum_sd(tallies["greedy"], tallies["shapley"])
        rg, rs_ = correlations.get("greedy"), correlations.get("shapley")
        if rg is not None and rs_ is not None:
            try:
                z, p = correlation_diff_test(rg.r, rg.n, rs_.r, rs_.n)
            except ValueError:
                pass  # fewer than 4 players in a report, or |r| = 1: no Fisher test
            else:
                comparison.update({"greedy_r": rg.r, "shapley_r": rs_.r, "fisher_z": z, "p_value": p})

    logs = {
        name: ReplicationLogs(config, spec.base_seed, range(spec.replications))
        for config, name in zip(spec.conditions, names)
    }
    result = ExperimentResult(spec, logs, summaries, comparison)

    if write_artifacts:
        (out / "summary.json").write_text(json.dumps(result.summary(), indent=2, sort_keys=True) + "\n")
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SUMMARY_COLUMNS)
            for row in summaries:
                writer.writerow([row[c] for c in SUMMARY_COLUMNS])
        files = [f"{_rep_name(c, k)}/{f}" for c in spec.conditions for k in reps for f in REP_FILES]
        files += [f"{name}/{f}" for name in correlations for f in ("report.csv", "report.json")]
        files += ["summary.json", "summary.csv", "manifest.json"]
        manifest = {
            "spec_hash": spec.spec_hash(),
            "seeds": seeds,
            "files": sorted(files),
            "version": __version__,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return result
