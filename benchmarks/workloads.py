"""The four benchmark workloads: generated inputs, the timed call, the checks.

Each workload has three phases:

* ``prepare(work, seed)`` writes the generated inputs under ``work`` and
  returns the arguments of the set-up probe (``setup_probe.py``);
* ``call(k, serial)`` is the timed operation; it returns what ``verify``
  needs. ``serial`` selects the jobs-1 form where the timed form uses a
  process pool, so that study-level spans stay in the traced process.
  A call that makes several independent public calls records the time
  of each in ``part_times``, so that the fastest time of each part can
  be taken on its own;
* ``verify(payload, reference)`` checks the output, outside the timed
  region, against the stored reference values when there are any, and
  returns a ``Checked`` record. Outputs stay in place until the run
  ends and removes its work directory: on a file system mounted with
  ``discard``, deleting each tree after its check slowed the operations
  that followed by a third.

A workload whose own call cannot be timed steadily many times in a run
has a ``timed_form()``, an instance whose calls give the throughput:
conflict-memory's call is sized for its memory and too long, and
protocol-artifacts' call runs a process pool and writes a file tree,
whose times drift with the host's other load (see its ``timed_form``).
The workload's own call still runs once in such a run, checked, and in
every traced run.

Operations are kept short (0.1 to 0.3 s) because the host is shared:
only with many operations in a run does the fastest of them reliably
fall in a stretch that neighbours leave alone.

``load()`` performs the set-up that ``setup_s`` times, in this process.
The CLI workloads keep nothing from it: the CLI loads its inputs again
inside every timed operation, as a user's command would.

fairbandit is imported lazily, after ``run.py`` has put the checkout's
``src`` first on ``sys.path``.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REL_TOL = 1e-9
CONDITIONS = ("control", "greedy", "shapley")
INTERVENTION_START = 10  # the CLI's and run_experiment's default window start
SUMMARY_FIELDS = ("mean_sum_sd", "miss_rate", "disparity_miss_r")

# Player parameters of the bundled conflict-cohort and study-protocol
# scenarios, copied so that a change to the bundled defaults does not
# silently change the benchmark's inputs.
CONFLICT_PLAYERS = [
    {"baseline_steps": 10600.0, "noise_sd": 1000.0, "sco": 0.9, "effect_size": 400.0,
     "adherence_intercept": -1.1, "adherence_slope": 2.0},
    {"baseline_steps": 8400.0, "noise_sd": 1000.0, "sco": -0.9, "effect_size": 1700.0,
     "adherence_intercept": -1.1, "adherence_slope": 2.0},
]
PROTOCOL_PLAYERS = [
    {"baseline_steps": 10000.0, "noise_sd": 2500.0, "sco": 0.5, "effect_size": 900.0,
     "adherence_intercept": -1.1, "adherence_slope": 1.0},
    {"baseline_steps": 8000.0, "noise_sd": 2500.0, "sco": -0.4, "effect_size": 600.0,
     "adherence_intercept": -1.1, "adherence_slope": 1.0},
]


def spec_doc(scenario: str, players, replications: int, base_seed: int, jitter: bool) -> dict:
    return {
        "scenario": scenario,
        "replications": replications,
        "base_seed": base_seed,
        "output_dir": None,
        "conditions": [
            {"condition": c, "players": players, "jitter": jitter} for c in CONDITIONS
        ],
    }


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


@dataclass
class Checked:
    """Outcome of one operation's checks."""

    failed: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    files: int = 0
    bytes_written: int = 0
    summary: dict | None = None  # per-condition values, for the reference file


def tree_digest(root: Path) -> tuple[str, list[str], int]:
    """sha256 over (relative path, file sha256) in path order, the sorted
    relative paths, and the total size in bytes."""
    paths = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    outer = hashlib.sha256()
    size = 0
    for rel in paths:
        data = (root / rel).read_bytes()
        size += len(data)
        outer.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return outer.hexdigest(), paths, size


def json_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Independent recomputation of the pooled per-condition summary values,
# from session rows (day, player, steps, missed, arm, best_arm, worst_arm).


def _percentile_rank(values):
    n = len(values)
    if n == 1:
        return [0.5]
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    pos = 0
    while pos < n:
        end = pos
        while end + 1 < n and values[order[end + 1]] == values[order[pos]]:
            end += 1
        for k in range(pos, end + 1):
            ranks[order[k]] = (pos + end) / 2.0 / (n - 1)
        pos = end + 1
    return ranks


def _pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / math.sqrt(sxx * syy)


def player_metrics(rows) -> dict:
    """(effort, net top treatment, miss likelihood) per player of one log;
    effort is None when the player attended no intervention day."""
    per: dict[int, list] = {}
    for day, player, steps, missed, arm, best, worst in rows:
        m = per.setdefault(player, [0.0, 0, 0, 0, 0])
        m[4] += 1
        m[3] += missed
        if day >= INTERVENTION_START:
            if not missed:
                m[0] += steps
                m[1] += 1
            m[2] += (arm == best) - (arm == worst)
    return {
        player: (step_sum / attended if attended else None, net, missed / sessions)
        for player, (step_sum, attended, net, missed, sessions) in sorted(per.items())
    }


def cohort_summary(logs_metrics) -> dict:
    """miss_rate, pooled disparity-vs-miss r and its player count for a
    cohort, from each log's ``player_metrics``."""
    efforts, treatments, misses, miss_rates = [], [], [], []
    for metrics in logs_metrics:
        for effort, net, miss in metrics.values():
            miss_rates.append(miss)
            if effort is not None:
                efforts.append(effort)
                treatments.append(float(net))
                misses.append(miss)
    r = None
    if len(efforts) >= 3:
        pe, pt = _percentile_rank(efforts), _percentile_rank(treatments)
        r = _pearson([a - b for a, b in zip(pe, pt)], misses)
    return {
        "miss_rate": sum(miss_rates) / len(miss_rates) if miss_rates else None,
        "disparity_miss_r": r,
        "n": len(efforts),
    }


def fisher_z(r1, n1, r2, n2):
    return (math.atanh(r1) - math.atanh(r2)) / math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))


def check_summaries(
    reported: dict, fz_reported, recomputed: dict, reference: dict | None, replications: int
) -> tuple[int, list[str]]:
    """Compare each condition's reported values with the recomputation and,
    at the default seed, with the stored reference. A condition that fails
    counts all of its studies as failed."""
    problems, bad = [], set()
    for cond in CONDITIONS:
        for key in SUMMARY_FIELDS:
            if not close(reported[cond][key], recomputed[cond][key]):
                bad.add(cond)
                problems.append(
                    f"{cond}.{key}: reported {reported[cond][key]!r}, recomputed {recomputed[cond][key]!r}"
                )
            if reference is not None and not close(reported[cond][key], reference[cond][key]):
                bad.add(cond)
                problems.append(
                    f"{cond}.{key}: reported {reported[cond][key]!r}, reference {reference[cond][key]!r}"
                )
    g, s = recomputed["greedy"], recomputed["shapley"]
    fz = fisher_z(g["disparity_miss_r"], g["n"], s["disparity_miss_r"], s["n"])
    if not close(fz_reported, fz):
        bad.update(("greedy", "shapley"))
        problems.append(f"fisher_z: reported {fz_reported!r}, recomputed {fz!r}")
    if reference is not None and not close(fz_reported, reference["fisher_z"]):
        bad.update(("greedy", "shapley"))
        problems.append(f"fisher_z: reported {fz_reported!r}, reference {reference['fisher_z']!r}")
    return len(bad) * replications, problems


def _quiet_main(argv) -> tuple[int, str]:
    from fairbandit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------


class ConflictMemory:
    """run_experiment on the conflict-cohort spec (or another), in memory, jobs 1."""

    name = "conflict-memory"
    digest_of = "summary"
    unit = "studies"

    def __init__(
        self, replications: int = 400, scenario="conflict-cohort", players=CONFLICT_PLAYERS, jitter=False
    ):
        # 3 x 400 logs held in memory: about 33 MB over a 23 MB base
        self.replications = replications
        self.scenario, self.players, self.jitter = scenario, players, jitter

    def timed_form(self) -> "ConflictMemory":
        return ConflictMemory(10, self.scenario, self.players, self.jitter)

    def prepare(self, work: Path, seed: int) -> list[str]:
        self.spec_path = work / f"{self.scenario}-spec-{self.replications}.json"
        doc = spec_doc(self.scenario, self.players, self.replications, seed, self.jitter)
        self.spec_path.write_text(json.dumps(doc, indent=2))
        self.items = len(CONDITIONS) * self.replications
        return [str(self.spec_path)]

    def load(self) -> None:
        from fairbandit.experiment import ExperimentSpec

        self.spec = ExperimentSpec.from_json(self.spec_path)

    def call(self, k: int, serial: bool):
        import fairbandit.experiment as experiment

        return experiment.run_experiment(
            self.spec, self.spec_path.parent / "unused", jobs=1, write_artifacts=False
        )

    def verify(self, result, reference: dict | None) -> Checked:
        reported, recomputed, problems = {}, {}, []
        for row in result.condition_summaries:
            reported[row["condition"]] = row
        failed = 0
        for cond in CONDITIONS:
            logs = result.logs[cond]
            if len(logs) != self.replications:
                problems.append(f"{cond}: {len(logs)} logs, expected {self.replications}")
                failed += self.replications
            metrics = (
                player_metrics(
                    (r.day, r.player, r.steps, r.missed, r.arm, r.best_arm, r.worst_arm) for r in log.rows
                )
                for log in logs
            )
            sds = [log.final_sum_sd for log in logs if log.final_sum_sd is not None]
            recomputed[cond] = cohort_summary(metrics) | {"mean_sum_sd": sum(sds) / len(sds)}
        more, why = check_summaries(
            reported, (result.comparison or {}).get("fisher_z"), recomputed, reference, self.replications
        )
        summary = result.summary()
        return Checked(
            failed=min(self.items, failed + more),
            problems=problems + why,
            digest=json_digest(summary),
            summary=reference_values(summary),
        )


def reference_values(summary: dict) -> dict:
    values = {
        row["condition"]: {key: row[key] for key in SUMMARY_FIELDS} for row in summary["conditions"]
    }
    values["fisher_z"] = (summary["greedy_vs_shapley"] or {}).get("fisher_z")
    return values


class ProtocolArtifacts:
    """`fairbandit run --spec <study-protocol spec> --jobs 2`, full artifact tree."""

    name = "protocol-artifacts"
    digest_of = "artifact tree"
    unit = "studies"
    replications = 20

    def __init__(self, jobs: int = 2):
        self.jobs = jobs

    def timed_form(self) -> ConflictMemory:
        # Neither the pool nor the tree can be timed steadily on a shared
        # two-CPU host: the fastest jobs-2 operation of a run moved by 20%
        # between inputs timed side by side, and creating the tree's files
        # on a disk that other processes also write and delete on drifted by
        # 40% over minutes even at jobs 1. The throughput is taken from the
        # same spec run in memory at jobs 1; the pool and the writes are
        # measured per layer.
        return ConflictMemory(10, "study-protocol", PROTOCOL_PLAYERS, jitter=True)

    def prepare(self, work: Path, seed: int) -> list[str]:
        self.work = work
        self.spec_path = work / "protocol-spec.json"
        doc = spec_doc("study-protocol", PROTOCOL_PLAYERS, self.replications, seed, True)
        self.spec_path.write_text(json.dumps(doc, indent=2))
        self.items = len(CONDITIONS) * self.replications
        return [str(self.spec_path)]

    def load(self) -> None:
        from fairbandit.experiment import ExperimentSpec

        ExperimentSpec.from_json(self.spec_path)

    def call(self, k: int, serial: bool):
        out = self.work / f"out-{k}"
        jobs = 1 if serial else self.jobs
        code, text = _quiet_main(
            ["run", "--spec", str(self.spec_path), "--jobs", str(jobs), "--out", str(out)]
        )
        return out, code, text

    def verify(self, payload, reference: dict | None) -> Checked:
        out, code, text = payload
        if code != 0 or "artifacts written to" not in text:
            return Checked(self.items, [f"run exited {code}: {text[-200:]!r}"])
        digest, paths, size = tree_digest(out)
        manifest = json.loads((out / "manifest.json").read_text())
        if sorted(manifest["files"]) != paths:
            extra = sorted(set(paths) - set(manifest["files"]))
            missing = sorted(set(manifest["files"]) - set(paths))
            problem = f"manifest differs from tree: unlisted {extra[:5]}, missing {missing[:5]}"
            return Checked(self.items, [problem], digest, len(paths), size)
        problems = []
        summary = json.loads((out / "summary.json").read_text())
        reported = {row["condition"]: row for row in summary["conditions"]}
        recomputed, failed = {}, 0
        for cond in CONDITIONS:
            logs_metrics, sds = [], []
            for k in range(self.replications):
                rep = out / cond / f"rep_{k:04d}"
                try:
                    logs_metrics.append(player_metrics(read_rows(rep / "log.csv")))
                    sd = json.loads((rep / "summary.json").read_text())["final_sum_sd"]
                except (OSError, ValueError, KeyError) as exc:
                    problems.append(f"{cond}/rep_{k:04d}: {exc}")
                    failed += 1
                    continue
                if sd is not None:
                    sds.append(sd)
            recomputed[cond] = cohort_summary(logs_metrics) | {
                "mean_sum_sd": sum(sds) / len(sds) if sds else None
            }
            report = json.loads((out / cond / "report.json").read_text())
            if not close(report["pearson_r"], reported[cond]["disparity_miss_r"]):
                problems.append(f"{cond}: report.json r differs from summary.json")
                failed += self.replications
        more, why = check_summaries(
            reported, (summary["greedy_vs_shapley"] or {}).get("fisher_z"),
            recomputed, reference, self.replications,
        )
        return Checked(
            failed=min(self.items, failed + more),
            problems=problems + why,
            digest=digest,
            files=len(paths),
            bytes_written=size,
            summary=reference_values(summary),
        )


def read_rows(path: Path):
    """Session rows of a log CSV, parsed with the csv module alone."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            (
                int(rec["day"]),
                int(rec["player"]),
                float(rec["steps"]) if rec["steps"] else None,
                rec["missed"] == "1",
                rec["arm"],
                rec["best_arm"],
                rec["worst_arm"],
            )
            for rec in reader
        ]


class AnalyzeLogs:
    """`fairbandit analyze` over a generated corpus of log CSVs."""

    name = "analyze-logs"
    digest_of = "report files"
    unit = "logs"
    replications = 50  # per condition; the corpus holds 3 x 50 logs

    def prepare(self, work: Path, seed: int) -> list[str]:
        self.work = work
        corpus = work / "corpus"
        # The corpus and the in-memory reference report are made in a child
        # process, so that the logs it holds do not count in this process's
        # peak memory.
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "corpus.py"), "--seed", str(seed),
             "--replications", str(self.replications), "--out", str(corpus)],
            check=True,
        )
        self.paths = sorted(str(p) for p in corpus.glob("*.csv"))
        self.expected = json.loads((corpus / "expected.json").read_text())
        per_log = {Path(p).stem: player_metrics(read_rows(Path(p))) for p in self.paths}
        self.recomputed = cohort_summary(per_log.values())
        self.recomputed_rows = {
            f"{stem}:p{player}": values
            for stem, metrics in per_log.items()
            for player, values in metrics.items()
            if values[0] is not None
        }
        self.items = len(self.paths)
        return self.paths

    def load(self) -> None:
        from fairbandit import cli

        cli.build_parser().parse_args(["analyze", *self.paths])

    def call(self, k: int, serial: bool):
        out = self.work / f"out-{k}"
        code, text = _quiet_main(["analyze", *self.paths, "--out", str(out)])
        return out, code, text

    def verify(self, payload, reference) -> Checked:
        out, code, text = payload
        if code != 0 or "report written to" not in text:
            return Checked(self.items, [f"analyze exited {code}: {text[-200:]!r}"])
        digest, paths, size = tree_digest(out)
        return self._compare(out, digest, len(paths), size)

    def _compare(self, out: Path, digest: str, files: int, size: int) -> Checked:
        want = self.expected
        got = json.loads((out / "report.json").read_text())
        problems = [
            f"report.json {key}: {got.get(key)!r} != {want[key]!r}"
            for key in ("n", "pearson_r", "mean_signed_disparity", "mean_abs_disparity")
            if not close(got.get(key), want[key])
        ]
        problems += [
            f"report.json {key}: {got.get(key)!r}, recomputed {self.recomputed[name]!r}"
            for key, name in (("n", "n"), ("pearson_r", "disparity_miss_r"))
            if not close(got.get(key), self.recomputed[name])
        ]
        if problems:
            return Checked(self.items, problems, digest, files, size)
        with open(out / "report.csv", newline="") as fh:
            got_rows = {
                rec["player"]: (float(rec["disparity"]), float(rec["miss_likelihood"]),
                                float(rec["effort"]), int(rec["treatment"]))
                for rec in csv.DictReader(fh)
            }
        bad_logs = set()
        for label, disparity, miss, effort, treatment in want["rows"]:
            row = got_rows.pop(label, None)
            own = self.recomputed_rows.get(label)
            if row is None or own is None or not (
                close(row[0], disparity) and close(row[1], miss)
                and close(row[2], effort) and row[3] == treatment
                and close(row[2], own[0]) and row[3] == own[1] and close(row[1], own[2])
            ):
                bad_logs.add(label.rsplit(":", 1)[0])
        bad_logs.update(label.rsplit(":", 1)[0] for label in got_rows)
        if bad_logs:
            problems.append(f"{len(bad_logs)} log(s) with report rows unlike the reference")
        return Checked(len(bad_logs), problems, digest, files, size)


class ExactAttribution:
    """Exact Shapley values of generated table games at n = 8..12, and the
    axiom suite at max_n = 8 with one trial of each size 2..8."""

    name = "exact-attribution"
    digest_of = "attributions and axiom verdicts"
    unit = "games"
    game_sizes = (8, 9, 10, 11, 12)
    trial_sizes = tuple(range(2, 9))
    max_n = 8

    def prepare(self, work: Path, seed: int) -> list[str]:
        from fairbandit.rng import SplitMix64

        rng = random.Random(seed)
        self.game_paths, self.grand_values = [], []
        for n in self.game_sizes:
            values = {}
            for mask in range(1, 1 << n):
                key = ",".join(str(i) for i in range(n) if mask >> i & 1)
                values[key] = rng.uniform(-100.0, 100.0)
            path = work / f"game-n{n}.json"
            path.write_text(json.dumps({"players": n, "values": values}))
            self.game_paths.append(str(path))
            self.grand_values.append(values[",".join(str(i) for i in range(n))])
        # run_axiom_suite draws each trial's size as 2 + randrange(max_n - 1)
        # from its seed. One single-trial suite per size, with a seed whose
        # first draw gives that size, fixes the mix of sizes across seeds.
        self.trial_seeds = {}
        while len(self.trial_seeds) < len(self.trial_sizes):
            candidate = rng.getrandbits(32)
            n = 2 + SplitMix64(candidate).randrange(self.max_n - 1)
            self.trial_seeds.setdefault(n, candidate)
        self.items = len(self.game_sizes) + len(self.trial_sizes)
        return self.game_paths

    def load(self) -> None:
        from fairbandit.shapley import Coalition, load_characteristic

        self.games = [load_characteristic(p) for p in self.game_paths]
        self.coalitions = [Coalition.of_size(n) for n in self.game_sizes]

    def call(self, k: int, serial: bool):
        import fairbandit.shapley as shapley
        import fairbandit.verification as verification

        phis, suites, times = [], [], []
        for v, c in zip(self.games, self.coalitions):
            start = time.perf_counter()
            phis.append(shapley.shapley_all(v, c))
            times.append(time.perf_counter() - start)
        for n in self.trial_sizes:
            start = time.perf_counter()
            suites.append(
                verification.run_axiom_suite(trials=1, max_n=self.max_n, seed=self.trial_seeds[n])
            )
            times.append(time.perf_counter() - start)
        self.part_times = times  # left as it was if a call raises
        return phis, suites

    def verify(self, payload, reference) -> Checked:
        phis, suites = payload
        problems = []
        for n, phi, grand in zip(self.game_sizes, phis, self.grand_values):
            if len(phi) != n or not close(sum(phi), grand):
                problems.append(f"n={n}: efficiency fails, sum {sum(phi)!r} vs v(N) {grand!r}")
        for n, suite in zip(self.trial_sizes, suites):
            if suite.trials != 1 or not suite.passed:
                problems.append(f"axiom trial n={n}: {suite.failures or suite.trials}")
        digest = json_digest([phis, [s.passed for s in suites]])
        return Checked(len(problems), problems, digest)


WORKLOADS = {w.name: w for w in (ConflictMemory, ProtocolArtifacts, AnalyzeLogs, ExactAttribution)}
