"""Command-line experiment orchestrator.

Subcommands:

* ``run``             execute an experiment spec (file or bundled scenario)
* ``worked-example``  replay the strategy's reference calculation
* ``axioms``          attribution axiom suite on random games
* ``analyze``         disparity report for existing session-log CSVs
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import disparity_report, log_metrics, write_report_csv, write_report_json
from .experiment import ExperimentSpec, run_experiment
from .logs import SchemaError, read_log_csv
from .scenarios import BUNDLED, load_scenario
from .simworld import ConfigError


def _cmd_run(args) -> int:
    if bool(args.spec) == bool(args.scenario):
        print("run: provide exactly one of --spec or --scenario", file=sys.stderr)
        return 2
    try:
        spec = ExperimentSpec.from_json(args.spec) if args.spec else load_scenario(args.scenario)
        # One replace, so the spec is checked only with both overrides in.
        overrides = {"replications": args.replications, "base_seed": args.seed}
        spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    except (ConfigError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out or spec.output_dir or f"out-{spec.scenario}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        used = any(out.iterdir())
    except OSError as exc:
        print(f"run: cannot use output directory {out}: {exc.strerror}", file=sys.stderr)
        return 2
    if used:
        # Another run's files would stay beside this run's, outside its manifest.
        print(f"run: output directory {out} is not empty; give a new or empty --out", file=sys.stderr)
        return 2
    result = run_experiment(spec, out, jobs=args.jobs)
    print(f"scenario {spec.scenario}: {spec.replications} replication(s) per condition")
    for row in result.condition_summaries:
        print(
            f"  {row['condition']:>8}: steps_vs_baseline={_num(row['steps_vs_baseline'])}"
            f" post_motivation={_num(row['post_motivation_mean'])}"
            f" miss_rate={_num(row['miss_rate'])}"
            f" sum_sd={_num(row['mean_sum_sd'])}"
            f" r={_num(row['disparity_miss_r'])}"
        )
    if result.comparison and "fisher_z" in result.comparison:
        print(
            f"  greedy vs shapley: z={result.comparison['fisher_z']:.3f}"
            f" p={result.comparison['p_value']:.4f}"
        )
    print(f"artifacts written to {out}")
    return 0


def _num(x) -> str:
    return "n/a" if x is None else f"{x:.3f}"


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _cmd_worked_example(args) -> int:
    from .verification import verify_worked_example

    result = verify_worked_example()
    for line in result.lines():
        print(line)
    print("worked example:", "PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_axioms(args) -> int:
    from .verification import run_axiom_suite

    try:
        result = run_axiom_suite(trials=args.trials, max_n=args.max_n, seed=args.seed)
    except ValueError as exc:
        print(f"axioms: {exc}", file=sys.stderr)
        return 2
    if result.warning:
        print(f"warning: {result.warning}")
    for failure in result.failures:
        print(f"[FAIL] {failure}")
    print(
        f"axiom suite: {result.trials} trial(s), "
        + ("PASS" if result.passed else f"{len(result.failures)} failure(s)")
    )
    return 0 if result.passed else 1


def _log_names(paths: list[str]) -> list[str]:
    """Each log's report label: its file stem, or, when two logs share a
    stem, its path below the logs' longest common directory without the
    suffix (`rep_0003/log`)."""
    stems = [Path(path).stem for path in paths]
    if len(set(stems)) == len(stems):
        return stems
    absolute = [os.path.abspath(path) for path in paths]
    root = os.path.commonpath([os.path.dirname(path) for path in absolute])
    return [os.path.splitext(os.path.relpath(path, root))[0] for path in absolute]


def _cmd_analyze(args) -> int:
    seen = set()
    for path in args.logs:
        try:
            stat = os.stat(path)
        except OSError:
            continue  # reading it below names the error
        key = (stat.st_dev, stat.st_ino)
        if key in seen:
            print(f"analyze: {path}: given twice", file=sys.stderr)
            return 2
        seen.add(key)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"analyze: cannot create output directory {out}: {exc.strerror}", file=sys.stderr)
        return 2
    # Each log is tallied as it is read and dropped before the next, so
    # the rows of one log at most are held at a time.
    names = _log_names(args.logs)
    tallies = []
    windows = {}
    for path, name in zip(args.logs, names):
        try:
            log = read_log_csv(path, name=name)
        except (SchemaError, OSError) as exc:
            print(f"analyze: {path}: {exc}", file=sys.stderr)
            return 2
        windows[log.intervention_start] = path
        if args.intervention_start is not None:
            log = replace(log, intervention_start=args.intervention_start)
        tallies.append(log_metrics(log))
    if args.intervention_start is None and len(windows) > 1:
        (day, path), (other_day, other) = list(windows.items())[:2]
        print(f"analyze: {path} starts its window on day {day} but {other} on day {other_day};"
              " pass --intervention-start", file=sys.stderr)
        return 2
    try:
        report = disparity_report(names, tallies=tallies)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    write_report_csv(report, out / "report.csv")
    write_report_json(report, out / "report.json")
    print(
        f"{report.correlation.n} players, disparity-vs-miss r={report.correlation.r:.4f}"
        f" (fisher z={report.correlation.fisher_z:.4f})"
    )
    print(f"report written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairbandit",
        description="Fairness-aware bandit experiments: run studies, verify the strategy, analyze logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("--spec", help="path to an experiment spec JSON file")
    p_run.add_argument(
        "--scenario", choices=sorted(BUNDLED), help="bundled scenario name"
    )
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument(
        "--replications", type=_positive_int, default=None, help="override replication count"
    )
    p_run.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    p_run.set_defaults(fn=_cmd_run)

    p_we = sub.add_parser("worked-example", help="replay the reference calculation")
    p_we.set_defaults(fn=_cmd_worked_example)

    p_ax = sub.add_parser("axioms", help="attribution axiom suite")
    p_ax.add_argument("--trials", type=int, default=100)
    p_ax.add_argument("--max-n", type=int, default=6)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.set_defaults(fn=_cmd_axioms)

    p_an = sub.add_parser("analyze", help="disparity report from session-log CSVs")
    p_an.add_argument("logs", nargs="+", help="session-log CSV paths")
    p_an.add_argument("--out", default="analysis-out")
    p_an.add_argument("--intervention-start", type=_positive_int, default=None,
                      help="first day of the analysis window (default: the day after each log's"
                      " last forced row; logs whose windows differ are refused)")
    p_an.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
