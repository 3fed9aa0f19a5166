"""Command-line experiment orchestrator.

Subcommands:

* ``run``             execute an experiment spec (file or bundled scenario)
* ``worked-example``  replay the strategy's reference calculation
* ``axioms``          attribution axiom suite on random games
* ``analyze``         disparity report for existing session-log CSVs
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import DEFAULT_INTERVENTION_START, disparity_report, report_summary, write_report_csv
from .experiment import ExperimentSpec, run_experiment
from .scenarios import BUNDLED, load_scenario
from .simworld import ConfigError, SchemaError, read_log_csv
from .verification import run_axiom_suite, verify_worked_example


def _cmd_run(args) -> int:
    if bool(args.spec) == bool(args.scenario):
        print("run: provide exactly one of --spec or --scenario", file=sys.stderr)
        return 2
    try:
        if args.spec:
            spec = ExperimentSpec.from_json(args.spec)
            if args.replications is not None or args.seed is not None:
                spec = ExperimentSpec(
                    scenario=spec.scenario,
                    conditions=spec.conditions,
                    replications=spec.replications if args.replications is None else args.replications,
                    base_seed=args.seed if args.seed is not None else spec.base_seed,
                    output_dir=spec.output_dir,
                )
        else:
            spec = load_scenario(args.scenario, args.replications, args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out or spec.output_dir or f"out-{spec.scenario}")
    out.mkdir(parents=True, exist_ok=True)
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


def _parse_pair(raw: str, cast):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated values")
    return tuple(cast(p) for p in parts)


def _cmd_worked_example(args) -> int:
    result = verify_worked_example(csv=args.csv, tc=args.tc, tolerance=args.tolerance)
    for line in result.lines():
        print(line)
    print("worked example:", "PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_axioms(args) -> int:
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


def _cmd_analyze(args) -> int:
    logs = []
    for path in args.logs:
        try:
            logs.append(read_log_csv(path, name=Path(path).stem))
        except (SchemaError, OSError) as exc:
            print(f"analyze: {path}: {exc}", file=sys.stderr)
            return 2
    try:
        report = disparity_report(logs, intervention_start=args.intervention_start)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out / "report.csv")
    (out / "report.json").write_text(
        json.dumps(report_summary(report), indent=2, sort_keys=True) + "\n"
    )
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
    p_we.add_argument("--tolerance", type=float, default=1e-3)
    p_we.add_argument(
        "--csv",
        type=lambda raw: _parse_pair(raw, float),
        default=(27500.0, 32800.0),
        help="per-player cumulative contribution, e.g. 27500,32800",
    )
    p_we.add_argument(
        "--tc",
        type=lambda raw: _parse_pair(raw, int),
        default=(5, 4),
        help="per-player treatment counters, e.g. 5,4",
    )
    p_we.set_defaults(fn=_cmd_worked_example)

    p_ax = sub.add_parser("axioms", help="attribution axiom suite")
    p_ax.add_argument("--trials", type=int, default=100)
    p_ax.add_argument("--max-n", type=int, default=6)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.set_defaults(fn=_cmd_axioms)

    p_an = sub.add_parser("analyze", help="disparity report from session-log CSVs")
    p_an.add_argument("logs", nargs="+", help="session-log CSV paths")
    p_an.add_argument("--out", default="analysis-out")
    p_an.add_argument("--intervention-start", type=int, default=DEFAULT_INTERVENTION_START,
                      help="first day of the analysis window (session logs carry no config)")
    p_an.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
