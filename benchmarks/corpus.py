"""Generate the analyze-logs corpus and its in-memory reference report.

Runs each condition of the conflict-cohort spec at the given base seed,
writes every study's log as ``<condition>_rep_<k>.csv`` and writes
``expected.json``: the disparity report of the same logs computed in
memory. It runs as a child of ``run.py`` so that the logs it holds stay
out of the benchmark process's peak memory.

    python3 benchmarks/corpus.py --seed 0 --replications 300 --out DIR
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fairbandit.analysis import disparity_report  # noqa: E402
from fairbandit.experiment import ExperimentSpec, replication_seeds, run_condition  # noqa: E402
from fairbandit.simworld import write_log_csv  # noqa: E402
from workloads import CONFLICT_PLAYERS, INTERVENTION_START, spec_doc  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--replications", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    spec = ExperimentSpec.from_dict(
        spec_doc("conflict-cohort", CONFLICT_PLAYERS, args.replications, args.seed, False)
    )
    seeds = replication_seeds(spec)
    logs = []
    for config in spec.conditions:
        for k, log in enumerate(run_condition(config, seeds)):
            log.name = f"{config.condition.value}_rep_{k:04d}"
            log.decisions = []
            write_log_csv(log, args.out / f"{log.name}.csv")
            logs.append(log)
    report = disparity_report(logs, INTERVENTION_START)
    expected = {
        "n": report.correlation.n,
        "pearson_r": report.correlation.r,
        "mean_signed_disparity": report.mean_signed_disparity,
        "mean_abs_disparity": report.mean_abs_disparity,
        "rows": [
            [m.player, m.disparity, m.miss_likelihood, m.effort, m.net_top_treatment]
            for m in report.rows
        ],
    }
    (args.out / "expected.json").write_text(json.dumps(expected))


if __name__ == "__main__":
    main()
