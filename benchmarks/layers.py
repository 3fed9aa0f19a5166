"""Per-layer metrics from one traced round.

A round has three records:

* ``main``: spans of the workload's timed call, traced as it is measured;
* ``serial``: spans of the jobs-1 form of the call, which keeps
  study-level spans in this process (the same spans as ``main`` when the
  call uses no pool);
* ``counts``: call counts from a ``count``-mode pass of the jobs-1 form.

Times are totals per operation unless the name says per call; per-call
timings are medians, with their samples kept for the tail percentiles.
"""
from __future__ import annotations

import os
from collections import defaultdict
from statistics import median

from spans import ATTR, END, ERROR, ID, INFO, NAME, PARENT, START

WRITE_SPANS = (
    "simworld.write_log_csv",
    "bandit.write_decisions_jsonl",
    "simworld.write_log_summary",
    "analysis.write_report_csv",
)


class Spans:
    def __init__(self, records):
        self.by_name = defaultdict(list)
        self.names = {}
        self.child_ns = defaultdict(int)
        for rec in records:
            self.by_name[rec[NAME]].append(rec)
            self.names[rec[ID]] = rec[NAME]
            # children of one parent run one after another, so their
            # durations add up to the time they cover
            self.child_ns[rec[PARENT]] += rec[END] - rec[START]

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total_s(self, *names: str) -> float:
        return sum(r[END] - r[START] for n in names for r in self.by_name[n]) / 1e9

    def self_s(self, name: str) -> float:
        return sum(r[END] - r[START] - self.child_ns[r[ID]] for r in self.by_name[name]) / 1e9

    def durations(self, name: str, per_second: float, keep=None) -> list[float]:
        return [
            (r[END] - r[START]) * per_second / 1e9
            for r in self.by_name[name]
            if keep is None or keep(r)
        ]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _med(xs) -> float:
    return median(xs) if xs else 0.0


def round_metrics(main: Spans, serial: Spans, counts, count_items: int, op) -> tuple[dict, dict]:
    """Metric values of one round and the per-call samples behind the
    per-call medians. ``op`` carries the round's non-span facts:
    ``checked`` (the traced call's check), ``pools``, ``jobs``,
    ``overhead_frac``."""
    samples = {}

    def per_call(metric, spans, name, per_second, keep=None):
        samples[metric] = spans.durations(name, per_second, keep)
        return _med(samples[metric])

    def table_game(n):
        return lambda r: r[ATTR] == n and main.names.get(r[PARENT]) == "bench.op"

    m = {}
    m["shapley.all_calls"] = serial.calls("shapley.all")
    m["shapley.all_s"] = serial.total_s("shapley.all")
    m["shapley.all_us_per_call.n2"] = per_call(
        "shapley.all_us_per_call.n2", serial, "shapley.all", 1e6, lambda r: r[ATTR] == 2
    )
    m["shapley.v_evals_per_call"] = _ratio(counts["shapley.all/v_evals"], counts["shapley.all"])
    for n in (8, 10, 12):
        m[f"shapley.all_ms.n{n}"] = per_call(f"shapley.all_ms.n{n}", main, "shapley.all", 1e3, table_game(n))
    m["shapley.oracle_s"] = main.total_s("shapley.oracle")
    m["shapley.check_axioms_s"] = main.total_s("shapley.check_axioms")

    m["bandit.shapley_update_calls"] = serial.calls("bandit.shapley_update")
    m["bandit.shapley_update_s"] = serial.total_s("bandit.shapley_update")
    selects = ("bandit.select.greedy", "bandit.select.shapley", "bandit.select.random")
    for name in selects:
        m["bandit.select_calls." + name.rsplit(".", 1)[1]] = serial.calls(name)
    m["bandit.select_s"] = serial.total_s(*selects)
    shapley_selects = serial.by_name["bandit.select.shapley"]
    m["bandit.explore_ratio"] = _ratio(sum(1 for r in shapley_selects if r[INFO]), len(shapley_selects))
    m["bandit.write_decisions_jsonl_s"] = main.total_s("bandit.write_decisions_jsonl")

    studies = serial.by_name["simworld.run_study"]
    m["simworld.run_study_calls"] = len(studies)
    m["simworld.run_study_s"] = serial.total_s("simworld.run_study")
    for cond in ("control", "greedy", "shapley"):
        m[f"simworld.study_ms.{cond}"] = per_call(
            f"simworld.study_ms.{cond}", serial, "simworld.run_study", 1e3, lambda r, c=cond: r[ATTR] == c
        )
    rows = sum(r[INFO][0] for r in studies)
    m["simworld.rows"] = rows
    m["simworld.missed_ratio"] = _ratio(sum(r[INFO][1] for r in studies), rows)
    m["simworld.write_log_csv_s"] = main.total_s("simworld.write_log_csv")
    m["simworld.write_log_summary_s"] = main.total_s("simworld.write_log_summary")
    m["simworld.bytes_written"] = op["checked"].bytes_written
    m["simworld.read_log_csv_ms"] = per_call("simworld.read_log_csv_ms", main, "simworld.read_log_csv", 1e3)
    reads = main.by_name["simworld.read_log_csv"]
    m["simworld.bytes_read"] = sum(os.path.getsize(r[ATTR]) for r in reads)
    m["simworld.schema_errors"] = sum(1 for r in reads if r[ERROR])

    m["rng.u64_per_study"] = _ratio(counts["simworld.run_study/rng.u64"], counts["simworld.run_study"])

    reports = main.by_name["analysis.disparity_report"]
    m["analysis.disparity_report_s"] = main.total_s("analysis.disparity_report")
    m["analysis.cohort_players"] = max((r[INFO] for r in reports if r[INFO] is not None), default=0)
    m["analysis.metric_calls_per_log"] = _ratio(counts["analysis.metric_calls"], count_items)
    m["analysis.write_report_csv_s"] = main.total_s("analysis.write_report_csv")

    m["experiment.run_condition_s"] = main.total_s("experiment.run_condition")
    m["experiment.batch_median_r_s"] = main.total_s("experiment.batch_median_r")
    m["experiment.write_s"] = main.total_s(*WRITE_SPANS)
    m["experiment.self_s"] = main.self_s("experiment.run_experiment")
    m["experiment.files_written"] = op["checked"].files
    m["experiment.pools_started"] = op["pools"]
    m["experiment.parallel_efficiency"] = _ratio(
        m["simworld.run_study_s"], op["jobs"] * m["experiment.run_condition_s"]
    )

    cli = main.by_name["cli.main"]
    m["cli.run_s"] = sum(r[END] - r[START] for r in cli if r[ATTR] == "run") / 1e9
    m["cli.analyze_s"] = sum(r[END] - r[START] for r in cli if r[ATTR] == "analyze") / 1e9
    m["cli.self_s"] = main.self_s("cli.main")

    suites = main.by_name["verification.axiom_suite"]
    m["verification.axiom_suite_s"] = main.total_s("verification.axiom_suite")
    m["verification.trials"] = sum(r[INFO][0] for r in suites)
    m["verification.failures"] = sum(r[INFO][1] for r in suites)

    m["trace.overhead_frac"] = op["overhead_frac"]
    m["trace.covered_frac"] = 1.0 - _ratio(main.self_s("bench.op"), main.total_s("bench.op"))
    return m, samples


def span_table(spans: Spans) -> list[tuple[str, int, float, float]]:
    """(name, calls, total seconds, self seconds) per span name, by self time."""
    rows = [(name, spans.calls(name), spans.total_s(name), spans.self_s(name)) for name in spans.by_name]
    return sorted(rows, key=lambda row: -row[3])
