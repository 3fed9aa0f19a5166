"""Spans and counters recorded from outside fairbandit.

The tracer replaces public functions in fairbandit's module namespaces
with thin wrappers for the duration of a ``with tracer.installed():``
block and restores the originals afterwards. A function is patched in
every namespace that calls it by name (``from .x import y`` binds a
second name), so the wrappers see the calls the program makes between
its own modules.

Two modes keep measurement and counting apart:

* ``span`` records one span per wrapped call: name, start, end, parent
  span id and run id, plus a few attributes taken from the arguments or
  the result. Spans stay in memory until ``write_tsv``.
* ``count`` records no spans. It counts wrapped calls and additionally
  hooks the per-evaluation functions (random draws, characteristic
  function evaluations, per-log metric helpers), whose call rates are too
  high to time without distorting the spans.

Work done in pool worker processes is invisible to both modes: the
wrappers run in the forked worker and their records stay there.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter_ns

# span record fields
ID, PARENT, RUN, NAME, START, END, ATTR, INFO, ERROR = range(9)


def _n_players(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["coalition"])


def _condition(args, kwargs):
    return args[0].condition.value


def _first_arg(args, kwargs):
    return str(args[0])


def _subcommand(args, kwargs):
    return args[0][0]


def _study_info(log):
    return (len(log.rows), sum(1 for row in log.rows if row.missed))


def _explored(decision):
    return decision.mode.value == "explore"


def _report_players(report):
    return len(report.rows)


def _suite_info(result):
    return (result.trials, len(result.failures))


# (module, attribute, span name, attribute from arguments, info from result)
TARGETS = [
    ("fairbandit.cli", "main", "cli.main", _subcommand, None),
    ("fairbandit.cli", "run_experiment", "experiment.run_experiment", None, None),
    ("fairbandit.experiment", "run_experiment", "experiment.run_experiment", None, None),
    ("fairbandit.experiment", "run_condition", "experiment.run_condition", None, None),
    ("fairbandit.experiment", "batch_median_r", "experiment.batch_median_r", None, None),
    ("fairbandit.experiment", "run_study", "simworld.run_study", _condition, _study_info),
    ("fairbandit.experiment", "write_log_csv", "simworld.write_log_csv", None, None),
    ("fairbandit.experiment", "write_log_summary", "simworld.write_log_summary", None, None),
    ("fairbandit.experiment", "write_decisions_jsonl", "bandit.write_decisions_jsonl", None, None),
    ("fairbandit.experiment", "disparity_report", "analysis.disparity_report", None, _report_players),
    ("fairbandit.cli", "disparity_report", "analysis.disparity_report", None, _report_players),
    ("fairbandit.experiment", "write_report_csv", "analysis.write_report_csv", None, None),
    ("fairbandit.cli", "write_report_csv", "analysis.write_report_csv", None, None),
    ("fairbandit.cli", "read_log_csv", "simworld.read_log_csv", _first_arg, None),
    ("fairbandit.simworld", "shapley_update", "bandit.shapley_update", None, None),
    ("fairbandit.simworld", "greedy_select", "bandit.select.greedy", None, None),
    ("fairbandit.simworld", "shapley_select", "bandit.select.shapley", None, _explored),
    ("fairbandit.simworld", "random_select", "bandit.select.random", None, None),
    ("fairbandit.bandit", "shapley_all", "shapley.all", _n_players, None),
    ("fairbandit.shapley", "shapley_all", "shapley.all", _n_players, None),
    ("fairbandit.verification", "shapley_all", "shapley.all", _n_players, None),
    ("fairbandit.verification", "check_axioms", "shapley.check_axioms", None, None),
    ("fairbandit.verification", "shapley_oracle_permutations", "shapley.oracle", None, None),
    ("fairbandit.verification", "run_axiom_suite", "verification.axiom_suite", None, _suite_info),
]

# Per-log metric helpers that the analysis rescans call once per player.
METRIC_HELPERS = [
    ("fairbandit.analysis", "effort"),
    ("fairbandit.analysis", "net_top_treatment"),
    ("fairbandit.analysis", "miss_likelihood"),
    ("fairbandit.experiment", "effort"),
    ("fairbandit.experiment", "miss_likelihood"),
]


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("span", "count"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack = [0]

    @contextlib.contextmanager
    def span(self, name: str, attr=None):
        """A span opened by the benchmark itself, around a call it makes."""
        rec = self._open(name, attr)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name, attr):
        rec = [len(self.spans) + 1, self._stack[-1], self.run_id, name, 0, 0, attr, None, False]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, fn, name, attr_fn, info_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, attr_fn(args, kwargs) if attr_fn else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                self._close(rec)
            if info_fn:
                rec[INFO] = info_fn(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name, nested_counter=None):
        """Counts calls; with `nested_counter`, also credits the calls to
        that counter made while this one runs to ``<name>/<counter>``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if nested_counter is None:
                return fn(*args, **kwargs)
            before = counts[nested_counter]
            try:
                return fn(*args, **kwargs)
            finally:
                counts[f"{name}/{nested_counter}"] += counts[nested_counter] - before

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        patches = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        experiment = importlib.import_module("fairbandit.experiment")
        counts = self.counts

        class CountingPool(experiment.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counts["experiment.pools_started"] += 1
                super().__init__(*args, **kwargs)

        try:
            patch(experiment, "ProcessPoolExecutor", CountingPool)
            for module_name, attr, name, attr_fn, info_fn in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                if self.mode == "span":
                    patch(module, attr, self._span_wrapper(fn, name, attr_fn, info_fn))
                else:
                    nested = {"shapley.all": "v_evals", "simworld.run_study": "rng.u64"}.get(name)
                    patch(module, attr, self._count_wrapper(fn, name, nested))
            if self.mode == "count":
                for module_name, attr in METRIC_HELPERS:
                    module = importlib.import_module(module_name)
                    patch(module, attr, self._count_wrapper(getattr(module, attr), "analysis.metric_calls"))
                rng = importlib.import_module("fairbandit.rng")
                shapley = importlib.import_module("fairbandit.shapley")
                patch(rng.SplitMix64, "next_u64", self._count_wrapper(rng.SplitMix64.next_u64, "rng.u64"))
                patch(
                    shapley.CharacteristicFunction,
                    "__call__",
                    self._count_wrapper(shapley.CharacteristicFunction.__call__, "v_evals"),
                )
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write_tsv(self, path) -> None:
        """All spans, one per line; times are perf_counter nanoseconds."""
        with open(path, "w") as fh:
            fh.write("run\tid\tparent\tname\tstart_ns\tend_ns\tattr\terror\n")
            for rec in self.spans:
                attr = "" if rec[ATTR] is None else rec[ATTR]
                fh.write(
                    f"{rec[RUN]}\t{rec[ID]}\t{rec[PARENT]}\t{rec[NAME]}\t{rec[START]}"
                    f"\t{rec[END]}\t{attr}\t{int(rec[ERROR])}\n"
                )
