"""fairbandit benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a checkout,
against the checkout's own ``src/fairbandit``. The seed generates the
workload's inputs; the same seed gives the same inputs.

* ``--trace 0`` measures the end-to-end metrics with no tracing: the
  workload's throughput in its fastest operation, the peak resident
  memory of this process, and the set-up time (median of several cold
  set-ups, each in a fresh interpreter, spread over the run).

  Throughput is taken from the fastest operation (for a workload whose
  operation makes several independent calls, from the sum of each
  call's fastest time), not the median one, because the host is shared:
  neighbours slow every operation of a stretch of several seconds,
  sometimes a whole run, by up to 1.8x, and they can only slow an
  operation down. The median and tail of all operations are printed
  beside it.
* ``--trace 1`` measures the per-layer metrics of ``BENCHMARK.json``
  from spans recorded around fairbandit's public functions, alternating
  traced and untraced operations to report the tracing overhead. The
  spans are written to ``.bench_work/traces/<workload>.tsv``.

Every operation's output is checked outside the timed region. Human
readable lines go first; the last line of standard output is the JSON
result. Everything the run writes stays under ``.bench_work/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import Spans, round_metrics, span_table
from spans import Tracer
from workloads import WORKLOADS, Checked, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 21
MIN_OPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: reference.json's default_seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def describe(values, unit: str) -> str:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    text = f"median {med:.6g} {unit}, n={n}"
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", q1 {q1:.6g}, q3 {q3:.6g}"
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            tail = sorted(values)[min(n - 1, int(n * pct / 100))]
            return text + f", p{pct} {tail:.6g}"
    return text + f", max {max(values):.6g}"


class Run:
    """One benchmark run: the workload, its reference and the op tally."""

    def __init__(self, workload, reference):
        self.w = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.k = 0

    def op(self, serial=False, tracer: Tracer | None = None) -> tuple[float, Checked]:
        """One timed call and its check; returns (wall seconds, check)."""
        self.k += 1
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                payload = self.w.call(self.k, serial)
                wall = time.perf_counter() - start
            else:
                tracer.run_id = f"op{self.k}" + ("-serial" if serial else "")
                with tracer.installed(), tracer.span("bench.op"):
                    payload = self.w.call(self.k, serial)
                    wall = time.perf_counter() - start
            checked = self.w.verify(payload, self.reference)
            del payload
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            wall = time.perf_counter() - start
            checked = Checked(self.w.items, ["operation raised"])
        self.attempted += self.w.items
        self.failed += checked.failed
        self.problems += checked.problems
        if checked.digest:
            self.digests.add(checked.digest)
        return wall, checked

    def check_digests(self) -> None:
        # Every operation of a run reads the same inputs, so all of them,
        # traced or not and at any job count, must produce the same bytes.
        if len(self.digests) > 1:
            self.problems.append(f"outputs differ between operations: {sorted(self.digests)}")
            self.failed = self.attempted

    def absorb(self, other: "Run") -> None:
        """Add the tally of a run of another form of the same workload."""
        other.check_digests()
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        for digest in sorted(other.digests):
            print(f"sha256 of the timed form's {other.w.digest_of}: {digest}")

    def result(self, metrics: dict) -> dict:
        self.check_digests()
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def setup_time(workload: str, probe_args: list[str]) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, *probe_args]
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def untraced(run: Run, seconds: float, probe_args, bench: dict, work: Path, seed: int) -> dict:
    w = timed = run.w
    if hasattr(w, "timed_form"):
        # The workload's own operation runs once, for its peak memory and
        # its reference values; the throughput comes from the timed form.
        wall, _ = run.op()
        print(f"one operation of the workload's own form: {w.items / wall:.6g} {w.unit}/s")
        timed = w.timed_form()
        (work / "timed").mkdir()
        timed.prepare(work / "timed", seed)
        timed.load()
    timed_run = run if timed is w else Run(timed, None)
    setup, rates, best = [], [], None
    start = time.perf_counter()
    deadline = start + seconds
    while len(rates) < MIN_OPS or time.perf_counter() < deadline:
        # Set-up probes run between operations, in step with the clock, so
        # that their median samples the whole run rather than one stretch.
        elapsed = (time.perf_counter() - start) / seconds
        while len(setup) < SETUP_PROBES and len(setup) <= elapsed * SETUP_PROBES:
            setup.append(setup_time(w.name, probe_args))
        wall, _ = timed_run.op()
        rates.append(timed.items / wall)
        parts = getattr(timed, "part_times", None) or [wall]
        best = parts if best is None else [min(a, b) for a, b in zip(best, parts)]
    if timed_run is not run:
        run.absorb(timed_run)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(w.name, probe_args))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    values = {
        "items_per_s": timed.items / sum(best),
        "peak_rss_mb": self_rss,
        "setup_s": statistics.median(setup),
    }
    print(
        f"items_per_s ({w.unit}_per_s): fastest {values['items_per_s']:.6g} 1/s"
        + (f" (sum of the fastest time of each of {len(best)} parts)" if len(best) > 1 else "")
        + f"; all ops {describe(rates, '1/s')} over {timed.items} {w.unit} per op"
    )
    print(
        f"peak_rss_mb: {self_rss:.1f} MB in this process; children max {children_rss:.1f} MB"
        " (set-up probes, corpus generator, pool workers)"
    )
    print(f"setup_s: {describe(setup, 's')} cold set-ups")
    print(f"error_rate: {run.failed / run.attempted:.6g} ({run.failed} failed of {run.attempted} {w.unit})")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}


def traced(run: Run, seconds: float, bench: dict) -> dict:
    w = run.w
    deadline = time.perf_counter() + seconds
    jobs = getattr(w, "jobs", 1)
    counter = Tracer("count")
    run.op(serial=True, tracer=counter)
    counts = counter.counts

    tracer = Tracer("span")
    rounds, samples = [], {}
    first_tables = None
    while not rounds or time.perf_counter() < deadline:
        wall_plain, _ = run.op()
        pools_before = tracer.counts["experiment.pools_started"]
        mark = len(tracer.spans)
        wall_traced, checked = run.op(tracer=tracer)
        main = Spans(tracer.spans[mark:])
        serial = main
        if jobs > 1:
            mark_serial = len(tracer.spans)
            run.op(serial=True, tracer=tracer)
            serial = Spans(tracer.spans[mark_serial:])
        op = {
            "checked": checked,
            "pools": tracer.counts["experiment.pools_started"] - pools_before,
            "jobs": jobs,
            "overhead_frac": (wall_traced - wall_plain) / wall_plain,
        }
        values, round_samples = round_metrics(main, serial, counts, w.items, op)
        rounds.append(values)
        for name, xs in round_samples.items():
            samples.setdefault(name, []).extend(xs)
        if first_tables is None:
            first_tables = [("traced call", main)] + ([("jobs-1 call", serial)] if jobs > 1 else [])

    trace_dir = WORK_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{w.name}.tsv"
    tracer.write_tsv(trace_path)

    for label, spans in first_tables:
        print(f"spans of the first {label}: name, calls, total s, self s")
        for name, calls, total, self_s in span_table(spans):
            print(f"  {name:32} {calls:8d} {total:10.4f} {self_s:10.4f}")
    result = {}
    for metric in bench["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        value = statistics.median(r[name] for r in rounds)
        result[name] = {"value": value, "unit": unit}
        detail = f" [calls of all rounds: {describe(samples[name], unit)}]" if samples.get(name) else ""
        print(f"{name} = {value:.6g} {unit}{detail}")
    print(f"traced rounds: {len(rounds)}; spans written to {trace_path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairbandit" / "__init__.py").is_file():
        print(f"benchmark: no fairbandit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fairbandit

    if Path(fairbandit.__file__).resolve().parent != (SRC / "fairbandit").resolve():
        print(f"benchmark: imported fairbandit from {fairbandit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = load_reference()
    seed = reference["default_seed"] if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]()
    # Stored reference values exist for the default seed only.
    ref = reference["summaries"].get(args.workload) if seed == reference["default_seed"] else None

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe_args = workload.prepare(work, seed)
        workload.load()
        run = Run(workload, ref)
        print(f"workload {args.workload} seed {seed} trace {args.trace} seconds {args.seconds:g}")
        print(
            f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
            f" platform={platform.platform()}"
        )
        if args.trace:
            metrics = traced(run, args.seconds, bench)
        else:
            metrics = untraced(run, args.seconds, probe_args, bench, work, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for digest in sorted(run.digests):
        print(f"sha256 of the {workload.digest_of}: {digest}")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
