"""Regenerate the stored summary values in reference.json.

    python3 benchmarks/make_reference.py

Runs each simulation workload once at the default seed and stores its
per-condition mean_sum_sd, miss_rate and disparity_miss_r and the
greedy-vs-shapley fisher_z. At the default seed, every run of the
benchmark checks the program's output against them to a relative 1e-9.
Regenerate only when a workload's inputs change, never to absorb a
change in the program's output.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import ConflictMemory, ProtocolArtifacts, load_reference  # noqa: E402


def main() -> None:
    reference = load_reference()
    work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for cls in (ConflictMemory, ProtocolArtifacts):
            workload = cls()
            workload.prepare(work, reference["default_seed"])
            workload.load()
            checked = workload.verify(workload.call(0, False), None)
            if checked.failed:
                sys.exit(f"{workload.name}: output failed its checks: {checked.problems}")
            reference["summaries"][workload.name] = checked.summary
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
