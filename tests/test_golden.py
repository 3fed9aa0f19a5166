"""Golden artifact digests: the sha256 of every file of two fixed runs.

A change to any artifact byte fails here, so a refactor that claims to
preserve behaviour has to preserve these digests, and a change that
moves an artifact on purpose has to update `golden_digests.json` and
declare why. Each run is checked serially and at `--jobs 2` against
the same digests. The report that `fairbandit analyze` writes over the
15 logs of the conflict-cohort run is pinned too, once over each log's
own window and once with `--intervention-start 12`; the logs share the
file name `log.csv`, so the report labels them by their path below the
run.

Run as a script, this module needs only the standard library, so any
interpreter can check the digests:

    PYTHONPATH=src python tests/test_golden.py          # check; exit 1 on a change
    PYTHONPATH=src python tests/test_golden.py --write  # regenerate the file

The digests were recorded with CPython 3.11 and hold on 3.10, 3.12 and
3.13 too, as no artifact value is built with the builtin `sum`.
"""
import argparse
import ast
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fairbandit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SOURCE = Path(__file__).resolve().parent.parent / "src" / "fairbandit"

RUNS = {
    "conflict-cohort-3x5": ["--scenario", "conflict-cohort", "--replications", "5"],
    "study-protocol-3x3": ["--scenario", "study-protocol", "--replications", "3"],
}
JOBS = (1, 2)
# `fairbandit analyze` over every `*/rep_*/log.csv` of ANALYZED_RUN.
ANALYZED_RUN = "conflict-cohort-3x5"
ANALYSES = {
    "analyze-conflict-cohort-3x5": [],
    "analyze-conflict-cohort-3x5-start12": ["--intervention-start", "12"],
}


def tree_digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def run_digests(args, out: Path) -> dict[str, str]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", *args, "--out", str(out)]) == 0
    return tree_digests(out)


def analyze_digests(run_out: Path, flags, out: Path) -> dict[str, str]:
    logs = sorted(str(p) for p in run_out.glob("*/rep_*/log.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", *logs, *flags, "--out", str(out)]) == 0
    return tree_digests(out)


def pytest_generate_tests(metafunc):
    # A hook rather than a mark, so that the script below runs without pytest.
    if metafunc.function is test_artifact_digests_match_golden:
        cases = [(run, jobs) for jobs in JOBS for run in sorted(RUNS)]
        ids = [run if jobs == 1 else f"{run}-jobs{jobs}" for run, jobs in cases]
        metafunc.parametrize("run, jobs", cases, ids=ids)


def test_artifact_digests_match_golden(run, jobs, tmp_path):
    want = json.loads(GOLDEN.read_text())[run]
    got = run_digests([*RUNS[run], "--jobs", str(jobs)], tmp_path / run)
    assert sorted(got) == sorted(want)
    changed = sorted(path for path in want if got[path] != want[path])
    assert not changed, f"{len(changed)} artifact(s) changed, first {changed[:5]}"


def test_analyze_digests_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    run_out = tmp_path / ANALYZED_RUN
    run_digests(RUNS[ANALYZED_RUN], run_out)
    got = {
        analysis: analyze_digests(run_out, flags, tmp_path / analysis)
        for analysis, flags in ANALYSES.items()
    }
    assert got == {analysis: golden[analysis] for analysis in ANALYSES}


def test_source_reads_no_builtin_sum():
    """The builtin `sum` compensates float addition from CPython 3.12, which
    moves the last bits of artifact values. Totals are folded left to right
    from 0 instead (`bandit._total`, or a `+=` loop), so the digests hold on
    every supported version. A name `sum` read anywhere in the package, as a
    call or as a value passed on, is refused."""
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)
    ]
    assert not uses, f"builtin sum read at {uses}"


def differs(label: str, want: dict[str, str], got: dict[str, str]) -> bool:
    """Print each file that differs, is missing or is new; True if any is."""
    changed = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    print(f"{label}: {len(changed)} of {len(want)} file(s) differ")
    for path in changed:
        print(f"  {path}")
    return bool(changed)


def check() -> int:
    """Compare every run at every job count, and every analysis of the
    serial run, with the stored digests, and return 1 if any file
    differs."""
    golden = json.loads(GOLDEN.read_text())
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for jobs in JOBS:
            for run in sorted(RUNS):
                got = run_digests([*RUNS[run], "--jobs", str(jobs)], Path(tmp) / f"{run}-{jobs}")
                failed |= differs(f"{run} --jobs {jobs}", golden[run], got)
        for analysis, flags in ANALYSES.items():
            got = analyze_digests(Path(tmp) / f"{ANALYZED_RUN}-1", flags, Path(tmp) / analysis)
            failed |= differs(analysis, golden[analysis], got)
    return 1 if failed else 0


def write() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {run: run_digests(args, Path(tmp) / run) for run, args in RUNS.items()}
        digests.update(
            (analysis, analyze_digests(Path(tmp) / ANALYZED_RUN, flags, Path(tmp) / analysis))
            for analysis, flags in ANALYSES.items()
        )
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check the golden artifact digests.")
    parser.add_argument(
        "--write", action="store_true", help=f"regenerate {GOLDEN.name} instead of checking it"
    )
    sys.exit(write() if parser.parse_args().write else check())
