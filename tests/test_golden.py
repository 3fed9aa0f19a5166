"""Golden artifact digests: the sha256 of every file of two fixed runs.

A change to any artifact byte fails here, so a refactor that claims to
preserve behaviour has to preserve these digests, and a change that
moves an artifact on purpose has to update `golden_digests.json` and
declare why. Each run is checked serially and at `--jobs 2` against
the same digests.

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


def run_digests(args, out: Path) -> dict[str, str]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", *args, "--out", str(out)]) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


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


def check() -> int:
    """Compare every run at every job count with the stored digests,
    print each file that differs, is missing or is new, and return 1 if
    any does."""
    golden = json.loads(GOLDEN.read_text())
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for jobs in JOBS:
            for run in sorted(RUNS):
                want = golden[run]
                got = run_digests([*RUNS[run], "--jobs", str(jobs)], Path(tmp) / f"{run}-{jobs}")
                changed = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
                print(f"{run} --jobs {jobs}: {len(changed)} of {len(want)} file(s) differ")
                for path in changed:
                    print(f"  {path}")
                failed = failed or bool(changed)
    return 1 if failed else 0


def write() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {run: run_digests(args, Path(tmp) / run) for run, args in RUNS.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check the golden artifact digests.")
    parser.add_argument(
        "--write", action="store_true", help=f"regenerate {GOLDEN.name} instead of checking it"
    )
    sys.exit(write() if parser.parse_args().write else check())
