"""Golden artifact digests: the sha256 of every file of two fixed runs.

A change to any artifact byte fails here, so a refactor that claims to
preserve behaviour has to preserve these digests, and a change that
moves an artifact on purpose has to update `golden_digests.json` and
declare why. Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

The digests were recorded with CPython 3.11.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fairbandit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"

RUNS = {
    "conflict-cohort-3x5": ["--scenario", "conflict-cohort", "--replications", "5"],
    "study-protocol-3x3": ["--scenario", "study-protocol", "--replications", "3"],
}


def run_digests(args, out: Path) -> dict[str, str]:
    assert main(["run", *args, "--out", str(out)]) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_artifact_digests_match_golden(run, tmp_path):
    want = json.loads(GOLDEN.read_text())[run]
    got = run_digests(RUNS[run], tmp_path / run)
    assert sorted(got) == sorted(want)
    changed = sorted(path for path in want if got[path] != want[path])
    assert not changed, f"{len(changed)} artifact(s) changed, first {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {run: run_digests(args, Path(tmp) / run) for run, args in RUNS.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
