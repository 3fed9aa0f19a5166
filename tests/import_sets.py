"""Modules that importing a fairbandit module must not load.

The exact engine's two record types are plain classes, so `shapley`
needs neither `dataclasses` nor `inspect`. `experiment` takes its median
itself, imports `hashlib` only to write a manifest and the process pool
only to start one, and `logs` imports `locale` only to read a log, so
`experiment` loads none of `statistics` (with `decimal` and
`fractions`), `hashlib`, `concurrent.futures`, `multiprocessing` and
`locale`. The session-log format runs no study, so `logs` loads neither
the simulator, the batch runner nor the process pool. `cli` imports the
attribution checks only for the two commands that run them, and loads
the process pool only through a run that starts one.

Each import runs in a fresh interpreter, as a test process has imported
every module already. The standard library's own imports differ from
one Python version to the next, so this module runs as a script too, on
the standard library alone:

    PYTHONPATH=src python tests/import_sets.py   # exit 1 if a module loads one
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_LOADED = {
    "fairbandit.shapley": ("dataclasses", "inspect"),
    "fairbandit.experiment": (
        "statistics",
        "decimal",
        "fractions",
        "hashlib",
        "concurrent.futures",
        "multiprocessing",
        "locale",
    ),
    "fairbandit.logs": ("fairbandit.simworld", "fairbandit.experiment", "concurrent.futures"),
    "fairbandit.cli": ("fairbandit.verification", "concurrent.futures", "multiprocessing"),
}


def loaded(module: str, names) -> list[str]:
    """Which of `names` are in `sys.modules` after a fresh `import module`."""
    code = f"import sys, {module}; print(*(m for m in {tuple(names)!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def unexpected() -> dict[str, list[str]]:
    found = {module: loaded(module, names) for module, names in NOT_LOADED.items()}
    return {module: names for module, names in found.items() if names}


if __name__ == "__main__":
    found = unexpected()
    for module, names in found.items():
        print(f"import {module} loads {', '.join(names)}", file=sys.stderr)
    print(f"{sys.version.split()[0]}: {len(NOT_LOADED) - len(found)} of {len(NOT_LOADED)} import sets hold")
    sys.exit(1 if found else 0)
