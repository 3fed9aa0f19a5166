"""The benchmark's tracer patches fairbandit functions by module and name.

`benchmarks/spans.py` looks each name up in its module's namespace; a
name that a refactor removes or renames makes every traced benchmark
operation fail. This test resolves every name it lists.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
PATCHED = sorted(
    {(target[0], target[1]) for target in spans.TARGETS} | set(spans.METRIC_HELPERS)
)


@pytest.mark.parametrize("module_name, attr", PATCHED)
def test_traced_name_is_bound(module_name, attr):
    module = importlib.import_module(module_name)
    assert attr in module.__dict__, f"{module_name}.{attr} is patched by {SPANS.name} but missing"
    assert callable(module.__dict__[attr])


def test_pool_class_is_bound():
    experiment = importlib.import_module("fairbandit.experiment")
    assert "ProcessPoolExecutor" in experiment.__dict__
