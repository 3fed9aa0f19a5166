"""The benchmark's tracer patches fairbandit functions by module and name.

`benchmarks/spans.py` looks each name up in its module's namespace; a
name that a refactor removes or renames makes every traced benchmark
operation fail. This test resolves every name it lists, and every name
that a benchmark file imports from a fairbandit module.
"""
import ast
import contextlib
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


def benchmark_imports():
    """(file, module, name) for each `from fairbandit... import name` in
    `benchmarks/*.py`, including the imports inside functions."""
    for path in sorted(SPANS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fairbandit":
                for alias in node.names:
                    yield path.name, node.module, alias.name


@pytest.mark.parametrize("file, module_name, name", sorted(set(benchmark_imports())))
def test_benchmark_import_is_bound(file, module_name, name):
    module = importlib.import_module(module_name)
    if name not in module.__dict__ and hasattr(module, "__path__"):
        with contextlib.suppress(ModuleNotFoundError):  # `from package import submodule`
            importlib.import_module(f"{module_name}.{name}")
    assert name in module.__dict__, f"{file} imports {name} from {module_name}, which does not bind it"


def test_pool_class_is_bound():
    experiment = importlib.import_module("fairbandit.experiment")
    assert "ProcessPoolExecutor" in experiment.__dict__


def test_attributes_the_output_checks_read_exist(tmp_path):
    """`benchmarks/workloads.py` checks each workload's output, outside the
    timed region, through a study log's `rows` (and these row fields) and
    `final_sum_sd`, and through an in-memory run's `logs`,
    `condition_summaries`, `comparison` and `summary()`. A refactor that
    drops one fails every operation of the workload."""
    from fairbandit.experiment import run_experiment
    from fairbandit.scenarios import load_scenario
    from fairbandit.simworld import run_study

    spec = load_scenario("conflict-cohort", replications=2)
    result = run_experiment(spec, tmp_path / "unused", jobs=1, write_artifacts=False)
    assert not (tmp_path / "unused").exists()
    names = [c.condition.value for c in spec.conditions]
    assert [row["condition"] for row in result.condition_summaries] == names
    for row in result.condition_summaries:
        assert {"mean_sum_sd", "miss_rate", "disparity_miss_r"} <= set(row)
    assert set(result.logs) == set(names)
    logs = [run_study(spec.conditions[0])] + [log for cond in names for log in result.logs[cond]]
    row_fields = ("day", "player", "steps", "missed", "arm", "best_arm", "worst_arm")
    for log in logs:
        assert log.rows
        assert all(hasattr(row, name) for row in log.rows for name in row_fields)
        assert log.final_sum_sd is None or isinstance(log.final_sum_sd, float)
    assert result.comparison is None or isinstance(result.comparison, dict)
    summary = result.summary()
    assert summary["conditions"] == result.condition_summaries
    assert summary["greedy_vs_shapley"] == result.comparison
