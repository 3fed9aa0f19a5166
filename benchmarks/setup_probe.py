"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing fairbandit and loading the workload's generated
inputs through the program's own loaders. Prints the seconds taken.

    python3 benchmarks/setup_probe.py SRC_DIR WORKLOAD INPUT...
"""
import sys
import time


def main() -> None:
    src, workload, *inputs = sys.argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    if workload in ("protocol-artifacts", "analyze-logs"):
        from fairbandit import cli
    if workload == "exact-attribution":
        from fairbandit.shapley import load_characteristic

        for path in inputs:
            load_characteristic(path)
    elif workload == "analyze-logs":
        cli.build_parser().parse_args(["analyze", *inputs])
    else:
        from fairbandit.experiment import ExperimentSpec

        ExperimentSpec.from_json(inputs[0])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
