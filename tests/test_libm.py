"""The libm results that the artifact bytes rest on.

splitmix64 makes every draw the same on every platform, but the
simulator and the analysis turn draws into floats through five libm
functions, and C does not require a libm to round them correctly. A
1-ulp difference in one of them changes the artifacts named beside it.
This test pins each function's results over 100,000 inputs from a fixed
SplitMix64 stream, in the form in which the package calls it. A failure
means the golden digests will not reproduce on this libm; it is not a
defect in the package.

Run as a script, this module needs only the standard library, and exits
1 naming each function whose results differ:

    PYTHONPATH=src python tests/test_libm.py
"""
import hashlib
import math
import struct
import sys

from fairbandit.rng import SplitMix64

INPUTS = 100_000


def _u1(rng: SplitMix64) -> float:
    """The (0, 1] uniform of `SplitMix64.normal`."""
    return (rng.next_u64() >> 11) * (2.0 ** -53) + (2.0 ** -54)


# name: (result for the next input of a stream, the artifacts that read it, sha256)
LIBM = {
    "log": (
        lambda rng: math.log(_u1(rng)),
        "every normal draw (SplitMix64.normal), so most log.csv, decisions.jsonl,"
        " summary.json and report files",
        "ef8ea7be690a35aff980ef79e59b4ccd7a3f538d27555a59e1d526c008dd411d",
    ),
    "cos": (
        lambda rng: math.cos(2.0 * math.pi * rng.random()),
        "every normal draw (SplitMix64.normal), so most log.csv, decisions.jsonl,"
        " summary.json and report files",
        "7f6e44862962be1e653687280c12ee1b6ca9e2078df400497872a3412a31ae0f",
    ),
    "atanh": (
        lambda rng: math.atanh(rng.uniform(-1.0, 1.0)),
        "the Fisher z of report.json and summary.json (analysis.fisher_z)",
        "3ab7de7e21f56f220821392db6234da7b420b9251be0c84db8db94df1bdb072b",
    ),
    "exp": (
        lambda rng: math.exp(-abs(rng.uniform(-10.0, 10.0))),
        "the miss probability (simworld.logistic), so which sessions log.csv misses",
        "913e895fa89a58350897cfc31727552e1c3fe2b9d22aa5ce5b342fc6f9b14154",
    ),
    "erf": (
        lambda rng: math.erf(rng.uniform(-10.0, 10.0) / math.sqrt(2.0)),
        "the p-values of report.json and summary.json (analysis.normal_cdf)",
        "30a566d2785083bd65839ec8c56f6b84b75b19d3ee62218e8dff3cdbdb1af68f",
    ),
}


def mismatch(name: str) -> str | None:
    """Why `math.<name>`'s results differ from the pinned ones, or None."""
    draw, artifacts, pinned = LIBM[name]
    rng = SplitMix64(0)
    values = [draw(rng) for _ in range(INPUTS)]
    if hashlib.sha256(struct.pack(f"<{INPUTS}d", *values)).hexdigest() == pinned:
        return None
    return (
        f"math.{name} rounds differently from the libm the golden digests were made on;"
        f" it feeds {artifacts}, which will not reproduce"
    )


def pytest_generate_tests(metafunc):
    # A hook rather than a mark, so that the script below runs without pytest.
    if metafunc.function is test_libm_results_are_the_pinned_ones:
        metafunc.parametrize("name", sorted(LIBM))


def test_libm_results_are_the_pinned_ones(name):
    problem = mismatch(name)
    assert problem is None, problem


if __name__ == "__main__":
    problems = [problem for problem in map(mismatch, sorted(LIBM)) if problem]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{sys.version.split()[0]}: {len(LIBM) - len(problems)} of {len(LIBM)} libm functions match")
    sys.exit(1 if problems else 0)
