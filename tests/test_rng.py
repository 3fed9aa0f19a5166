import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbandit.rng import SplitMix64

SRC = Path(__file__).resolve().parents[1] / "src"

# Reference outputs of the published splitmix64 algorithm for seed 0.
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_matches_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_OUTPUTS


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_random_in_unit_interval():
    rng = SplitMix64(5)
    for _ in range(1000):
        u = rng.random()
        assert 0.0 <= u < 1.0


def test_uniform_bounds():
    rng = SplitMix64(6)
    for _ in range(1000):
        x = rng.uniform(0.98, 1.02)
        assert 0.98 <= x <= 1.02


def test_randrange_uniformity():
    rng = SplitMix64(7)
    counts = [0, 0, 0]
    for _ in range(30000):
        counts[rng.randrange(3)] += 1
    for c in counts:
        assert abs(c / 30000 - 1 / 3) < 0.01


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_normal_moments():
    rng = SplitMix64(8)
    xs = [2.0 + 3.0 * rng.normal() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean - 2.0) < 0.1
    assert abs(math.sqrt(var) - 3.0) < 0.1


def test_normal_fixed_draw_count():
    for seed in range(20):
        a = SplitMix64(seed)
        b = SplitMix64(seed)
        for _ in range(5):
            a.normal()
            b.next_u64()
            b.next_u64()
        assert a.next_u64() == b.next_u64()


def test_normal_top_draw_is_positive_zero(monkeypatch):
    # The top 53 bits all set round u1 up to 1.0, so the deviate's
    # magnitude is 0; its sign must be +, as the golden logs were drawn.
    draws = iter([(1 << 64) - 1, 0])
    monkeypatch.setattr(SplitMix64, "next_u64", lambda self: next(draws))
    z = SplitMix64(0).normal()
    assert z == 0.0 and math.copysign(1.0, z) == 1.0


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(9))
    b = list(range(9))
    SplitMix64(11).shuffle(a)
    SplitMix64(11).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(9))


def test_spawn_streams_are_decoupled():
    base = SplitMix64(12)
    child1 = base.spawn()
    child2 = base.spawn()
    assert child1.next_u64() != child2.next_u64()


GAMMA = 0x9E3779B97F4A7C15


@pytest.mark.parametrize("count", [0, 1, 2, 3, 222, 1000])
@pytest.mark.parametrize("state", [0, 1, 2**64 - 1, -GAMMA % 2**64])
def test_block_equals_scalar_outputs(state, count):
    # At -gamma mod 2**64 the first lane's sum wraps to 0.
    block, scalar = SplitMix64(state), SplitMix64(state)
    assert block.block(count) == tuple(scalar.next_u64() for _ in range(count))
    assert block._state == scalar._state


@settings(max_examples=200, deadline=None)
@given(state=st.integers(0, 2**64 - 1), count=st.integers(0, 300))
def test_block_equals_scalar_outputs_at_any_state(state, count):
    test_block_equals_scalar_outputs(state, count)


def test_block_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        SplitMix64(0).block(-1)


def test_randrange_rejects_a_bound_over_64_bits():
    # The limit of a bound over 2**64 was 0, so randrange drew forever; a
    # child process keeps a hang from stopping the suite.
    code = "from fairbandit.rng import SplitMix64; SplitMix64(0).randrange(2**64 + 1)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1 and "ValueError: randrange() bound must be at most 2**64" in done.stderr
    assert 0 <= SplitMix64(0).randrange(2**64) < 2**64
