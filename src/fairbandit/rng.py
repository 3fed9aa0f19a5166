"""Portable seeded random number generation.

Experiment logs must be byte-identical across platforms and Python
versions, so the simulator does not use ``random.Random`` (whose
distribution methods are not guaranteed stable). Instead this module
implements splitmix64, a tiny, well-known 64-bit generator with a fixed
published algorithm, and derives every distribution from its raw output
in-repo:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Floats use the top 53 bits; ``randrange`` uses rejection sampling so
small ranges are exactly uniform; normals use Box-Muller with a fixed
draw count (two uniforms per call, no caching) so every call advances
the stream by the same amount. Each conversion is one function of the
outputs (`unit`, `gaussian`, `rejection_limit`), read by the scalar
methods and by `world_draws` alike.

``SplitMix64.block`` mixes many outputs with one big-integer operation
per step, output j in the 128-bit lane j of one integer. Each step masks
every lane to 64 bits before it multiplies by a 64-bit constant, so no
product carries into the next lane.
"""
from __future__ import annotations

import math
import struct
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def unit(u: int) -> float:
    """The uniform float in [0, 1) of output `u`: its top 53 bits."""
    return (u >> 11) * (2.0 ** -53)


def gaussian(u1: int, u2: int) -> float:
    """The standard normal deviate of two outputs, by Box-Muller. The
    first uniform moves up by 2**-54 into (0, 1], where log is finite."""
    z = math.sqrt(-2.0 * math.log(unit(u1) + (2.0 ** -54))) * math.cos(2.0 * math.pi * unit(u2))
    # u1 rounds to 1.0 for the top draw, where z can be -0.0; adding
    # 0.0 returns +0.0 there, the value the golden logs were drawn with.
    return 0.0 + z


@lru_cache(maxsize=64)
def rejection_limit(n: int) -> int:
    """The outputs below which `u % n` is exactly uniform over [0, n)."""
    if n <= 0:
        raise ValueError("randrange() bound must be positive")
    if n > 1 << 64:
        raise ValueError("randrange() bound must be at most 2**64, the range of one 64-bit output")
    return (1 << 64) - (1 << 64) % n


@lru_cache(maxsize=8)
def _lanes(count: int) -> tuple[int, int, int, struct.Struct]:
    """For `count` lanes: 1 in every lane, (j + 1) * gamma mod 2**64 in
    lane j, 2**64 - 1 in every lane, and the unpacker of their bytes."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    steps = b"".join([((j + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for j in range(count)])
    return ones, int.from_bytes(steps, "little"), ones * _MASK64, struct.Struct(f"<{2 * count}Q")


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, anywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def block(self, count: int) -> tuple[int, ...]:
        """The stream's next `count` outputs, as `count` calls of
        `next_u64` return them and with the state they leave."""
        if count < 0:
            raise ValueError("block() count must be non-negative")
        ones, steps, lanes, unpacker = _lanes(count)
        state = self._state
        self._state = (state + count * _GAMMA) & _MASK64
        z = (state * ones + steps) & lanes
        z = (((z ^ (z >> 30)) & lanes) * _MIX1) & lanes
        z = (((z ^ (z >> 27)) & lanes) * _MIX2) & lanes
        z ^= z >> 31
        # Each lane's low 64 bits are its output; the high ones are spill.
        return unpacker.unpack(z.to_bytes(16 * count, "little"))[::2]

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return unit(self.next_u64())

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * unit(self.next_u64())

    def randrange(self, n: int) -> int:
        """Exactly uniform integer in [0, n) via rejection sampling."""
        limit = rejection_limit(n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def normal(self) -> float:
        """Standard normal deviate by Box-Muller; always consumes exactly
        two uniforms."""
        return gaussian(self.next_u64(), self.next_u64())

    def spawn(self) -> "SplitMix64":
        """Child generator with a seed drawn from this stream."""
        return SplitMix64(self.next_u64())


def world_draws(rng: SplitMix64, normals: int, rows: int, low: int, n: int) -> tuple | None:
    """What `normals` calls of `rng.normal()` and then `rows` tuples of
    (normal(), low + randrange(n), random(), random()) draw, as a list and
    a tuple, taken from one `block`. None, with `rng` left where it was,
    if randrange would reject an output of the block: the scalar draws
    then take one output more, and every later draw shifts."""
    k, state = 2 * normals, rng._state
    out = rng.block(k + 5 * rows)
    picks = out[k + 2::5]
    if max(picks, default=0) >= rejection_limit(n):
        rng._state = state
        return None
    return list(map(gaussian, out[:k:2], out[1:k:2])), tuple(zip(
        map(gaussian, out[k::5], out[k + 1::5]),
        [low + u % n for u in picks],
        map(unit, out[k + 3::5]),
        map(unit, out[k + 4::5]),
    ))
