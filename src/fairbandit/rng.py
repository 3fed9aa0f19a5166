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
the stream by the same amount.
"""
from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, anywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def randrange(self, n: int) -> int:
        """Exactly uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
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
        u1 = (self.next_u64() >> 11) * (2.0 ** -53) + (2.0 ** -54)  # (0, 1]
        u2 = self.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        # u1 rounds to 1.0 for the top draw, where z can be -0.0; adding
        # 0.0 returns +0.0 there, the value the golden logs were drawn with.
        return 0.0 + z

    def spawn(self) -> "SplitMix64":
        """Child generator with a seed drawn from this stream."""
        return SplitMix64(self.next_u64())
