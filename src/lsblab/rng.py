"""Seeded random source: equal seeds give equal streams on every platform."""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1


class Rng:
    """Fair signs, bits and shuffles from one 64-bit seed.

    Backed by the stdlib Mersenne Twister, whose output for a fixed seed
    is documented to be reproducible across runs, platforms and Python
    versions. All consumers that must agree (embedder and extractor)
    rebuild their own Rng from the shared seed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._rng = random.Random(self.seed)

    def sign(self) -> int:
        """A fair +1 / -1 step."""
        return 1 if self._rng.getrandbits(1) else -1

    def bits(self, n: int) -> list[int]:
        """n independent fair bits."""
        g = self._rng.getrandbits
        return [g(1) for _ in range(n)]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle driven by this source."""
        for i in range(len(seq) - 1, 0, -1):
            j = self._rng.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def derive_seed(seed: int, *indices: int) -> int:
    """Mix indices into a master seed (splitmix64-style rounds).

    Pure 64-bit integer arithmetic, so derived child seeds (per image,
    per experiment cell, ...) are identical on every platform.
    """
    z = seed & _MASK64
    for k in indices:
        z = (z + (k + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z
