"""Deterministic pseudo-random generator for reproducible outcome streams.

SplitMix64: a 64-bit counter advanced by the golden-ratio increment
0x9E3779B97F4A7C15 and finalized by two xor-shift-multiply rounds
(multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  The interpreter's
generator is deliberately not used: trajectories must replay bit for bit
across platforms and interpreter versions.
"""

from __future__ import annotations

from typing import Iterator

_MASK = (1 << 64) - 1


class SplitMix64:
    """Stateful stream over the SplitMix64 sequence."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def _bernoulli_outcomes(seed: int, q: float, n: int) -> Iterator[bool]:
    """SplitMix64(seed).uniform() < q for n draws, one at a time.

    The same sequence as the class with the method calls inlined, so a long
    stream costs neither a list nor a call per draw.
    """
    mask = _MASK
    state = int(seed) & mask
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield ((z ^ (z >> 31)) >> 11) * 2.0 ** -53 < q
