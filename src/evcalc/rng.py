"""Deterministic pseudo-random generator for reproducible outcome streams.

SplitMix64: a 64-bit counter advanced by the golden-ratio increment
0x9E3779B97F4A7C15 and finalized by two xor-shift-multiply rounds
(multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  The interpreter's
generator is deliberately not used: trajectories must replay bit for bit
across platforms and interpreter versions.

The generator is counter-based: the state before draw j (0-based) is
(seed + (j+1) * 0x9E3779B97F4A7C15) mod 2**64, so no draw depends on the
previous output and a block of draws can be computed at once; the block
generator carries its packed lane states from one block to the next.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import ValidationError, _is_whole, _shown

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# _below packs _LANES draws into one int, draw j in bits [128j, 128j + 128),
# so a 64x64-bit product never leaves its slot; slot j of _COUNTER is (j+1)*gamma,
# and every slot of _STEP advances its lane by one block.
_LANES = 1024
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LANE_MASK = _MASK * _ONES
_COUNTER = _GAMMA * int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(1, _LANES + 1)), "little")
_STEP = ((_LANES * _GAMMA) & _MASK) * _ONES


class SplitMix64:
    """Stateful stream over the SplitMix64 sequence."""

    def __init__(self, seed: int):
        self._state = _check_seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def _check_seed(seed) -> int:
    """int(seed) for a whole seed in [0, 2**64); any other would alias one of those."""
    if not _is_whole(seed) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {_shown(seed)}")
    return int(seed)


def _bernoulli_blocks(seed: int, q: float, n: int) -> Iterator[bytes]:
    """SplitMix64(seed).uniform() < q for n draws, in _LANES-byte blocks of 1 or 0.

    _below computes each block (the last cut to n) in a fixed number of whole-int
    operations.  uniform() is exactly v * 2**-53 for the top 53 bits v of a draw z,
    and q * 2**53 is exact, so uniform() < q iff v < T = ceil(q * 2**53) iff z < T * 2**11.
    Slot j of z is the state before the block's draw j; a slot plus one of _STEP
    stays below 2**65, so no add carries and the mask reduces each lane mod 2**64.
    """
    z = ((int(seed) & _MASK) * _ONES + _COUNTER) & _LANE_MASK
    guards = ((math.ceil(q * 2.0**53) << 11) - 1 + (1 << 64)) * _ONES
    for start in range(0, n, _LANES):
        yield _below(z, guards)[: n - start]
        z = (z + _STEP) & _LANE_MASK


def _below(z: int, guards: int) -> bytes:
    """Byte j is 1 if the draw finalized from lane state j of z is below T * 2**11, else 0.

    Each slot of guards holds T * 2**11 - 1 + 2**64, so the slot of
    guards - z lies in [0, 2**65) and has bit 64 set iff z < T * 2**11:
    no slot borrows from the next, and byte 8 of the slot is the outcome.
    """
    z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    z = (z ^ (z >> 31)) & _LANE_MASK
    return (guards - z).to_bytes(16 * _LANES, "little")[8::16]
