"""Brute-force Dempster combination over a general frame: the test oracle.

Subsets of an n-atom frame are bitsets, and combine_general visits every
pair of focal sets.  The binary-frame rules in evcalc.binary_frame are checked
against it through GeneralMass.from_binary and to_binary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from evcalc import CONFLICT_TOLERANCE, SUM_TOLERANCE, MassAssignment, TotalConflictError, ValidationError

#: Largest frame the brute-force combiner accepts (2**n subset pairs).
MAX_FRAME_SIZE = 10


@dataclass(frozen=True)
class GeneralMass:
    """Mass over the subsets of an n-atom frame, subsets encoded as bitsets.

    Masses are stored with keys in ascending bitset order and zero entries
    dropped, so iteration (and therefore combination) is deterministic.
    """

    frame_size: int
    masses: Mapping[int, float]

    def __post_init__(self):
        if not isinstance(self.frame_size, int) or not 1 <= self.frame_size <= MAX_FRAME_SIZE:
            raise ValidationError(
                f"frame_size must be an integer in [1, {MAX_FRAME_SIZE}], got {self.frame_size!r}"
            )
        full = (1 << self.frame_size) - 1
        cleaned: dict[int, float] = {}
        total = 0.0
        for subset in sorted(self.masses):
            value = float(self.masses[subset])
            if not isinstance(subset, int) or subset < 0 or subset > full:
                raise ValidationError(f"subset {subset!r} is not a bitset over {self.frame_size} atoms")
            if value < 0.0:
                if value < -SUM_TOLERANCE:
                    raise ValidationError(f"mass on subset {subset} is negative: {value!r}")
                continue
            if subset == 0:
                if value > SUM_TOLERANCE:
                    raise ValidationError(f"the empty subset must carry no mass, got {value!r}")
                continue
            if value == 0.0:
                continue
            cleaned[subset] = value
            total += value
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValidationError(f"masses must sum to 1, got {total!r}")
        if total != 1.0:
            cleaned = {s: v / total for s, v in cleaned.items()}
        object.__setattr__(self, "masses", cleaned)

    @classmethod
    def vacuous(cls, frame_size: int) -> GeneralMass:
        return cls(frame_size, {(1 << frame_size) - 1: 1.0})

    @classmethod
    def from_binary(cls, m: MassAssignment) -> GeneralMass:
        """Encode a binary-frame assignment with atom 0 = H, atom 1 = not-H."""
        return cls(2, {0b01: m.m_h, 0b10: m.m_not_h, 0b11: m.m_theta})

    def to_binary(self) -> MassAssignment:
        if self.frame_size != 2:
            raise ValidationError(f"not a binary frame: frame_size={self.frame_size}")
        return MassAssignment(
            self.masses.get(0b01, 0.0), self.masses.get(0b10, 0.0), self.masses.get(0b11, 0.0)
        )


def combine_general(g1: GeneralMass, g2: GeneralMass) -> GeneralMass:
    """Brute-force Dempster combination over all subset pairs.

    Intended as a testing oracle for small frames, not a fast combiner.
    """
    if g1.frame_size != g2.frame_size:
        raise ValidationError(f"frame sizes differ: {g1.frame_size} vs {g2.frame_size}")
    conflict = 0.0
    pooled: dict[int, float] = {}
    for b, vb in g1.masses.items():
        for c, vc in g2.masses.items():
            meet = b & c
            if meet == 0:
                conflict += vb * vc
            else:
                pooled[meet] = pooled.get(meet, 0.0) + vb * vc
    if 1.0 - conflict < CONFLICT_TOLERANCE:
        raise TotalConflictError(g1, g2)
    denom = 1.0 - conflict if conflict <= 0.5 else sum(pooled.values())
    return GeneralMass(g1.frame_size, {s: v / denom for s, v in pooled.items()})
