"""Dempster's rule of combination on the two-hypothesis frame.

Both the mass form and the equivalent (bel, pl) interval form are provided,
together with Bernoulli's special case for same-direction simple supports
and a small general-frame combiner that the test suite uses as a brute-force
oracle.  Total conflict (all pooled mass on the empty set) is an error, not
an absorbed state: the normalization constant is undefined there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .binary_frame import SUM_TOLERANCE, BeliefInterval, MassAssignment
from .errors import TotalConflictError, ValidationError

#: A combination whose normalization denominator falls below this is treated
#: as total conflict.
CONFLICT_TOLERANCE = 1e-12

#: Largest frame the brute-force combiner accepts (2**n subset pairs).
MAX_FRAME_SIZE = 10


def combine_mass(m1: MassAssignment, m2: MassAssignment) -> MassAssignment:
    """Combine two mass assignments, renormalizing away conflicting mass."""
    conflict = m1.m_h * m2.m_not_h + m1.m_not_h * m2.m_h
    if 1.0 - conflict < CONFLICT_TOLERANCE:
        raise TotalConflictError(m1, m2)
    h, nh, th = _mass_products(m1.m_h, m1.m_not_h, m1.m_theta, m2.m_h, m2.m_not_h, m2.m_theta)
    # near total conflict 1 - conflict is all cancellation; the positive part
    # sum is the same normalizer without it
    denom = 1.0 - conflict if conflict <= 0.5 else h + nh + th
    return MassAssignment(h / denom, nh / denom, th / denom)


def combine_interval(x1: BeliefInterval, x2: BeliefInterval) -> BeliefInterval:
    """Same rule acting on (bel, pl) pairs directly.

    Agrees with combine_mass through the mass/interval bijection; the vacuous
    interval (0, 1) is a two-sided identity.
    """
    return BeliefInterval(*_combine_pairs(x1.bel, x1.pl, x2.bel, x2.pl))


def _combine_pairs(bel1: float, pl1: float, bel2: float, pl2: float) -> tuple[float, float]:
    """combine_interval on raw floats, returning the (bel, pl) that
    BeliefInterval has yet to validate.  The convergence fold calls it once
    per step."""
    conflict = bel1 * (1.0 - pl2) + bel2 * (1.0 - pl1)
    if 1.0 - conflict < CONFLICT_TOLERANCE:
        raise TotalConflictError(BeliefInterval(bel1, pl1), BeliefInterval(bel2, pl2))
    if conflict <= 0.5:
        denom = 1.0 - conflict
        return (bel1 * pl2 + bel2 * pl1 - bel1 * bel2) / denom, (pl1 * pl2) / denom
    # high-conflict regime: normalize by the part sum, as in combine_mass
    h, nh, th = _mass_products(bel1, 1.0 - pl1, pl1 - bel1, bel2, 1.0 - pl2, pl2 - bel2)
    denom = h + nh + th
    return h / denom, (h + th) / denom


def _mass_products(h1: float, n1: float, t1: float, h2: float, n2: float, t2: float) -> tuple[float, float, float]:
    """Unnormalized pooled masses on {H}, {not-H} and the frame; conflict left out."""
    return h1 * h2 + h1 * t2 + t1 * h2, n1 * n2 + n1 * t2 + t1 * n2, t1 * t2


def bernoulli_combine(s1: float, s2: float) -> float:
    """Pool two same-direction simple supports: 1 - (1 - s1)(1 - s2)."""
    for name, s in (("s1", s1), ("s2", s2)):
        if not 0.0 <= s <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {s!r}")
    return 1.0 - (1.0 - s1) * (1.0 - s2)


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
