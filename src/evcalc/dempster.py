"""Dempster's rule of combination on the two-hypothesis frame.

The mass form and the (bel, pl) interval form call one rule body, _pool, on
six masses; the interval form reads its operands' masses in place and builds
its result with binary_frame._carrying.  Bernoulli's special case for
same-direction simple supports is here too.  Total conflict (all pooled
mass on the empty set) is an error, not an absorbed state: the
normalization constant is undefined there.
"""

from __future__ import annotations

from .binary_frame import BeliefInterval, MassAssignment, _carrying
from .errors import TotalConflictError, ValidationError, _real

#: A combination whose normalization denominator falls below this is treated
#: as total conflict.
CONFLICT_TOLERANCE = 1e-12


def _pool(first, second, h1: float, n1: float, t1: float, h2: float, n2: float, t2: float) -> tuple[float, float, float]:
    """Pooled masses on {H}, {not-H} and the frame of the operands first and
    second, whose masses are (h1, n1, t1) and (h2, n2, t2), normalized."""
    conflict = h1 * n2 + n1 * h2
    if 1.0 - conflict < CONFLICT_TOLERANCE:
        raise TotalConflictError(first, second)
    h, nh, th = h1 * h2 + h1 * t2 + t1 * h2, n1 * n2 + n1 * t2 + t1 * n2, t1 * t2
    # near total conflict 1 - conflict is all cancellation; the positive part
    # sum is the same normalizer without it
    denom = 1.0 - conflict if conflict <= 0.5 else h + nh + th
    return h / denom, nh / denom, th / denom


def combine_mass(m1: MassAssignment, m2: MassAssignment) -> MassAssignment:
    """Combine two mass assignments, renormalizing away conflicting mass."""
    return MassAssignment(*_pool(m1, m2, m1.m_h, m1.m_not_h, m1.m_theta, m2.m_h, m2.m_not_h, m2.m_theta))


def combine_interval(x1: BeliefInterval, x2: BeliefInterval) -> BeliefInterval:
    """Same rule on (bel, pl) pairs, in their masses (bel, 1 - pl, pl - bel).

    Each operand's last two masses are read in place, carried or rebuilt as
    masses() gives them.  The result carries the pooled complement and width,
    so a chain of combinations keeps 1 - pl to full relative precision.  The
    vacuous interval (0, 1) is a two-sided identity: the other one comes back.
    """
    bel1, pl1, bel2, pl2 = x1.bel, x1.pl, x2.bel, x2.pl
    if bel1 == 0.0 and pl1 == 1.0:
        return x2
    if bel2 == 0.0 and pl2 == 1.0:
        return x1
    n1, t1 = x1._carried or (1.0 - pl1, pl1 - bel1)
    n2, t2 = x2._carried or (1.0 - pl2, pl2 - bel2)
    h, nh, th = _pool(x1, x2, bel1, n1, t1, bel2, n2, t2)
    # renormalized as a MassAssignment is: the 1 - conflict normalizer keeps the
    # operands' rounding in the sum, which a chain would amplify; pl = 1 when nh = 0
    total = h + nh + th
    return _carrying(h / total, (h + th) / total, nh / total, th / total)


def bernoulli_combine(s1: float, s2: float) -> float:
    """Pool two same-direction simple supports: 1 - (1 - s1)(1 - s2), computed as
    hi + lo * (1 - hi) with hi the larger, which keeps small supports to an ulp."""
    s1, s2 = _real(s1, "s1"), _real(s2, "s2")
    for name, s in (("s1", s1), ("s2", s2)):
        if not 0.0 <= s <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {s!r}")
    hi, lo = (s1, s2) if s1 >= s2 else (s2, s1)
    return hi + lo * (1.0 - hi) + 0.0  # + 0.0: two zero supports pool to +0.0, whatever their signs
