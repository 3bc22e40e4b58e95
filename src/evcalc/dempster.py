"""Dempster's rule of combination on the two-hypothesis frame.

Both the mass form and the equivalent (bel, pl) interval form are provided,
together with Bernoulli's special case for same-direction simple supports.
Total conflict (all pooled mass on the empty set) is an error, not
an absorbed state: the normalization constant is undefined there.
"""

from __future__ import annotations

from .binary_frame import BeliefInterval, MassAssignment
from .errors import TotalConflictError, ValidationError, _real

#: A combination whose normalization denominator falls below this is treated
#: as total conflict.
CONFLICT_TOLERANCE = 1e-12


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
    bel1, pl1, bel2, pl2 = x1.bel, x1.pl, x2.bel, x2.pl
    conflict = bel1 * (1.0 - pl2) + bel2 * (1.0 - pl1)
    if 1.0 - conflict < CONFLICT_TOLERANCE:
        raise TotalConflictError(x1, x2)
    if conflict <= 0.5:
        denom = 1.0 - conflict
        return BeliefInterval((bel1 * pl2 + bel2 * pl1 - bel1 * bel2) / denom, (pl1 * pl2) / denom)
    # high-conflict regime: normalize by the part sum, as in combine_mass
    h, nh, th = _mass_products(bel1, 1.0 - pl1, pl1 - bel1, bel2, 1.0 - pl2, pl2 - bel2)
    denom = h + nh + th
    return BeliefInterval(h / denom, (h + th) / denom)


def _mass_products(h1: float, n1: float, t1: float, h2: float, n2: float, t2: float) -> tuple[float, float, float]:
    """Unnormalized pooled masses on {H}, {not-H} and the frame; conflict left out."""
    return h1 * h2 + h1 * t2 + t1 * h2, n1 * n2 + n1 * t2 + t1 * n2, t1 * t2


def bernoulli_combine(s1: float, s2: float) -> float:
    """Pool two same-direction simple supports: 1 - (1 - s1)(1 - s2)."""
    s1, s2 = _real(s1, "s1"), _real(s2, "s2")
    for name, s in (("s1", s1), ("s2", s2)):
        if not 0.0 <= s <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {s!r}")
    return 1.0 - (1.0 - s1) * (1.0 - s2)
