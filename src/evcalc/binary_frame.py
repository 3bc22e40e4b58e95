"""Value types for the two-hypothesis frame {H, not-H}, and Dempster's rule.

A basic mass assignment spreads unit mass over {H}, {not-H} and the whole
frame (the empty set carries none).  At this frame size the induced belief
and plausibility functions collapse to the single pair (Bel({H}), Pl({H})),
so both forms are kept as first-class, losslessly convertible value types:
the combination rule is naturally stated on masses, while most reasoning and
all the weight-of-evidence machinery works on intervals.  The module-level
_carrying builds every interval that carries its masses, for every module.

Dempster's rule comes in a mass form and a (bel, pl) interval form, which
call one rule body, _pool, on six masses; the interval form reads its
operands' masses in place and builds its result with _carrying.
Bernoulli's special case for same-direction simple supports is here too.
Total conflict (all pooled mass on the empty set) is an error, not an
absorbed state: the normalization constant is undefined there.
"""

from __future__ import annotations

import math

from .errors import _NOT_REAL, TotalConflictError, ValidationError, _real, _Value, parse_object

#: Tolerance for the sum-to-one invariant; inputs inside it are renormalized
#: (serialized values accumulate decimal rounding noise).
SUM_TOLERANCE = 1e-12

#: A combination whose normalization denominator falls below this is treated
#: as total conflict.
CONFLICT_TOLERANCE = 1e-12


def _clamp_unit(value: float, name: str) -> float:
    """Coerce a real into [0, 1], allowing SUM_TOLERANCE of rounding slack."""
    value = _real(value, name)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite real, got {value!r}")
    if value < 0.0:
        if value < -SUM_TOLERANCE:
            raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
        return 0.0
    if value > 1.0:
        if value > 1.0 + SUM_TOLERANCE:
            raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
        return 1.0
    return value


def _unit_pair(lo: float, hi: float, lo_name: str, hi_name: str) -> tuple[float, float]:
    """Repair an interval (lo, hi) of outside floats; its two constructors test 0 <= lo <= hi <= 1 first.

    Each end is coerced by _clamp_unit; a pair inverted by at most SUM_TOLERANCE
    (rounding noise) collapses to its midpoint, a wider inversion is an error.
    """
    lo = _clamp_unit(lo, lo_name)
    hi = _clamp_unit(hi, hi_name)
    if lo > hi:
        if lo - hi > SUM_TOLERANCE:
            raise ValidationError(f"{lo_name} must not exceed {hi_name}, got ({lo!r}, {hi!r})")
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


class MassAssignment(_Value):
    """Mass on {H}, {not-H} and the frame; must sum to one."""

    _fields = ("m_h", "m_not_h", "m_theta")

    def __init__(self, m_h: float, m_not_h: float, m_theta: float):
        try:
            h, nh, th = float(m_h), float(m_not_h), float(m_theta)
        except _NOT_REAL:
            h = nh = th = math.nan
        if not (0.0 <= h <= 1.0 and 0.0 <= nh <= 1.0 and 0.0 <= th <= 1.0):
            # field by field: the first field that is not a real in [0, 1] raises
            h, nh, th = _clamp_unit(m_h, "m_h"), _clamp_unit(m_not_h, "m_not_h"), _clamp_unit(m_theta, "m_theta")
        total = h + nh + th
        if total != 1.0:
            if not -SUM_TOLERANCE <= total - 1.0 <= SUM_TOLERANCE:
                raise ValidationError(f"masses must sum to 1, got {total!r}")
            h, nh, th = h / total, nh / total, th / total
        fields = self.__dict__
        fields["m_h"] = h
        fields["m_not_h"] = nh
        fields["m_theta"] = th

    @classmethod
    def vacuous(cls) -> MassAssignment:
        """The no-evidence assignment: all mass on the frame."""
        return cls(0.0, 0.0, 1.0)

    @classmethod
    def from_dict(cls, data) -> MassAssignment:
        return parse_object("mass", data, lambda d: cls(float(d["m_h"]), float(d["m_not_h"]), float(d["m_theta"])))


class BeliefInterval(_Value):
    """The pair (Bel({H}), Pl({H})); bel == pl is the Bayesian special case.

    A value built by belief_from_weights, belpl_from_lu, combine_interval or
    mass_to_interval also carries its complement 1 - pl and its width pl - bel
    as that map computed them, each to full relative precision; the stored
    pl is rounded, and rebuilding either part from (bel, pl) cancels near 1.
    masses() hands out the carried parts where they exist.  Equality, hash,
    repr and the {"bel", "pl"} wire format stay on (bel, pl) only, so a
    carrying value equals the plain BeliefInterval(bel, pl) of the same pair.
    """

    _fields = ("bel", "pl")

    # (1 - pl, pl - bel) as carried, set only by the module's _carrying();
    # plain values derive both parts from (bel, pl)
    _carried = None

    def __init__(self, bel: float, pl: float):
        try:
            bel, pl = float(bel), float(pl)
        except _NOT_REAL:
            bel, pl = _real(bel, "bel"), _real(pl, "pl")
        if not 0.0 <= bel <= pl <= 1.0:
            bel, pl = _unit_pair(bel, pl, "bel", "pl")
        fields = self.__dict__
        fields["bel"] = bel
        fields["pl"] = pl

    @property
    def is_bayesian(self) -> bool:
        return self.bel == self.pl

    @classmethod
    def vacuous(cls) -> BeliefInterval:
        return cls(0.0, 1.0)

    def masses(self) -> tuple[float, float, float]:
        """Mass on {H}, {not-H} and the frame: (bel, 1 - pl, pl - bel).

        The last two are the carried complement and width where the value
        has them.  The three are not renormalized; interval_to_mass makes a
        validated MassAssignment of them.
        """
        if self._carried is None:
            return self.bel, 1.0 - self.pl, self.pl - self.bel
        return (self.bel, *self._carried)

    @classmethod
    def from_dict(cls, data) -> BeliefInterval:
        return parse_object("belief interval", data, lambda d: cls(float(d["bel"]), float(d["pl"])))


def _carrying(bel: float, pl: float, m_not_h: float, m_theta: float) -> BeliefInterval:
    """The interval (bel, pl) of floats, carrying m_not_h = 1 - pl and m_theta = pl - bel.

    Writes every slot in one pass and repairs nothing: each caller meets 0 <= bel <= pl <= 1.
    _belief_parts and mass_to_interval clamp their pl = bel + width to 1, and combine_interval's
    pl = (h + th) / total is at most 1, as rounding keeps total = (h + nh) + th >= h + th.
    """
    iv = object.__new__(BeliefInterval)
    fields = iv.__dict__
    fields["bel"] = bel
    fields["pl"] = pl
    # not in _fields, so it stays out of ==, hash and repr
    fields["_carried"] = (m_not_h, m_theta)
    return iv


def mass_to_interval(m: MassAssignment) -> BeliefInterval:
    """Bel({H}) is the mass on {H}; Pl({H}) is everything not against it.

    The value carries m_not_h and m_theta as its complement and width, and
    its pl is bel + m_theta, so a width of 0 is the Bayesian point bel == pl.
    """
    pl = m.m_h + m.m_theta
    return _carrying(m.m_h, pl if pl <= 1.0 else 1.0, m.m_not_h, m.m_theta)


def interval_to_mass(iv: BeliefInterval) -> MassAssignment:
    """Inverse of mass_to_interval; the frame keeps the width pl - bel.

    Takes BeliefInterval.masses(), so a weight-built value keeps its carried
    complement and width (renormalized like any other input).
    """
    return MassAssignment(*iv.masses())


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
