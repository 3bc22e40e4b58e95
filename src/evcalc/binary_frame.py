"""Value types for the two-hypothesis frame {H, not-H}.

A basic mass assignment spreads unit mass over {H}, {not-H} and the whole
frame (the empty set carries none).  At this frame size the induced belief
and plausibility functions collapse to the single pair (Bel({H}), Pl({H})),
so both forms are kept as first-class, losslessly convertible value types:
the combination rule is naturally stated on masses, while most reasoning and
all the weight-of-evidence machinery works on intervals.  The module-level
_carrying builds every interval that carries its masses, for every module.
"""

from __future__ import annotations

import math

from .errors import _NOT_REAL, ValidationError, _real, _Value, parse_object

#: Tolerance for the sum-to-one invariant; inputs inside it are renormalized
#: (serialized values accumulate decimal rounding noise).
SUM_TOLERANCE = 1e-12


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


def _unit_pair(lo: float, hi: float, lo_name: str, hi_name: str, tolerance: float) -> tuple[float, float]:
    """Repair an interval (lo, hi) of floats; callers test 0 <= lo <= hi <= 1 first.

    Each end is coerced by _clamp_unit; a pair inverted by at most tolerance
    (rounding noise) collapses to its midpoint, a wider inversion is an error.
    """
    lo = _clamp_unit(lo, lo_name)
    hi = _clamp_unit(hi, hi_name)
    if lo > hi:
        if lo - hi > tolerance:
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

    def to_dict(self) -> dict:
        return {"m_h": self.m_h, "m_not_h": self.m_not_h, "m_theta": self.m_theta}

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
            bel, pl = _unit_pair(bel, pl, "bel", "pl", SUM_TOLERANCE)
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

    def to_dict(self) -> dict:
        return {"bel": self.bel, "pl": self.pl}

    @classmethod
    def from_dict(cls, data) -> BeliefInterval:
        return parse_object("belief interval", data, lambda d: cls(float(d["bel"]), float(d["pl"])))


def _carrying(bel: float, pl: float, m_not_h: float, m_theta: float) -> BeliefInterval:
    """The interval (bel, pl) of floats, carrying m_not_h = 1 - pl and m_theta = pl - bel.

    Repairs the pair as __init__ does, and writes every slot in one pass.
    """
    if not 0.0 <= bel <= pl <= 1.0:
        bel, pl = _unit_pair(bel, pl, "bel", "pl", SUM_TOLERANCE)
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
    return _carrying(m.m_h, m.m_h + m.m_theta, m.m_not_h, m.m_theta)


def interval_to_mass(iv: BeliefInterval) -> MassAssignment:
    """Inverse of mass_to_interval; the frame keeps the width pl - bel.

    Takes BeliefInterval.masses(), so a weight-built value keeps its carried
    complement and width (renormalized like any other input).
    """
    return MassAssignment(*iv.masses())
