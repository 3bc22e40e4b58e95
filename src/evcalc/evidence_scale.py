"""The weight-of-evidence scale.

Positive and negative evidence carry nonnegative weights that add when
distinct bodies of evidence are pooled.  A weight pair maps onto the belief
scale through s = 1 - e^{-w} and back through logarithms; iterating the
combination rule is therefore the same thing as adding weights.  Infinite
total weight collapses the interval to a Bayesian point whose position
depends only on the limiting difference of the two weights, so the infinite
case is an explicit tagged representation carrying that difference rather
than a capped large number (a cap would destroy the limit).
"""

from __future__ import annotations

import math

from .binary_frame import SUM_TOLERANCE, BeliefInterval, _carrying
from .errors import (
    _NOT_REAL, InfiniteEvidenceError, ValidationError, ZeroEvidenceError, _number, _real, _shown, _Value, parse_object,
)

#: Exact-tie tolerance for the limit classification, relative to the size of
#: the two weighted rates.
TIE_TOLERANCE = 1e-12

FINITE = "finite"
INFINITE = "infinite"


class EvidenceWeights(_Value):
    """Weights of positive and negative evidence for one hypothesis.

    kind "finite" carries (w_plus, w_minus); kind "infinite" carries only
    delta, the limit of w_minus - w_plus (with +/-inf encoding the certain
    endpoints 0 and 1 of the belief scale).
    """

    _fields = ("kind", "w_plus", "w_minus", "delta")

    def __init__(
        self, kind: str, w_plus: float | None = None, w_minus: float | None = None, delta: float | None = None
    ):
        if kind == FINITE:
            if w_plus is None or w_minus is None:
                raise ValidationError("finite weights need both w_plus and w_minus")
            try:
                wp, wm = float(w_plus), float(w_minus)
            except _NOT_REAL:
                wp, wm = _real(w_plus, "w_plus"), _real(w_minus, "w_minus")
            if not (0.0 <= wp < math.inf and 0.0 <= wm < math.inf):
                if not (math.isfinite(wp) and math.isfinite(wm)) or wp < -SUM_TOLERANCE or wm < -SUM_TOLERANCE:
                    raise ValidationError(f"weights must be finite and nonnegative, got ({w_plus!r}, {w_minus!r})")
                wp, wm = max(wp, 0.0), max(wm, 0.0)  # outside input within the slack, such as a serialized -1e-13
            w_plus, w_minus, delta = wp, wm, None
        elif kind == INFINITE:
            if delta is None:
                raise ValidationError("infinite weights need delta, the w_minus - w_plus limit")
            delta = _real(delta, "delta")
            if math.isnan(delta):
                raise ValidationError("delta must not be NaN")
            w_plus = w_minus = None
        else:
            raise ValidationError(f"unknown weights kind {_shown(kind)}")
        fields = self.__dict__
        fields["kind"] = kind
        fields["w_plus"] = w_plus
        fields["w_minus"] = w_minus
        fields["delta"] = delta

    @classmethod
    def finite(cls, w_plus: float, w_minus: float) -> EvidenceWeights:
        return cls(FINITE, w_plus, w_minus)

    @classmethod
    def infinite(cls, delta: float) -> EvidenceWeights:
        return cls(INFINITE, delta=delta)

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @classmethod
    def from_dict(cls, data) -> EvidenceWeights:
        def build(d):
            kind = d["kind"]
            if kind == FINITE:
                return cls(kind, _number(d["w_plus"]), _number(d["w_minus"]))
            return cls(kind, delta=_number(d["delta"]) if kind == INFINITE else None)
        return parse_object("weights", data, build)


class UnitWeights(_Value):
    """Weight carried by a single positive or negative outcome."""

    _fields = ("w0_plus", "w0_minus")

    def __init__(self, w0_plus: float = 1.0, w0_minus: float = 1.0):
        fields = self.__dict__
        for name, value in (("w0_plus", w0_plus), ("w0_minus", w0_minus)):
            value = _real(value, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(f"{name} must be a finite positive real, got {value!r}")
            fields[name] = value


def support_from_weight(w: float) -> float:
    """Degree of support earned by evidence of weight w: 1 - e^{-w}.

    Satisfies g(w1 + w2) = 1 - (1 - g(w1))(1 - g(w2)), which is what makes
    additive weights and Bernoulli's rule two views of the same operation.
    """
    w = _real(w, "weight")
    if not math.isfinite(w) or w < 0.0:
        raise ValidationError(f"weight must be a finite nonnegative real, got {w!r}")
    return -math.expm1(-w)


def belief_from_weights(w: EvidenceWeights) -> BeliefInterval:
    """Map accumulated weights to the belief interval.

    Finite weights give bel = (e^{w+} - 1) / D, 1 - pl = (e^{w-} - 1) / D and
    width pl - bel = 1 / D with D = e^{w+} + e^{w-} - 1.  The largest
    exponential b is factored out first so no intermediate leaves double
    range for any finite weights: the width is e^{-b} / D' and the
    complement e^{w- - b} (1 - e^{-w-}) / D' with D' = D e^{-b}.  The value
    stores pl = bel + width and carries the complement and width as
    computed, each to a few ulps relative, which is what lets
    weights_from_belief invert it losslessly.  Infinite weights give the
    Bayesian point 1 / (1 + e^{delta}), built by the constructor.
    """
    if w.kind == FINITE:
        return _carrying(*_belief_parts(w.w_plus, w.w_minus))
    point = delta_limit(w.delta)
    return BeliefInterval(point, point)


def _belief_parts(wp: float, wm: float) -> tuple[float, float, float, float]:
    """(bel, pl, 1 - pl, pl - bel) of finite weights (wp, wm), on floats; pl = bel + width, clamped to 1."""
    if wp > wm:  # scaled by e^-biggest, the bigger exponential is e^0 = 1 exactly
        biggest, scaled_p, scaled_m = wp, 1.0, math.exp(wm - wp)
    else:
        biggest, scaled_p, scaled_m = wm, math.exp(wp - wm), 1.0
    scaled_one = math.exp(-biggest)
    denom = scaled_p + scaled_m - scaled_one
    bel, width = scaled_p * -math.expm1(-wp) / denom, scaled_one / denom
    pl = bel + width
    return bel, pl if pl <= 1.0 else 1.0, scaled_m * -math.expm1(-wm) / denom, width


def weights_from_belief(iv: BeliefInterval) -> EvidenceWeights:
    """Recover the weights behind a belief interval.

    A strictly inner interval has the finite preimage
    w+ = log(1 + bel / (pl - bel)), w- = log(1 + (1 - pl) / (pl - bel)).
    They are read from the value's carried complement 1 - pl and width
    pl - bel; belief_from_weights carries them as it computed them, so its
    weights come back to about 1e-15 relative.  A Bayesian point
    (bel == pl) carries infinite total weight, of which only delta survives.
    """
    bel, pl = iv.bel, iv.pl
    if bel == pl:
        if bel <= 0.0:
            return EvidenceWeights.infinite(math.inf)
        if bel >= 1.0:
            return EvidenceWeights.infinite(-math.inf)
        return EvidenceWeights.infinite(math.log((1.0 - bel) / bel))
    return EvidenceWeights.finite(*_finite_weights(bel, iv._carried))


def _finite_weights(bel: float, carried: tuple[float, float]) -> tuple[float, float]:
    """(w+, w-) of an interval with bel != pl, from bel and its carried (1 - pl, pl - bel).

    Both are nonnegative and bounded, so EvidenceWeights and EvidenceCounts
    keep them as they are: bel != pl keeps bel / width below 2**54, so w+ <=
    log1p(2**54), about 37.43; a part is at most 1 and a width at least
    5e-324, so w- <= -log(5e-324), about 744.44.
    """
    m_not_h, width = carried
    # log(1 + part / width), where a carried complement over a width near 5e-324 overflows
    ratio = m_not_h / width
    w_minus = math.log1p(ratio) if ratio != math.inf else math.log(m_not_h) - math.log(width)
    return math.log1p(bel / width), w_minus


def add_weights(w1: EvidenceWeights, w2: EvidenceWeights) -> EvidenceWeights:
    """Pool distinct bodies of evidence by adding weights componentwise."""
    if not (w1.is_finite and w2.is_finite):
        raise InfiniteEvidenceError(
            "cannot add infinite weights; combine them as frequency points instead"
        )
    return EvidenceWeights.finite(w1.w_plus + w2.w_plus, w1.w_minus + w2.w_minus)


def multiply_combine(b1: float, b2: float) -> float:
    """Pool two Bayesian beliefs under multiplicative weights.

    b1*b2 / (b1*b2 + (1 - b1)(1 - b2)), defined strictly inside (0, 1); it
    coincides with the interval rule restricted to Bayesian inputs.  Note
    0.5 is its identity, so pooled evidence no longer accumulates.
    """
    b1, b2 = _real(b1, "b1"), _real(b2, "b2")
    for name, b in (("b1", b1), ("b2", b2)):
        if not 0.0 < b < 1.0:
            raise ValidationError(f"{name} must lie strictly inside (0, 1), got {b!r}")
    num = b1 * b2
    return num / (num + (1.0 - b1) * (1.0 - b2))


def positive_proportion(iv: BeliefInterval) -> float:
    """Share of the total evidence weight that is positive, w+ / w.

    Read from the weights_from_belief preimage, so a value built by
    belief_from_weights gives w+ / (w+ + w-) of its own weights.
    """
    w = weights_from_belief(iv)
    if w.kind != FINITE:
        raise InfiniteEvidenceError(
            "a Bayesian point carries infinite weight; the proportion is undefined"
        )
    total = w.w_plus + w.w_minus
    if total == 0.0:
        raise ZeroEvidenceError("the vacuous interval carries zero weight (0/0)")
    return w.w_plus / total


def classify_limit(q: float, unit: UnitWeights) -> float:
    """Limit of iterated Dempster combination over outcomes with positive
    rate q: 0, 0.5 or 1 by the sign of w0+*q - w0-*(1 - q).

    The tie is only meaningful for exactly representable inputs; it is
    resolved with tolerance TIE_TOLERANCE times w0+*q + w0-*(1 - q), so
    scaling both unit weights by one constant leaves the verdict as it is.
    """
    q = _real(q, "q")
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"q must be in [0, 1], got {q!r}")
    pos, neg = unit.w0_plus * q, unit.w0_minus * (1.0 - q)
    diff = pos - neg
    # the tolerance term by term: pos + neg can overflow near the float maximum
    if abs(diff) <= TIE_TOLERANCE * pos + TIE_TOLERANCE * neg:
        return 0.5
    return 1.0 if diff > 0.0 else 0.0


def delta_limit(delta: float) -> float:
    """Bayesian point reached when w- - w+ stabilizes at delta: 1/(1 + e^delta).

    Evaluated on the side that never overflows, and written so that
    delta_limit(-d) == 1 - delta_limit(d) holds exactly in floating point.
    """
    delta = _real(delta, "delta")
    if math.isnan(delta):
        raise ValidationError("delta must not be NaN")
    if delta >= 0.0:
        z = math.exp(-delta)
        return z / (1.0 + z)
    z = math.exp(delta)
    return 1.0 - z / (1.0 + z)
