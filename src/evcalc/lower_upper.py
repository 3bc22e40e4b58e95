"""Lower and upper frequency intervals.

A body of evidence with positive weight w+ out of total w is summarized by
the interval [w+/(w+1), (w+ + 1)/(w+1)]: the range the observed frequency
can move over before the next unit of evidence arrives.  The width 1/(w+1)
is the degree of ignorance: 1 with no evidence, 0 in the infinite-evidence
limit, where the interval degenerates to a probability fixed by convention
that no finite amount of further evidence can move.
"""

from __future__ import annotations

import math

from .binary_frame import BeliefInterval, _carrying, _unit_pair
from .errors import (
    _NOT_REAL, InfiniteEvidenceError, ValidationError, ZeroEvidenceError, _number, _real, _shown, _Value, parse_object,
)
from .evidence_scale import FINITE, EvidenceWeights, _belief_parts, _finite_weights, delta_limit, weights_from_belief

#: Two points closer than this are the same convention.
POINT_TOLERANCE = 1e-12

KIND_INTERVAL = "interval"
KIND_POINT = "point"


class FrequencyInterval(_Value):
    """Lower and upper frequency pair; zero width means infinite evidence."""

    _fields = ("l", "u")

    def __init__(self, l: float, u: float):
        try:
            l, u = float(l), float(u)
        except _NOT_REAL:
            l, u = _real(l, "l"), _real(u, "u")
        if not 0.0 <= l <= u <= 1.0:
            l, u = _unit_pair(l, u, "l", "u")
        fields = self.__dict__
        fields["l"] = l
        fields["u"] = u

    @property
    def is_point(self) -> bool:
        return self.l == self.u

    @property
    def kind(self) -> str:
        return KIND_POINT if self.is_point else KIND_INTERVAL

    @classmethod
    def point(cls, value: float) -> FrequencyInterval:
        return cls(value, value)

    @classmethod
    def total_ignorance(cls) -> FrequencyInterval:
        return cls(0.0, 1.0)

    def to_dict(self) -> dict:
        if self.is_point:
            return {"kind": KIND_POINT, "value": self.l}
        return {"kind": KIND_INTERVAL, "l": self.l, "u": self.u}

    @classmethod
    def from_dict(cls, data) -> FrequencyInterval:
        def build(d):
            kind = d["kind"]
            if kind == KIND_POINT:
                return cls.point(_number(d["value"]))
            if kind == KIND_INTERVAL:
                return cls(_number(d["l"]), _number(d["u"]))
            raise ValidationError(f"unknown frequency kind {_shown(kind)}")
        return parse_object("frequency", data, build)


class EvidenceCounts(_Value):
    """Accumulated positive and total evidence weight (reals, not integers)."""

    _fields = ("w_plus", "w_total")

    def __init__(self, w_plus: float, w_total: float):
        try:
            wp, wt = float(w_plus), float(w_total)
        except _NOT_REAL:
            wp, wt = _real(w_plus, "w_plus"), _real(w_total, "w_total")
        if not 0.0 <= wp <= wt < math.inf:
            wp, wt = _check_counts(wp, wt)
        fields = self.__dict__
        fields["w_plus"] = wp
        fields["w_total"] = wt

    def __add__(self, other: EvidenceCounts) -> EvidenceCounts:
        return EvidenceCounts(self.w_plus + other.w_plus, self.w_total + other.w_total)

    @classmethod
    def from_dict(cls, data) -> EvidenceCounts:
        return parse_object("counts", data, lambda d: cls(_number(d["w_plus"]), _number(d["w_total"])))


def _check_counts(wp: float, wt: float) -> tuple[float, float]:
    """Counts (w_plus, w_total) outside 0 <= w_plus <= w_total < inf, which each caller tests first:
    rejected unless finite and nonnegative; a w_plus up to 1e-9 relative above w_total snaps to it."""
    if not (math.isfinite(wp) and math.isfinite(wt)) or wp < 0.0 or wt < 0.0:
        raise ValidationError(f"counts must be finite and nonnegative, got ({wp!r}, {wt!r})")
    if wp - wt > 1e-9 * max(1.0, wt):
        raise ValidationError(f"w_plus must not exceed w_total, got ({wp!r}, {wt!r})")
    return min(wp, wt), wt


class ConflictReport(_Value):
    """Two unequal infinite-evidence points: reported, never merged.

    This is a normal outcome handed back to whoever maintains the
    conventions, not a failure of the calculus.
    """

    _fields = ("first", "second")

    def __init__(self, first: float, second: float):
        fields = self.__dict__
        fields["first"] = first
        fields["second"] = second

    def to_dict(self) -> dict:
        return {"conflict": [self.first, self.second]}


def interval_from_counts(c: EvidenceCounts) -> FrequencyInterval:
    """l = w+/(w+1) and u = (w+ + 1)/(w+1)."""
    scale = c.w_total + 1.0
    return FrequencyInterval(c.w_plus / scale, (c.w_plus + 1.0) / scale)


def _counts(fi: FrequencyInterval) -> tuple[float, float]:
    """Checked counts (l / width, (1 - width) / width) of a non-point; a w_plus rounded past w_total snaps to it."""
    l, u = fi.l, fi.u
    if l == u:
        raise InfiniteEvidenceError("a point carries infinite evidence, finite counts do not exist")
    width = u - l
    wp, wt = l / width, (1.0 - width) / width
    if 0.0 <= wp <= wt < math.inf:
        return wp, wt
    if wt == math.inf:
        raise InfiniteEvidenceError(f"total count (1 - {width!r}) / {width!r} overflows, finite counts do not exist")
    return _check_counts(wp, wt)


def counts_from_interval(fi: FrequencyInterval) -> EvidenceCounts:
    """Invert interval_from_counts; points have no finite counts."""
    return EvidenceCounts(*_counts(fi))


def frequency(fi: FrequencyInterval) -> float:
    """Observed frequency w+/w recovered from the bounds: l / (l + 1 - u).

    A point is its own frequency; undefined on the zero-evidence interval
    (0, 1).
    """
    l, u = fi.l, fi.u
    if l == u:
        return l
    if l == 0.0 and u == 1.0:
        raise ZeroEvidenceError("no evidence yet; the frequency is 0/0")
    return l / (l + (1.0 - u))


def ignorance(fi: FrequencyInterval) -> float:
    """Interval width, 1/(w+1); shrinks monotonically as evidence arrives."""
    return fi.u - fi.l


def combine_lu(f1: FrequencyInterval, f2: FrequencyInterval) -> FrequencyInterval:
    """Pool two finite bodies of evidence.

    With widths i1, i2 the result is
    l = (l1*i2 + l2*i1) / (i1 + i2 - i1*i2), u = l + i1*i2 / (same), which
    is exactly addition of the underlying counts.  Total ignorance (0, 1)
    is a two-sided identity: the other operand comes back.
    """
    l1, u1, l2, u2 = f1.l, f1.u, f2.l, f2.u
    if l1 == u1 or l2 == u2:
        raise InfiniteEvidenceError(
            "points cannot be pooled by the interval rule; "
            "use combine_with_point or combine_points"
        )
    if l1 == 0.0 and u1 == 1.0:
        return f2
    if l2 == 0.0 and u2 == 1.0:
        return f1
    i1 = u1 - l1
    i2 = u2 - l2
    denom = i1 + i2 - i1 * i2
    shared = l1 * i2 + l2 * i1
    u = (shared + i1 * i2) / denom  # can round one ulp above 1
    return FrequencyInterval(shared / denom, u if u <= 1.0 else 1.0)


def combine_with_point(point: FrequencyInterval, fi: FrequencyInterval) -> FrequencyInterval:
    """Finite evidence cannot move a probability fixed by convention."""
    if not point.is_point or fi.is_point:
        raise ValidationError("expected one point and one genuine interval")
    return point


def combine_points(p1: FrequencyInterval, p2: FrequencyInterval) -> FrequencyInterval | ConflictReport:
    """Identical conventions are deduplicated; unequal ones are reported."""
    if not (p1.is_point and p2.is_point):
        raise ValidationError("both operands must be points")
    if abs(p1.l - p2.l) <= POINT_TOLERANCE:
        return p1
    return ConflictReport(p1.l, p2.l)


def pool_lu(f1: FrequencyInterval, f2: FrequencyInterval) -> FrequencyInterval | ConflictReport:
    """Pool two frequency values: two intervals by combine_lu, a point and an
    interval by combine_with_point, two points by combine_points."""
    if f1.is_point and f2.is_point:
        return combine_points(f1, f2)
    if f1.is_point:
        return combine_with_point(f1, f2)
    if f2.is_point:
        return combine_with_point(f2, f1)
    return combine_lu(f1, f2)


def weights_from_counts(c: EvidenceCounts) -> EvidenceWeights:
    """The finite weights (w+, w - w+) behind accumulated counts."""
    return EvidenceWeights.finite(c.w_plus, c.w_total - c.w_plus)


def counts_from_weights(w: EvidenceWeights) -> EvidenceCounts:
    """The counts (w+, w+ + w-) of finite weights; infinite ones, and finite ones whose total overflows, have none."""
    if not w.is_finite:
        raise InfiniteEvidenceError("infinite weight has no finite counts form")
    total = w.w_plus + w.w_minus
    if total == math.inf:
        raise InfiniteEvidenceError(f"total weight {w.w_plus!r} + {w.w_minus!r} overflows, finite counts do not exist")
    return EvidenceCounts(w.w_plus, total)


def lu_from_weights(w: EvidenceWeights) -> FrequencyInterval:
    """The frequency interval of weights; infinite ones give a point."""
    if w.kind != FINITE:
        return FrequencyInterval.point(delta_limit(w.delta))
    return interval_from_counts(counts_from_weights(w))


def lu_from_belpl(iv: BeliefInterval) -> FrequencyInterval:
    """Carry a belief interval onto the frequency scale through its weights.

    Bayesian inputs map to points at 1/(1 + e^{delta}).
    """
    bel, pl = iv.bel, iv.pl
    if bel == pl:
        return lu_from_weights(weights_from_belief(iv))
    # interval_from_counts(counts_from_weights(...)) of the finite weights, on floats
    wp, wm = _finite_weights(bel, iv._carried)
    scale = wp + wm + 1.0  # _finite_weights' bounds keep the counts (wp, wp + wm) inside their check
    return FrequencyInterval(wp / scale, (wp + 1.0) / scale)


def belpl_from_lu(fi: FrequencyInterval) -> BeliefInterval:
    """Inverse of lu_from_belpl; a point has no finite counts (InfiniteEvidenceError)."""
    wp, wt = _counts(fi)
    # checked counts give weights that pass EvidenceWeights' check
    return _carrying(*_belief_parts(wp, wt - wp))
