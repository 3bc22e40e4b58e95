"""The constructors' in-range fast checks and the float-level maps against their references.

Each value constructor tests the common in-range case with one comparison
and repairs or rejects only outside it; belpl_from_lu and lu_from_belpl,
which the kernels benchmark runs, compute on floats instead of building
intermediate values, and lu_from_weights and positive_proportion are written
as their public chains.  Here every constructor must give, bit for bit (the
sign of zero included), what its repair path gives on the same input, and
raise the same class with the same message where that path raises; each
map must give what the public chain of maps gives, BeliefInterval's carried
complement and width included.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evcalc import (
    SUM_TOLERANCE,
    BeliefInterval,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    MassAssignment,
    InfiniteEvidenceError,
    TotalConflictError,
    ValidationError,
    ZeroEvidenceError,
    belief_from_weights,
    belpl_from_lu,
    combine_interval,
    counts_from_interval,
    counts_from_weights,
    interval_from_counts,
    interval_to_mass,
    lu_from_belpl,
    lu_from_weights,
    mass_to_interval,
    positive_proportion,
    weights_from_belief,
    weights_from_counts,
)
from evcalc.binary_frame import _clamp_unit, _unit_pair
from evcalc.lower_upper import POINT_TOLERANCE, _check_counts

EDGES = [0.0, -0.0, 1.0, 0.5, 1e-12, -1e-12, -5e-13, 1.0 + 5e-13, 1.0 + 1e-12, 1.0 - 1e-12, 2.0, -1.0,
         5e-324, 1e308, math.nan, math.inf, -math.inf]

# floats around 0 and 1 inside and just beyond the 1e-12 slack, any float,
# ints and numeric strings (the constructors coerce them with float())
floats = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=-3e-12, max_value=3e-12),
    st.floats(min_value=1.0 - 3e-12, max_value=1.0 + 3e-12),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(),
)
reals = st.one_of(floats, st.integers(min_value=-2, max_value=3), floats.map(repr), st.integers(0, 9).map(str))
weights = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=-3e-12, max_value=3e-12),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(),
    st.integers(min_value=-2, max_value=1000),
    st.floats(min_value=0.0, max_value=50.0).map(repr),
)


def outcome(call, *args):
    """The float.hex of each of call(*args), or the class and message it raised."""
    try:
        result = call(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return tuple(map(float.hex, result))
    fields = tuple(float.hex(getattr(result, name)) for name in result._fields)
    carried = getattr(result, "_carried", None)
    return fields, carried and tuple(map(float.hex, carried))


def fields(cls):
    return lambda *args: tuple(getattr(cls(*args), name) for name in cls._fields)


@given(reals, reals)
def test_belief_interval_equals_its_repair(bel, pl):
    repair = lambda b, p: _unit_pair(float(b), float(p), "bel", "pl", SUM_TOLERANCE)  # noqa: E731
    assert outcome(fields(BeliefInterval), bel, pl) == outcome(repair, bel, pl)


@given(reals, reals)
def test_frequency_interval_equals_its_repair(l, u):
    repair = lambda lo, hi: _unit_pair(float(lo), float(hi), "l", "u", POINT_TOLERANCE)  # noqa: E731
    assert outcome(fields(FrequencyInterval), l, u) == outcome(repair, l, u)


# near-normalized triples, each part possibly just outside [0, 1] within the slack
slack = st.floats(min_value=-2e-12, max_value=2e-12)
part = st.one_of(st.sampled_from([0.0, -0.0]), slack, st.floats(0.0, 1.0))
near_masses = st.tuples(part, part, slack, st.permutations(range(3))).map(
    lambda p: tuple((p[0], p[1], 1.0 + p[2] - p[0] - p[1])[i] for i in p[3])
)


@given(st.one_of(st.tuples(reals, reals, reals), near_masses))
def test_mass_assignment_equals_its_repair(masses):
    m_h, m_not_h, m_theta = masses
    # each field clamped in field order, then the sum check and renormalization
    def repair(*parts):
        clamped = [_clamp_unit(x, name) for x, name in zip(parts, MassAssignment._fields)]
        return tuple(getattr(MassAssignment(*clamped), name) for name in MassAssignment._fields)

    assert outcome(fields(MassAssignment), m_h, m_not_h, m_theta) == outcome(repair, m_h, m_not_h, m_theta)


def test_mass_assignment_raises_for_the_first_bad_field():
    # a bad first field is reported before a later one that float() rejects
    for later in (None, "x", [1]):
        assert outcome(MassAssignment, math.nan, later, 0.0) == (ValidationError, "m_h must be a finite real, got nan")
    with pytest.raises(ValidationError):
        MassAssignment(0.5, None, 0.5)


def weights_repair(w_plus, w_minus):
    """EvidenceWeights' finite check, written out as its repair path."""
    wp, wm = float(w_plus), float(w_minus)
    if not (math.isfinite(wp) and math.isfinite(wm)) or wp < -SUM_TOLERANCE or wm < -SUM_TOLERANCE:
        raise ValidationError(f"weights must be finite and nonnegative, got ({w_plus!r}, {w_minus!r})")
    return max(wp, 0.0), max(wm, 0.0)


@given(weights, weights)
def test_finite_weights_equal_their_repair(w_plus, w_minus):
    def finite(wp, wm):
        w = EvidenceWeights.finite(wp, wm)
        return w.w_plus, w.w_minus

    assert outcome(finite, w_plus, w_minus) == outcome(weights_repair, w_plus, w_minus)


def counts_repair(wp, wt):
    """EvidenceCounts' check, written out as its repair path."""
    if not (math.isfinite(wp) and math.isfinite(wt)) or wp < 0.0 or wt < 0.0:
        raise ValidationError(f"counts must be finite and nonnegative, got ({wp!r}, {wt!r})")
    if wp > wt:
        if wp - wt > 1e-9 * max(1.0, wt):
            raise ValidationError(f"w_plus must not exceed w_total, got ({wp!r}, {wt!r})")
        wp = wt
    return wp, wt


# w_total and a w_plus near it: equal, just above within 1e-9 relative, beyond it
counts = st.one_of(
    st.tuples(weights, weights),
    st.tuples(st.floats(0.0, 1e6), st.floats(-2e-9, 2e-9)).map(lambda p: (p[0] * (1.0 + p[1]), p[0])),
    st.floats(0.0, 1e6).map(lambda wt: (wt, wt)),
)


@given(counts)
def test_counts_equal_their_repair(pair):
    wp, wt = pair
    repair = lambda a, b: counts_repair(float(a), float(b))  # noqa: E731
    assert outcome(fields(EvidenceCounts), wp, wt) == outcome(repair, wp, wt)
    if isinstance(wp, float) and isinstance(wt, float):
        assert outcome(_check_counts, wp, wt) == outcome(counts_repair, wp, wt)


def chained_belief(fi):
    return belief_from_weights(weights_from_counts(counts_from_interval(fi)))


# frequency intervals: any pair, points, one-ulp intervals and those of counts up to 1e15
intervals = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda p: FrequencyInterval(min(p), max(p))),
    st.floats(0.0, 1.0).map(FrequencyInterval.point),
    st.floats(0.0, 0.99).map(lambda l: FrequencyInterval(l, math.nextafter(l, 1.0))),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e15)).map(
        lambda p: interval_from_counts(EvidenceCounts(p[0] * p[1], p[1]))
    ),
)


@given(intervals)
def test_belpl_from_lu_equals_the_public_chain(fi):
    assert outcome(belpl_from_lu, fi) == outcome(chained_belief, fi)


# finite weights up to the largest float, whose sum can overflow the counts check
finite_weight = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 700.0, 1e308, 1.7e308]), st.floats(0.0, 50.0), st.floats(0.0, 1e308)
)
finite_weights = st.tuples(finite_weight, finite_weight).map(lambda p: EvidenceWeights.finite(*p))


@given(finite_weights)
def test_lu_from_weights_equals_the_public_chain(w):
    assert outcome(lu_from_weights, w) == outcome(lambda v: interval_from_counts(counts_from_weights(v)), w)


def log1p_ratio(part, width):
    """log(1 + part / width), kept finite where part / width overflows."""
    ratio = part / width
    return math.log(part) - math.log(width) if ratio == math.inf else math.log1p(ratio)


# weights whose carried width is at or near the bottom of the float range,
# where part / width overflows
extreme_weights = st.tuples(st.floats(700.0, 745.0), st.floats(0.0, 745.0), st.booleans()).map(
    lambda p: EvidenceWeights.finite(*(p[:2] if p[2] else p[1::-1]))
)


@given(st.one_of(extreme_weights, finite_weights))
def test_weights_from_belief_reads_each_part_as_a_log_ratio(w):
    iv = belief_from_weights(w)
    if iv.bel == iv.pl:
        return
    m_h, m_not_h, width = iv.masses()
    expected = (log1p_ratio(m_h, width), log1p_ratio(m_not_h, width))
    back = weights_from_belief(iv)
    assert outcome(lambda: (back.w_plus, back.w_minus)) == outcome(lambda: expected)


def weights_fields(w):
    """(kind, w_plus, w_minus, delta) of weights, each float as float.hex."""
    return tuple(v.hex() if isinstance(v, float) else v for v in (w.kind, w.w_plus, w.w_minus, w.delta))


def read_weights(iv):
    """weights_from_belief written out on the public masses(): log(1 + part / width) of each part."""
    if iv.bel == iv.pl:
        return weights_from_belief(iv)
    m_h, m_not_h, width = iv.masses()
    return EvidenceWeights.finite(log1p_ratio(m_h, width), log1p_ratio(m_not_h, width))


def chained_proportion(iv):
    """w+ / (w+ + w-) of weights_from_belief, with positive_proportion's errors."""
    w = weights_from_belief(iv)
    if not w.is_finite:
        raise InfiniteEvidenceError("a Bayesian point carries infinite weight; the proportion is undefined")
    total = w.w_plus + w.w_minus
    if total == 0.0:
        raise ZeroEvidenceError("the vacuous interval carries zero weight (0/0)")
    return (w.w_plus / total,)


def combined(pair):
    """combine_interval of the pair, or None where the two are in total conflict."""
    try:
        return combine_interval(*pair)
    except TotalConflictError:
        return None


# belief intervals: plain pairs (zeros of both signs and the ends included),
# weight-built ones with carried parts, Bayesian points and one-ulp intervals,
# and the other maps' carrying results: combine_interval of two of those and
# mass_to_interval of their masses
unit = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0]), st.floats(0.0, 1.0))
built_intervals = st.one_of(
    st.tuples(unit, unit).map(lambda p: BeliefInterval(*sorted(p))),
    st.one_of(extreme_weights, finite_weights).map(belief_from_weights),
    unit.map(lambda b: BeliefInterval(b, b)),
    unit.map(lambda b: BeliefInterval(math.nextafter(b, 0.0), b) if b else BeliefInterval(0.0, 5e-324)),
)
belief_intervals = st.one_of(
    built_intervals,
    st.one_of(
        st.tuples(built_intervals, built_intervals).map(combined).filter(lambda iv: iv is not None),
        built_intervals.map(lambda iv: mass_to_interval(interval_to_mass(iv))),
    ),
)


@given(belief_intervals)
def test_lu_from_belpl_equals_the_public_chain(iv):
    assert outcome(lu_from_belpl, iv) == outcome(lambda v: lu_from_weights(weights_from_belief(v)), iv)
    assert weights_fields(weights_from_belief(iv)) == weights_fields(read_weights(iv))
    assert outcome(lambda v: (positive_proportion(v),), iv) == outcome(chained_proportion, iv)
