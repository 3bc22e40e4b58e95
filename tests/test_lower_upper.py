"""Lower/upper frequency intervals, their rule, and the belief-scale bridge."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from evcalc import (
    BeliefInterval,
    ConflictReport,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    InfiniteEvidenceError,
    ValidationError,
    ZeroEvidenceError,
    belpl_from_lu,
    combine_interval,
    combine_lu,
    combine_points,
    combine_with_point,
    counts_from_interval,
    counts_from_weights,
    delta_limit,
    frequency,
    ignorance,
    interval_from_counts,
    lu_from_belpl,
    lu_from_weights,
    pool_lu,
    weights_from_counts,
)
from strategies import evidence_counts, finite_weights, weighted_intervals

LN2 = math.log(2)


# --- interval_from_counts / counts_from_interval ---


def test_interval_from_counts_examples():
    assert interval_from_counts(EvidenceCounts(0, 0)) == FrequencyInterval(0.0, 1.0)
    big = interval_from_counts(EvidenceCounts(600, 1000))
    assert big.l == pytest.approx(600 / 1001, abs=1e-15)
    assert big.u == pytest.approx(601 / 1001, abs=1e-15)
    small = interval_from_counts(EvidenceCounts(6, 10))
    assert small.l == pytest.approx(6 / 11, abs=1e-15)
    assert small.u == pytest.approx(7 / 11, abs=1e-15)


def test_counts_from_interval_examples():
    assert counts_from_interval(FrequencyInterval(0.0, 1.0)) == EvidenceCounts(0.0, 0.0)
    c = counts_from_interval(FrequencyInterval(6 / 11, 7 / 11))
    assert c.w_plus == pytest.approx(6.0, rel=1e-12)
    assert c.w_total == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(InfiniteEvidenceError):
        counts_from_interval(FrequencyInterval.point(0.5))
    with pytest.raises(InfiniteEvidenceError):
        counts_from_weights(EvidenceWeights.infinite(0.0))


@given(c=evidence_counts(), w=finite_weights())
def test_counts_round_trip(c, w):
    for back in (counts_from_interval(interval_from_counts(c)), counts_from_weights(weights_from_counts(c))):
        assert back.w_plus == pytest.approx(c.w_plus, rel=1e-9, abs=1e-9)
        assert back.w_total == pytest.approx(c.w_total, rel=1e-9, abs=1e-9)
    # weights -> lu -> counts -> weights
    back = weights_from_counts(counts_from_interval(lu_from_weights(w)))
    assert back.w_plus == pytest.approx(w.w_plus, rel=1e-9, abs=1e-9)
    assert back.w_minus == pytest.approx(w.w_minus, rel=1e-9, abs=1e-9)


@given(c=evidence_counts())
def test_width_is_reciprocal_evidence(c):
    fi = interval_from_counts(c)
    assert ignorance(fi) == pytest.approx(1.0 / (c.w_total + 1.0), rel=1e-12)


# --- frequency / ignorance ---


def test_frequency_examples():
    assert frequency(interval_from_counts(EvidenceCounts(6, 10))) == pytest.approx(0.6, abs=1e-12)
    assert frequency(interval_from_counts(EvidenceCounts(600, 1000))) == pytest.approx(0.6, abs=1e-12)
    assert frequency(FrequencyInterval.point(0.42)) == 0.42


def test_frequency_undefined_without_evidence():
    with pytest.raises(ZeroEvidenceError):
        frequency(FrequencyInterval(0.0, 1.0))


@given(c=evidence_counts(min_total=1e-6))
def test_frequency_sits_inside_the_interval(c):
    fi = interval_from_counts(c)
    f = frequency(fi)
    assert fi.l <= f + 1e-12
    assert f <= fi.u + 1e-12
    assert f == pytest.approx(c.w_plus / c.w_total, rel=1e-9, abs=1e-9)


def test_ignorance_examples():
    assert ignorance(FrequencyInterval(0.0, 1.0)) == 1.0
    assert ignorance(interval_from_counts(EvidenceCounts(6, 10))) == pytest.approx(1 / 11, abs=1e-15)
    assert ignorance(FrequencyInterval.point(0.3)) == 0.0


# --- combine_lu and the point protocol ---


def test_combine_lu_identity_example_exact():
    assert combine_lu(FrequencyInterval(0.0, 1.0), FrequencyInterval(0.3, 0.5)) == FrequencyInterval(0.3, 0.5)


def test_combine_lu_examples():
    got = combine_lu(FrequencyInterval(0.5, 1.0), FrequencyInterval(0.0, 0.5))
    assert got.l == pytest.approx(1 / 3, abs=1e-15)
    assert got.u == pytest.approx(2 / 3, abs=1e-15)
    got = combine_lu(
        interval_from_counts(EvidenceCounts(6, 10)),
        interval_from_counts(EvidenceCounts(600, 1000)),
    )
    assert got.l == pytest.approx(606 / 1011, abs=1e-12)
    assert got.u == pytest.approx(607 / 1011, abs=1e-12)


@given(c1=evidence_counts(), c2=evidence_counts())
def test_combine_lu_is_count_addition(c1, c2):
    pooled = combine_lu(interval_from_counts(c1), interval_from_counts(c2))
    direct = interval_from_counts(c1 + c2)
    assert pooled.l == pytest.approx(direct.l, abs=1e-12)
    assert pooled.u == pytest.approx(direct.u, abs=1e-12)


@given(c1=evidence_counts(), c2=evidence_counts())
def test_combine_lu_commutative_exactly(c1, c2):
    f1, f2 = interval_from_counts(c1), interval_from_counts(c2)
    assert combine_lu(f1, f2) == combine_lu(f2, f1)


@given(c1=evidence_counts(), c2=evidence_counts(), c3=evidence_counts())
def test_combine_lu_associative(c1, c2, c3):
    f1, f2, f3 = (interval_from_counts(c) for c in (c1, c2, c3))
    left = combine_lu(combine_lu(f1, f2), f3)
    right = combine_lu(f1, combine_lu(f2, f3))
    assert left.l == pytest.approx(right.l, abs=1e-12)
    assert left.u == pytest.approx(right.u, abs=1e-12)


@given(c=evidence_counts())
def test_total_ignorance_is_identity(c):
    fi = interval_from_counts(c)
    assert combine_lu(FrequencyInterval.total_ignorance(), fi) == fi
    assert combine_lu(fi, FrequencyInterval.total_ignorance()) == fi


@given(
    c1=evidence_counts(min_total=0.01, max_total=1e6),
    c2=evidence_counts(min_total=0.01, max_total=1e6),
)
def test_ignorance_strictly_shrinks(c1, c2):
    f1, f2 = interval_from_counts(c1), interval_from_counts(c2)
    pooled = combine_lu(f1, f2)
    assert ignorance(pooled) < min(ignorance(f1), ignorance(f2))


def test_combine_lu_rejects_points():
    with pytest.raises(InfiniteEvidenceError):
        combine_lu(FrequencyInterval.point(0.5), FrequencyInterval(0.2, 0.9))


def test_point_absorbs_finite_evidence():
    p = FrequencyInterval.point(0.51)
    assert combine_with_point(p, FrequencyInterval(0.2, 0.9)) == p
    assert combine_with_point(FrequencyInterval.point(0.0), FrequencyInterval(0.0, 1.0)) == FrequencyInterval.point(0.0)
    assert combine_with_point(FrequencyInterval.point(1.0), FrequencyInterval(0.0, 1.0)) == FrequencyInterval.point(1.0)
    with pytest.raises(ValidationError):
        combine_with_point(FrequencyInterval(0.2, 0.9), FrequencyInterval(0.2, 0.9))


def test_identical_points_deduplicate():
    p = FrequencyInterval.point(0.5)
    assert combine_points(p, FrequencyInterval.point(0.5)) == p
    # equality tolerance: a rounding-sized disagreement is the same convention
    assert combine_points(p, FrequencyInterval.point(0.5 + 5e-13)) == p


def test_conflicting_points_are_reported_not_merged():
    report = combine_points(FrequencyInterval.point(0.51), FrequencyInterval.point(0.99))
    assert report == ConflictReport(0.51, 0.99)
    assert report.to_dict() == {"conflict": [0.51, 0.99]}
    extreme = combine_points(FrequencyInterval.point(0.0), FrequencyInterval.point(1.0))
    assert extreme == ConflictReport(0.0, 1.0)
    with pytest.raises(ValidationError):
        combine_points(FrequencyInterval.point(0.5), FrequencyInterval(0.2, 0.9))


@pytest.mark.parametrize(
    "f1, f2, expected",
    [
        (FrequencyInterval(0.3, 0.5), FrequencyInterval(0.2, 0.9),
         combine_lu(FrequencyInterval(0.3, 0.5), FrequencyInterval(0.2, 0.9))),
        (FrequencyInterval.point(0.51), FrequencyInterval(0.2, 0.9), FrequencyInterval.point(0.51)),
        (FrequencyInterval(0.2, 0.9), FrequencyInterval.point(0.51), FrequencyInterval.point(0.51)),
        (FrequencyInterval.point(0.5), FrequencyInterval.point(0.5 + 5e-13), FrequencyInterval.point(0.5)),
        (FrequencyInterval.point(0.51), FrequencyInterval.point(0.99), ConflictReport(0.51, 0.99)),
    ],
    ids=["intervals", "point-interval", "interval-point", "equal-points", "unequal-points"],
)
def test_pool_lu_follows_the_protocol(f1, f2, expected):
    assert pool_lu(f1, f2) == expected


# --- bridge to the belief scale ---


def test_lu_from_belpl_examples():
    assert lu_from_belpl(BeliefInterval.vacuous()) == FrequencyInterval(0.0, 1.0)
    fi = lu_from_belpl(BeliefInterval(0.5, 1.0))
    assert fi.l == pytest.approx(LN2 / (LN2 + 1.0), abs=1e-12)
    assert fi.u == 1.0
    assert lu_from_belpl(BeliefInterval(0.5, 0.5)) == FrequencyInterval.point(0.5)
    assert lu_from_weights(EvidenceWeights.infinite(1.5)) == FrequencyInterval.point(delta_limit(1.5))


def test_belpl_from_lu_examples():
    assert belpl_from_lu(FrequencyInterval(0.0, 1.0)) == BeliefInterval(0.0, 1.0)
    iv = belpl_from_lu(FrequencyInterval(LN2 / (LN2 + 1.0), 1.0))
    assert iv.bel == pytest.approx(0.5, abs=1e-12)
    assert iv.pl == pytest.approx(1.0, abs=1e-12)
    # counts (1, 1) mean weights (1, 0), so bel = (e - 1)/e
    iv = belpl_from_lu(FrequencyInterval(0.5, 1.0))
    assert iv.bel == pytest.approx((math.e - 1.0) / math.e, rel=1e-14)
    assert iv.pl == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InfiniteEvidenceError):
        belpl_from_lu(FrequencyInterval.point(0.5))


@given(iv=weighted_intervals())
def test_belpl_lu_round_trip(iv):
    back = belpl_from_lu(lu_from_belpl(iv))
    assert back.bel == pytest.approx(iv.bel, abs=1e-9)
    assert back.pl == pytest.approx(iv.pl, abs=1e-9)


@given(w1=finite_weights(max_weight=8.0), w2=finite_weights(max_weight=8.0))
def test_rule_conjugacy(w1, w2):
    # mapping then combining equals combining then mapping
    from evcalc import belief_from_weights

    x1, x2 = belief_from_weights(w1), belief_from_weights(w2)
    lhs = lu_from_belpl(combine_interval(x1, x2))
    rhs = combine_lu(lu_from_belpl(x1), lu_from_belpl(x2))
    assert lhs.l == pytest.approx(rhs.l, abs=1e-9)
    assert lhs.u == pytest.approx(rhs.u, abs=1e-9)


# --- value types and JSON ---


def test_frequency_interval_validation():
    with pytest.raises(ValidationError):
        FrequencyInterval(0.7, 0.2)
    with pytest.raises(ValidationError):
        FrequencyInterval(-0.2, 0.5)
    squashed = FrequencyInterval(0.5 + 1e-16, 0.5)
    assert squashed.is_point


def test_evidence_counts_validation():
    with pytest.raises(ValidationError):
        EvidenceCounts(-1.0, 2.0)
    with pytest.raises(ValidationError):
        EvidenceCounts(3.0, 2.0)
    with pytest.raises(ValidationError):
        EvidenceCounts(1.0, math.inf)
    clamped = EvidenceCounts(1.0 + 1e-12, 1.0)
    assert clamped.w_plus == clamped.w_total == 1.0
    assert EvidenceCounts(1, 2) + EvidenceCounts(3, 4) == EvidenceCounts(4, 6)


def test_json_forms():
    fi = FrequencyInterval(0.25, 0.75)
    assert fi.to_dict() == {"kind": "interval", "l": 0.25, "u": 0.75}
    assert fi.kind == "interval"
    assert FrequencyInterval.from_dict(fi.to_dict()) == fi
    p = FrequencyInterval.point(0.4)
    assert p.to_dict() == {"kind": "point", "value": 0.4}
    assert p.kind == "point"
    assert FrequencyInterval.from_dict(p.to_dict()) == p
    with pytest.raises(ValidationError):
        FrequencyInterval.from_dict({"kind": "triangle", "l": 0, "u": 1})
    assert EvidenceCounts.from_dict({"w_plus": 6, "w_total": 10}) == EvidenceCounts(6.0, 10.0)
    assert list(EvidenceCounts(6, 10).to_dict().items()) == [("w_plus", 6.0), ("w_total", 10.0)]
