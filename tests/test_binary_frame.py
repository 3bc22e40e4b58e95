"""Mass/interval value types and their lossless conversions."""

import math

import pytest
from hypothesis import given

from evcalc import (
    SUM_TOLERANCE,
    BeliefInterval,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    MassAssignment,
    ValidationError,
    belief_from_weights,
    interval_to_mass,
    lu_from_belpl,
    mass_to_interval,
    support_from_weight,
    weights_from_belief,
)
from strategies import belief_intervals, mass_assignments


@pytest.mark.parametrize(
    "mass, expected",
    [
        ((0.0, 0.0, 1.0), (0.0, 1.0)),  # vacuous
        ((0.5, 0.0, 0.5), (0.5, 1.0)),  # simple support
        ((0.2, 0.3, 0.5), (0.2, 0.7)),
    ],
)
def test_mass_to_interval_examples(mass, expected):
    iv = mass_to_interval(MassAssignment(*mass))
    assert iv.bel == pytest.approx(expected[0], abs=1e-15)
    assert iv.pl == pytest.approx(expected[1], abs=1e-15)


@pytest.mark.parametrize(
    "interval, expected",
    [
        ((0.0, 1.0), (0.0, 0.0, 1.0)),
        ((0.2, 0.7), (0.2, 0.3, 0.5)),
        ((0.6, 0.6), (0.6, 0.4, 0.0)),  # Bayesian point has no frame mass
    ],
)
def test_interval_to_mass_examples(interval, expected):
    m = interval_to_mass(BeliefInterval(*interval))
    assert m.m_h == pytest.approx(expected[0], abs=1e-15)
    assert m.m_not_h == pytest.approx(expected[1], abs=1e-15)
    assert m.m_theta == pytest.approx(expected[2], abs=1e-15)


@given(m=mass_assignments())
def test_round_trip_mass_interval_mass(m):
    # exact up to one rounding of 1 - (1 - x); see the complement identity
    back = interval_to_mass(mass_to_interval(m))
    assert back.m_h == pytest.approx(m.m_h, abs=1e-15)
    assert back.m_not_h == pytest.approx(m.m_not_h, abs=1e-15)
    assert back.m_theta == pytest.approx(m.m_theta, abs=1e-15)


@given(iv=belief_intervals())
def test_round_trip_interval_mass_interval(iv):
    back = mass_to_interval(interval_to_mass(iv))
    assert back.bel == pytest.approx(iv.bel, abs=1e-15)
    assert back.pl == pytest.approx(iv.pl, abs=1e-15)


def test_mass_renormalizes_within_tolerance():
    m = MassAssignment(0.2, 0.3, 0.5 + 4e-13)
    assert m.m_h + m.m_not_h + m.m_theta == pytest.approx(1.0, abs=1e-15)
    assert m.m_theta == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "mass",
    [
        (0.2, 0.3, 0.51),  # sum beyond tolerance
        (-0.1, 0.6, 0.5),  # negative component
        (1.1, 0.0, -0.1),
        (float("nan"), 0.5, 0.5),
        (float("inf"), 0.0, 0.0),
    ],
)
def test_invalid_mass_rejected(mass):
    with pytest.raises(ValidationError):
        MassAssignment(*mass)


def test_weights_survive_a_round_trip_through_masses():
    # mass_to_interval carries m_not_h and m_theta; rebuilt from pl = 1 - m_not_h
    # they cancel, and these weights came back as (16.65, 39.65)
    iv = mass_to_interval(interval_to_mass(belief_from_weights(EvidenceWeights.finite(23.0, 46.0))))
    back = weights_from_belief(iv)
    assert back.w_plus == pytest.approx(23.0, rel=1e-12)
    assert back.w_minus == pytest.approx(46.0, rel=1e-12)


def test_mass_to_interval_keeps_a_mass_that_one_minus_pl_rounds_away():
    m = MassAssignment(1.0 - 1e-10, 1e-20, 1e-10 - 1e-20)
    assert m.m_not_h == 1e-20
    iv = mass_to_interval(m)
    assert iv.pl == 1.0
    assert iv.masses() == (m.m_h, 1e-20, m.m_theta)
    assert interval_to_mass(iv).m_not_h == 1e-20


@pytest.mark.parametrize(
    "mass",
    [(0.3, 0.7, 0.0), (0.3, 0.7, 5e-324), (0.6, 0.4, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
)
def test_a_bayesian_mass_maps_to_a_bayesian_point(mass):
    # pl is bel + m_theta, so no mass on the frame is no width: (0.3, 0.7, 0)
    # sums to exactly 1.0, but 1 - 0.7 is 0.30000000000000004
    m = MassAssignment(*mass)
    iv = mass_to_interval(m)
    assert iv.bel == iv.pl == m.m_h
    point = BeliefInterval(m.m_h, m.m_h)
    assert weights_from_belief(iv) == weights_from_belief(point)
    assert lu_from_belpl(iv) == lu_from_belpl(point)


@pytest.mark.parametrize("delta", [0.8, -3.0, 0.0])
def test_infinite_weights_survive_a_round_trip_through_masses(delta):
    point = belief_from_weights(EvidenceWeights.infinite(delta))
    iv = mass_to_interval(interval_to_mass(point))
    assert iv == point
    assert weights_from_belief(iv) == weights_from_belief(point)


@given(m=mass_assignments())
def test_every_mass_has_weights_and_frequencies_through_its_interval(m):
    iv = mass_to_interval(m)
    weights_from_belief(iv)
    lu_from_belpl(iv)


# h + (total - h) is exactly total for h = 0.5 and total near 1 (Sterbenz).
# A sum passes when total - 1.0, which is exact there, is within
# SUM_TOLERANCE.  The float 1.0 + SUM_TOLERANCE lies above 1 + 1e-12, so the
# last sum in above is the float below it; 1.0 - SUM_TOLERANCE is in.
_LAST_IN = {"above": math.nextafter(1.0 + SUM_TOLERANCE, 0.0), "below": 1.0 - SUM_TOLERANCE}
_FIRST_OUT = {"above": 1.0 + SUM_TOLERANCE, "below": math.nextafter(1.0 - SUM_TOLERANCE, 0.0)}


@pytest.mark.parametrize("side", ["above", "below"])
def test_a_sum_at_the_tolerance_is_renormalized(side):
    total = _LAST_IN[side]
    m = MassAssignment(0.5, total - 0.5, 0.0)
    assert (m.m_h, m.m_not_h, m.m_theta) == (0.5 / total, (total - 0.5) / total, 0.0)


@pytest.mark.parametrize("side", ["above", "below"])
def test_the_next_sum_outside_the_tolerance_raises(side):
    total = _FIRST_OUT[side]
    assert math.nextafter(total, 1.0) == _LAST_IN[side]
    with pytest.raises(ValidationError) as info:
        MassAssignment(0.5, total - 0.5, 0.0)
    assert str(info.value) == f"masses must sum to 1, got {total!r}"


@pytest.mark.parametrize("interval", [(0.7, 0.2), (-0.1, 0.5), (0.5, 1.2), (float("nan"), 1.0)])
def test_invalid_interval_rejected(interval):
    with pytest.raises(ValidationError):
        BeliefInterval(*interval)


def test_sub_tolerance_inversion_collapses_to_point():
    iv = BeliefInterval(0.5 + 1e-16, 0.5)
    assert iv.bel == iv.pl
    assert iv.is_bayesian


def test_bayesian_flag():
    assert BeliefInterval(0.6, 0.6).is_bayesian
    assert not BeliefInterval(0.6, 0.7).is_bayesian
    assert not BeliefInterval.vacuous().is_bayesian


def test_json_forms():
    m = MassAssignment(0.2, 0.3, 0.5)
    assert m.to_dict() == {"m_h": 0.2, "m_not_h": 0.3, "m_theta": 0.5}
    assert MassAssignment.from_dict(m.to_dict()) == m
    iv = BeliefInterval(0.2, 0.7)
    assert iv.to_dict() == {"bel": 0.2, "pl": 0.7}
    assert BeliefInterval.from_dict(iv.to_dict()) == iv


# (value type, its name in parse errors, a well-formed JSON object)
PARSERS = [
    (BeliefInterval, "belief interval", {"bel": 0.2, "pl": 0.7}),
    (MassAssignment, "mass", {"m_h": 0.2, "m_not_h": 0.3, "m_theta": 0.5}),
    (EvidenceWeights, "weights", {"kind": "finite", "w_plus": 1.0, "w_minus": 2.0}),
    (FrequencyInterval, "frequency", {"kind": "interval", "l": 0.3, "u": 0.5}),
    (EvidenceCounts, "counts", {"w_plus": 6.0, "w_total": 10.0}),
]


def _malformed(valid: dict, case: str):
    last = list(valid)[-1]  # a number field, never "kind"
    return {
        "empty": {},
        "missing_field": {key: value for key, value in valid.items() if key != last},
        "non_number_field": {**valid, last: "x"},
        "number": 42,
        "list": list(valid.values()),
    }[case]


@pytest.mark.parametrize("case", ["empty", "missing_field", "non_number_field", "number", "list"])
@pytest.mark.parametrize("cls, what, valid", PARSERS, ids=[p[0].__name__ for p in PARSERS])
def test_bad_json_rejected(cls, what, valid, case):
    assert cls.from_dict(valid).to_dict() == valid
    with pytest.raises(ValidationError, match=f"^bad {what} object: "):
        cls.from_dict(_malformed(valid, case))


# (constructor, its fields in order, valid values for them)
CONSTRUCTORS = [
    (BeliefInterval, ("bel", "pl"), (0.2, 0.7)),
    (MassAssignment, ("m_h", "m_not_h", "m_theta"), (0.2, 0.3, 0.5)),
    (EvidenceWeights.finite, ("w_plus", "w_minus"), (1.0, 2.0)),
    (EvidenceWeights.infinite, ("delta",), (1.0,)),
    (FrequencyInterval, ("l", "u"), (0.3, 0.5)),
    (EvidenceCounts, ("w_plus", "w_total"), (6.0, 10.0)),
]


@pytest.mark.parametrize("bad", [None, "x", [1], 10**400], ids=["None", "str", "list", "int_past_float_range"])
@pytest.mark.parametrize("ctor, names, valid", CONSTRUCTORS, ids=[c[0].__qualname__ for c in CONSTRUCTORS])
def test_the_first_field_that_is_not_a_real_number_is_named(ctor, names, valid, bad):
    for i, name in enumerate(names):
        args = (*valid[:i], *[bad] * (len(names) - i))  # field i is the first bad one
        with pytest.raises(ValidationError) as info:
            ctor(*args)
        if bad is None and ctor in (EvidenceWeights.finite, EvidenceWeights.infinite):  # a weight left out
            assert str(info.value).startswith(("finite weights need both", "infinite weights need delta"))
        else:
            assert str(info.value).startswith(f"{name} must be a real number, got ")


def test_a_value_that_cannot_be_shown_is_still_a_validation_error():
    # repr of an int of more than 4300 digits raises, and so does repr of a
    # list nested past the recursion limit: the message cannot show either
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ValidationError, match="^bad belief interval object: "):
        BeliefInterval.from_dict(deep)
    with pytest.raises(ValidationError, match="^bad counts object: "):
        EvidenceCounts.from_dict({"w_plus": 1, "w_total": 10**5000})
    with pytest.raises(ValidationError, match="^weight must be a real number, got "):
        support_from_weight(10**5000)
    with pytest.raises(ValidationError, match="^unknown weights kind "):
        EvidenceWeights(10**5000)
