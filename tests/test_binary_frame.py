"""Mass/interval value types and their lossless conversions, and Dempster's
rule: mass form, interval form, Bernoulli case, oracle."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evcalc import (
    CONFLICT_TOLERANCE,
    SUM_TOLERANCE,
    BeliefInterval,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    MassAssignment,
    TotalConflictError,
    ValidationError,
    belief_from_weights,
    bernoulli_combine,
    combine_interval,
    combine_mass,
    interval_to_mass,
    lu_from_belpl,
    mass_to_interval,
    support_from_weight,
    weights_from_belief,
)
from oracle import GeneralMass, combine_general
from strategies import belief_intervals, mass_assignments, unit_floats, weighted_intervals


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


def test_mass_to_interval_clamps_a_pl_one_ulp_above_one():
    # m_h + m_theta rounds to 1.0000000000000002 here
    m = MassAssignment(0.19706413567043535, 0.0, 0.8029358643295652)
    assert m.m_h + m.m_theta > 1.0
    iv = mass_to_interval(m)
    assert iv.pl == 1.0
    assert iv.masses() == (m.m_h, 0.0, m.m_theta)


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
    assert list(m.to_dict().items()) == [("m_h", 0.2), ("m_not_h", 0.3), ("m_theta", 0.5)]
    assert MassAssignment.from_dict(m.to_dict()) == m
    iv = BeliefInterval(0.2, 0.7)
    assert iv.to_dict() == {"bel": 0.2, "pl": 0.7}
    assert list(iv.to_dict().items()) == [("bel", 0.2), ("pl", 0.7)]
    assert BeliefInterval.from_dict(iv.to_dict()) == iv
    carrying = belief_from_weights(EvidenceWeights.finite(1, 2))
    assert carrying._carried is not None  # its complement and width stay off the wire
    assert list(carrying.to_dict().items()) == [("bel", carrying.bel), ("pl", carrying.pl)]


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


# --- Dempster's rule ---


def test_vacuous_mass_is_identity_exactly():
    m = MassAssignment(0.3, 0.2, 0.5)
    assert combine_mass(MassAssignment.vacuous(), m) == m
    assert combine_mass(m, MassAssignment.vacuous()) == m


def test_conflicting_simple_supports_split_into_thirds():
    m = combine_mass(MassAssignment(0.5, 0.0, 0.5), MassAssignment(0.0, 0.5, 0.5))
    assert m.m_h == pytest.approx(1 / 3, abs=1e-15)
    assert m.m_not_h == pytest.approx(1 / 3, abs=1e-15)
    assert m.m_theta == pytest.approx(1 / 3, abs=1e-15)


def test_total_conflict_raises_and_names_inputs():
    certain_h = MassAssignment(1.0, 0.0, 0.0)
    certain_not_h = MassAssignment(0.0, 1.0, 0.0)
    with pytest.raises(TotalConflictError) as excinfo:
        combine_mass(certain_h, certain_not_h)
    assert excinfo.value.first == certain_h
    assert excinfo.value.second == certain_not_h


def test_interval_combination_examples():
    assert combine_interval(BeliefInterval(0.5, 1.0), BeliefInterval(0.5, 1.0)) == BeliefInterval(0.75, 1.0)
    got = combine_interval(BeliefInterval(0.5, 1.0), BeliefInterval(0.0, 0.5))
    assert got.bel == pytest.approx(1 / 3, abs=1e-15)
    assert got.pl == pytest.approx(2 / 3, abs=1e-15)


def test_interval_total_conflict():
    with pytest.raises(TotalConflictError):
        combine_interval(BeliefInterval(1.0, 1.0), BeliefInterval(0.0, 0.0))


@given(iv=mass_assignments().map(mass_to_interval))
def test_vacuous_interval_is_two_sided_identity_exactly(iv):
    vac = BeliefInterval.vacuous()
    assert combine_interval(vac, iv) == iv
    assert combine_interval(iv, vac) == iv


@given(m1=mass_assignments(floor=1e-3), m2=mass_assignments(floor=1e-3))
def test_commutativity(m1, m2):
    # floor keeps the pair away from total conflict, where the rule is undefined
    x1, x2 = mass_to_interval(m1), mass_to_interval(m2)
    a = combine_interval(x1, x2)
    b = combine_interval(x2, x1)
    assert a.bel == pytest.approx(b.bel, abs=1e-12)
    assert a.pl == pytest.approx(b.pl, abs=1e-12)


@given(m1=mass_assignments(floor=0.01), m2=mass_assignments(floor=0.01), m3=mass_assignments(floor=0.01))
def test_associativity(m1, m2, m3):
    x1, x2, x3 = (mass_to_interval(m) for m in (m1, m2, m3))
    left = combine_interval(combine_interval(x1, x2), x3)
    right = combine_interval(x1, combine_interval(x2, x3))
    assert left.bel == pytest.approx(right.bel, abs=1e-9)
    assert left.pl == pytest.approx(right.pl, abs=1e-9)


@given(m1=mass_assignments(floor=1e-3), m2=mass_assignments(floor=1e-3))
def test_interval_form_specializes_mass_form(m1, m2):
    via_mass = mass_to_interval(combine_mass(m1, m2))
    via_interval = combine_interval(mass_to_interval(m1), mass_to_interval(m2))
    assert via_mass.bel == pytest.approx(via_interval.bel, abs=1e-12)
    assert via_mass.pl == pytest.approx(via_interval.pl, abs=1e-12)


def _rule_on_masses(x1, x2):
    """combine_interval written out on the operands' masses(): the identity
    cases, the rule body on two mass triples, then the parts renormalized by
    their sum; returns the operand itself or (bel, pl, carried parts)."""
    if x1.bel == 0.0 and x1.pl == 1.0:
        return x2
    if x2.bel == 0.0 and x2.pl == 1.0:
        return x1
    (h1, n1, t1), (h2, n2, t2) = x1.masses(), x2.masses()
    conflict = h1 * n2 + n1 * h2
    if 1.0 - conflict < CONFLICT_TOLERANCE:
        raise TotalConflictError(x1, x2)
    h, nh, th = h1 * h2 + h1 * t2 + t1 * h2, n1 * n2 + n1 * t2 + t1 * n2, t1 * t2
    denom = 1.0 - conflict if conflict <= 0.5 else h + nh + th
    h, nh, th = h / denom, nh / denom, th / denom
    total = h + nh + th
    iv = BeliefInterval(h / total, (h + th) / total)  # the same repair of the pair
    return iv.bel, iv.pl, (nh / total, th / total)


def _bits(*values):
    return tuple(float.hex(v) for v in values)


_points = st.one_of(st.sampled_from([0.0, 1.0]), unit_floats()).map(lambda p: BeliefInterval(p, p))
# plain, carrying, vacuous and Bayesian-point operands
_operands = st.one_of(
    belief_intervals(),
    weighted_intervals(max_weight=40.0),
    mass_assignments().map(mass_to_interval),
    st.just(BeliefInterval.vacuous()),
    _points,
)


@settings(max_examples=400)
@given(x1=_operands, x2=_operands)
@example(x1=BeliefInterval(1.0, 1.0), x2=BeliefInterval(0.0, 0.0))
@example(
    x1=belief_from_weights(EvidenceWeights.finite(40.0, 0.0)),
    x2=belief_from_weights(EvidenceWeights.finite(0.0, 40.0)),
)
def test_combine_interval_is_the_rule_on_masses_bit_for_bit(x1, x2):
    try:
        want = _rule_on_masses(x1, x2)
    except TotalConflictError as error:
        with pytest.raises(TotalConflictError) as info:
            combine_interval(x1, x2)
        assert (info.value.first, info.value.second) == (error.first, error.second)
        return
    got = combine_interval(x1, x2)
    if isinstance(want, BeliefInterval):
        assert got is want
        return
    bel, pl, carried = want
    assert _bits(got.bel, got.pl) == _bits(bel, pl)
    assert _bits(*got._carried) == _bits(*carried)


@pytest.mark.parametrize(
    "s1, s2, expected",
    [(0.0, 0.3, 0.3), (0.5, 0.5, 0.75), (1.0, 0.3, 1.0), (1.0, 1.0, 1.0)],
)
def test_bernoulli_examples(s1, s2, expected):
    assert bernoulli_combine(s1, s2) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), "x", None])
def test_bernoulli_domain(bad):
    with pytest.raises(ValidationError):
        bernoulli_combine(bad, 0.5)


@given(s1=unit_floats(), s2=unit_floats())
def test_bernoulli_is_interval_rule_on_simple_supports(s1, s2):
    got = combine_interval(BeliefInterval(s1, 1.0), BeliefInterval(s2, 1.0))
    assert got.bel == pytest.approx(bernoulli_combine(s1, s2), abs=1e-12)
    assert got.pl == 1.0


# --- general-frame brute-force oracle ---


def test_general_vacuous_identity():
    g = GeneralMass(2, {0b01: 0.3, 0b10: 0.2, 0b11: 0.5})
    assert combine_general(GeneralMass.vacuous(2), g) == g


def test_general_matches_hand_enumeration():
    g1 = GeneralMass(2, {0b01: 0.5, 0b11: 0.5})
    g2 = GeneralMass(2, {0b10: 0.5, 0b11: 0.5})
    got = combine_general(g1, g2)
    # four products of 0.25: one conflicting, three landing on {H}, {not-H}, frame
    for subset in (0b01, 0b10, 0b11):
        assert got.masses[subset] == pytest.approx(1 / 3, abs=1e-15)


def test_general_three_atom_single_intersection():
    g1 = GeneralMass(3, {0b001: 1.0})
    g2 = GeneralMass(3, {0b011: 1.0})
    assert combine_general(g1, g2) == GeneralMass(3, {0b001: 1.0})


def test_general_total_conflict():
    with pytest.raises(TotalConflictError):
        combine_general(GeneralMass(2, {0b01: 1.0}), GeneralMass(2, {0b10: 1.0}))


def test_general_frame_mismatch():
    with pytest.raises(ValidationError):
        combine_general(GeneralMass.vacuous(2), GeneralMass.vacuous(3))


@pytest.mark.parametrize(
    "frame_size, masses",
    [
        (11, {(1 << 11) - 1: 1.0}),  # oracle scale cap
        (0, {}),
        (2, {0: 0.5, 0b11: 0.5}),  # empty subset must carry no mass
        (2, {0b100: 1.0}),  # subset outside the frame
        (2, {0b01: 0.6, 0b10: 0.6}),  # bad total
        (2, {0b01: -0.5, 0b11: 1.5}),
    ],
)
def test_general_validation(frame_size, masses):
    with pytest.raises(ValidationError):
        GeneralMass(frame_size, masses)


@given(m1=mass_assignments(), m2=mass_assignments())
def test_oracle_equivalence_binary_frame(m1, m2):
    try:
        direct = combine_mass(m1, m2)
    except TotalConflictError:
        with pytest.raises(TotalConflictError):
            combine_general(GeneralMass.from_binary(m1), GeneralMass.from_binary(m2))
        return
    via_oracle = combine_general(GeneralMass.from_binary(m1), GeneralMass.from_binary(m2)).to_binary()
    assert direct.m_h == pytest.approx(via_oracle.m_h, abs=1e-12)
    assert direct.m_not_h == pytest.approx(via_oracle.m_not_h, abs=1e-12)
    assert direct.m_theta == pytest.approx(via_oracle.m_theta, abs=1e-12)
