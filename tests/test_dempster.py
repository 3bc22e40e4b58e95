"""Dempster's rule: mass form, interval form, Bernoulli case, oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evcalc import (
    CONFLICT_TOLERANCE,
    BeliefInterval,
    EvidenceWeights,
    MassAssignment,
    TotalConflictError,
    ValidationError,
    belief_from_weights,
    bernoulli_combine,
    combine_interval,
    combine_mass,
    mass_to_interval,
)
from oracle import GeneralMass, combine_general
from strategies import belief_intervals, mass_assignments, unit_floats, weighted_intervals


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
