"""Weight scale: support map, weight/belief inversion, limits, proportion."""

import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from evcalc import (
    BeliefInterval,
    EvidenceWeights,
    InfiniteEvidenceError,
    UnitWeights,
    ValidationError,
    ZeroEvidenceError,
    add_weights,
    belief_from_weights,
    bernoulli_combine,
    classify_limit,
    combine_interval,
    delta_limit,
    multiply_combine,
    positive_proportion,
    support_from_weight,
    weights_from_belief,
)
from strategies import belief_intervals, finite_weights, unit_floats, weighted_intervals

nonneg_weights = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


# --- support_from_weight ---


def test_support_examples():
    assert support_from_weight(0.0) == 0.0
    assert support_from_weight(math.log(2)) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("bad", [-1.0, -1e-9, float("inf"), float("nan"), "x", None])
def test_support_domain(bad):
    with pytest.raises(ValidationError):
        support_from_weight(bad)


@given(w1=nonneg_weights, w2=nonneg_weights)
def test_support_functional_equation(w1, w2):
    lhs = support_from_weight(w1 + w2)
    rhs = 1.0 - (1.0 - support_from_weight(w1)) * (1.0 - support_from_weight(w2))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- belief_from_weights / weights_from_belief ---


def test_belief_from_weights_examples():
    assert belief_from_weights(EvidenceWeights.finite(0.0, 0.0)) == BeliefInterval(0.0, 1.0)
    iv = belief_from_weights(EvidenceWeights.finite(math.log(2), 0.0))
    assert iv.bel == pytest.approx(0.5, abs=1e-15)
    assert iv.pl == pytest.approx(1.0, abs=1e-15)
    assert belief_from_weights(EvidenceWeights.infinite(0.0)) == BeliefInterval(0.5, 0.5)


def test_belief_from_weights_direct_formula_oracle():
    # evaluate (e^{w+}-1)/(e^{w+}+e^{w-}-1) the plain way at modest weights
    for wp, wm in [(1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (0.3, 4.0)]:
        iv = belief_from_weights(EvidenceWeights.finite(wp, wm))
        denom = math.exp(wp) + math.exp(wm) - 1.0
        assert iv.bel == pytest.approx((math.exp(wp) - 1.0) / denom, rel=1e-14)
        assert iv.pl == pytest.approx(math.exp(wp) / denom, rel=1e-14)


def test_belief_from_weights_survives_huge_weights():
    # far past exp overflow territory; the scaled form must not blow up
    iv = belief_from_weights(EvidenceWeights.finite(10_000.0, 9_998.0))
    assert iv.bel == pytest.approx(delta_limit(-2.0), abs=1e-12)
    one_sided = belief_from_weights(EvidenceWeights.finite(5_000.0, 0.0))
    assert one_sided.bel == 1.0
    assert one_sided.pl == 1.0


def test_weights_from_belief_examples():
    w = weights_from_belief(BeliefInterval.vacuous())
    assert (w.w_plus, w.w_minus) == (0.0, 0.0)
    w = weights_from_belief(BeliefInterval(0.5, 1.0))
    assert w.w_plus == pytest.approx(math.log(2), rel=1e-15)
    assert w.w_minus == pytest.approx(0.0, abs=1e-15)
    w = weights_from_belief(BeliefInterval(0.5, 0.5))
    assert not w.is_finite
    assert w.delta == 0.0


def test_weights_from_belief_certain_endpoints():
    assert weights_from_belief(BeliefInterval(0.0, 0.0)).delta == math.inf
    assert weights_from_belief(BeliefInterval(1.0, 1.0)).delta == -math.inf
    assert belief_from_weights(EvidenceWeights.infinite(math.inf)) == BeliefInterval(0.0, 0.0)
    assert belief_from_weights(EvidenceWeights.infinite(-math.inf)) == BeliefInterval(1.0, 1.0)


@given(w=finite_weights(max_weight=8.0))
def test_inverse_pair_weights_side(w):
    back = weights_from_belief(belief_from_weights(w))
    assert back.is_finite
    assert back.w_plus == pytest.approx(w.w_plus, rel=1e-9, abs=1e-9)
    assert back.w_minus == pytest.approx(w.w_minus, rel=1e-9, abs=1e-9)


@given(iv=belief_intervals())
# the complement-to-width ratio overflows a double here
@example(iv=BeliefInterval(0.0, 5e-324))
def test_inverse_pair_interval_side(iv):
    assume(iv.bel < iv.pl)
    back = belief_from_weights(weights_from_belief(iv))
    assert back.bel == pytest.approx(iv.bel, abs=1e-9)
    assert back.pl == pytest.approx(iv.pl, abs=1e-9)


@given(w1=finite_weights(max_weight=8.0), w2=finite_weights(max_weight=8.0))
def test_weight_addition_is_interval_combination(w1, w2):
    # the central conjugacy: adding weights equals combining intervals
    via_weights = belief_from_weights(add_weights(w1, w2))
    via_rule = combine_interval(belief_from_weights(w1), belief_from_weights(w2))
    assert via_weights.bel == pytest.approx(via_rule.bel, abs=1e-9)
    assert via_weights.pl == pytest.approx(via_rule.pl, abs=1e-9)


@given(
    wp=st.floats(min_value=0.05, max_value=6.0),
    wm=st.floats(min_value=0.05, max_value=6.0),
)
def test_monotonicity_in_each_weight(wp, wm):
    # strictness needs both kinds of evidence present: with w- = 0, pl is
    # pinned at 1 whatever w+ does (and symmetrically bel at 0 when w+ = 0)
    base = belief_from_weights(EvidenceWeights.finite(wp, wm))
    more_positive = belief_from_weights(EvidenceWeights.finite(wp + 0.25, wm))
    assert more_positive.bel > base.bel
    assert more_positive.pl > base.pl
    more_negative = belief_from_weights(EvidenceWeights.finite(wp, wm + 0.25))
    assert more_negative.bel < base.bel
    assert more_negative.pl < base.pl


def test_dominant_positive_evidence_saturates():
    # w+ = 2t, w- = t; once (c - d) t > 30 belief is within 1e-9 of certainty
    for t in (31.0, 60.0, 500.0):
        iv = belief_from_weights(EvidenceWeights.finite(2.0 * t, t))
        assert iv.bel > 1.0 - 1e-9


# --- add_weights / multiply_combine ---


def test_add_weights_examples():
    zero = EvidenceWeights.finite(0.0, 0.0)
    w = EvidenceWeights.finite(1.5, 2.5)
    assert add_weights(zero, w) == w
    assert add_weights(EvidenceWeights.finite(1, 2), EvidenceWeights.finite(3, 4)) == EvidenceWeights.finite(4, 6)


def test_add_weights_rejects_infinite():
    with pytest.raises(InfiniteEvidenceError):
        add_weights(EvidenceWeights.infinite(0.0), EvidenceWeights.finite(1, 1))


def test_multiply_combine_examples():
    assert multiply_combine(0.6, 0.6) == pytest.approx(0.36 / 0.52, abs=1e-15)
    assert multiply_combine(0.5, 0.5) == 0.5


@given(b=st.floats(min_value=0.01, max_value=0.99))
def test_multiply_combine_half_is_identity(b):
    assert multiply_combine(0.5, b) == pytest.approx(b, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, None, "x"])
def test_multiply_combine_domain(bad):
    with pytest.raises(ValidationError):
        multiply_combine(bad, 0.5)


@given(
    b1=st.floats(min_value=0.001, max_value=0.999),
    b2=st.floats(min_value=0.001, max_value=0.999),
)
def test_multiply_combine_is_bayesian_interval_rule(b1, b2):
    got = combine_interval(BeliefInterval(b1, b1), BeliefInterval(b2, b2))
    expected = multiply_combine(b1, b2)
    assert got.bel == pytest.approx(expected, abs=1e-12)
    assert got.pl == pytest.approx(expected, abs=1e-12)


# --- positive_proportion ---


def test_positive_proportion_examples():
    assert positive_proportion(belief_from_weights(EvidenceWeights.finite(1, 1))) == pytest.approx(0.5, abs=1e-12)
    assert positive_proportion(belief_from_weights(EvidenceWeights.finite(2, 1))) == pytest.approx(2 / 3, abs=1e-12)


def test_positive_proportion_undefined_cases():
    with pytest.raises(ZeroEvidenceError):
        positive_proportion(BeliefInterval.vacuous())
    with pytest.raises(InfiniteEvidenceError):
        positive_proportion(BeliefInterval(0.5, 0.5))


@given(w=finite_weights(max_weight=8.0))
def test_positive_proportion_matches_weight_ratio(w):
    assume(w.w_plus + w.w_minus > 0.01)
    got = positive_proportion(belief_from_weights(w))
    assert got == pytest.approx(w.w_plus / (w.w_plus + w.w_minus), abs=1e-9)
    assert 0.0 <= got <= 1.0


@given(w=finite_weights(max_weight=20.0))
def test_positive_proportion_keeps_full_precision(w):
    # reads the carried complement and width, so no cancellation near 1
    assume(w.w_plus + w.w_minus > 0.0)
    expected = w.w_plus / (w.w_plus + w.w_minus)
    assert positive_proportion(belief_from_weights(w)) == pytest.approx(expected, rel=1e-13, abs=1e-300)


@given(w=finite_weights(max_weight=20.0))
def test_weight_built_interval_is_the_plain_pair(w):
    built = belief_from_weights(w)
    plain = BeliefInterval(built.bel, built.pl)
    assert built == plain
    assert hash(built) == hash(plain)
    assert repr(built) == repr(plain)
    assert built.to_dict() == plain.to_dict()


# --- classify_limit / delta_limit ---


@pytest.mark.parametrize(
    "q, w0p, w0m, expected",
    [
        (0.7, 1.0, 1.0, 1.0),
        (0.5, 1.0, 1.0, 0.5),
        (0.6, 1.0, 2.0, 0.0),
        (0.0, 1.0, 1.0, 0.0),
        (1.0, 1.0, 1.0, 1.0),
        (2 / 3, 1.0, 2.0, 0.5),  # tie up to rounding noise
        # weighted rates near 1e-13: the tie tolerance scales with them
        (0.1, 1e-13, 1e-13, 0.0),
        (0.5, 1e-13, 1e-13, 0.5),
        (0.9, 1e-13, 1e-13, 1.0),
    ],
)
def test_classify_limit(q, w0p, w0m, expected):
    assert classify_limit(q, UnitWeights(w0p, w0m)) == expected


@given(
    q=unit_floats(),
    w0p=st.floats(min_value=1e-3, max_value=1e3),
    w0m=st.floats(min_value=1e-3, max_value=1e3),
    k=st.integers(min_value=-100, max_value=100),
)
def test_classify_limit_ignores_a_common_scale_of_the_unit_weights(q, w0p, w0m, k):
    # a power of two scales both weights exactly, and cannot move the limit
    scaled = UnitWeights(math.ldexp(w0p, k), math.ldexp(w0m, k))
    assert classify_limit(q, scaled) == classify_limit(q, UnitWeights(w0p, w0m))


def test_classify_limit_domain():
    with pytest.raises(ValidationError):
        classify_limit(1.5, UnitWeights())


def test_delta_limit_examples():
    assert delta_limit(0.0) == 0.5
    assert delta_limit(math.log(3)) == pytest.approx(0.25, abs=1e-15)
    assert delta_limit(2.0) == pytest.approx(0.119202922, abs=1e-9)
    assert delta_limit(2.0) == pytest.approx(1.0 / (1.0 + math.exp(2.0)), abs=1e-15)
    assert delta_limit(math.inf) == 0.0
    assert delta_limit(-math.inf) == 1.0


@given(d=st.floats(min_value=0.0, max_value=50, allow_nan=False))
def test_delta_limit_symmetry(d):
    # exact as written for d >= 0; the mirrored direction costs the one
    # rounding inherent in 1 - (1 - x)
    assert delta_limit(-d) == 1.0 - delta_limit(d)
    assert delta_limit(d) == pytest.approx(1.0 - delta_limit(-d), abs=2e-16)


def test_delta_limit_rejects_nan():
    with pytest.raises(ValidationError):
        delta_limit(float("nan"))


# --- value type validation and JSON ---


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: EvidenceWeights.finite(-1.0, 0.0),
        lambda: EvidenceWeights.finite(math.inf, 0.0),
        lambda: EvidenceWeights.finite(float("nan"), 0.0),
        lambda: EvidenceWeights.infinite(float("nan")),
        lambda: EvidenceWeights("infinite"),  # no delta
        lambda: EvidenceWeights("bogus", w_plus=1.0, w_minus=1.0),
        lambda: EvidenceWeights("finite", w_plus=1.0),
        lambda: UnitWeights(0.0, 1.0),
        lambda: UnitWeights(1.0, math.inf),
        lambda: UnitWeights("x"),
        lambda: UnitWeights(1.0, None),
        lambda: UnitWeights([1.0]),
    ],
)
def test_weight_validation(ctor):
    with pytest.raises(ValidationError):
        ctor()


def test_non_numeric_unit_weights_name_the_field():
    with pytest.raises(ValidationError, match=r"^w0_plus must be a real number, got 'x'$"):
        UnitWeights("x")
    with pytest.raises(ValidationError, match=r"^w0_minus must be a real number, got None$"):
        UnitWeights(1.0, None)
    assert UnitWeights("2", 3) == UnitWeights(2.0, 3.0)  # numbers and numeric strings are coerced as before


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: classify_limit("x", UnitWeights()), "q must be a real number, got 'x'"),
        (lambda: bernoulli_combine("x", 0.5), "s1 must be a real number, got 'x'"),
        (lambda: bernoulli_combine(0.5, [0.5]), "s2 must be a real number, got [0.5]"),
        (lambda: multiply_combine(None, 0.5), "b1 must be a real number, got None"),
        (lambda: support_from_weight("x"), "weight must be a real number, got 'x'"),
        (lambda: delta_limit("x"), "delta must be a real number, got 'x'"),
    ],
)
def test_scalar_functions_name_an_argument_that_is_not_a_number(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_weights_json_forms():
    finite = EvidenceWeights.finite(1.25, 0.5)
    assert finite.to_dict() == {"kind": "finite", "w_plus": 1.25, "w_minus": 0.5}
    assert list(finite.to_dict().items()) == [("kind", "finite"), ("w_plus", 1.25), ("w_minus", 0.5)]
    assert EvidenceWeights.from_dict(finite.to_dict()) == finite
    infinite = EvidenceWeights.infinite(0.75)
    assert infinite.to_dict() == {"kind": "infinite", "delta": 0.75}
    assert EvidenceWeights.from_dict(infinite.to_dict()) == infinite
    for delta in (0.75, math.inf, -math.inf):
        assert list(EvidenceWeights.infinite(delta).to_dict().items()) == [("kind", "infinite"), ("delta", delta)]
    with pytest.raises(ValidationError):
        EvidenceWeights.from_dict({"kind": "nope"})
