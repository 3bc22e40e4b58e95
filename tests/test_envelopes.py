"""Error envelopes of the scalar maps against a 61-digit reference.

Each map is within a pinned number of ulps of tests/highprec.py's value of
its closed form over the declared domain; the README's envelope table lists
these bounds with the largest errors measured on uniform draws.  The
explicit examples are the worst inputs those draws found.
"""

import math
from decimal import Decimal

from hypothesis import example, given
from hypothesis import strategies as st

from evcalc import bernoulli_combine, delta_limit, multiply_combine, support_from_weight
from highprec import context, logistic, support, ulps

ONE = Decimal(1)


def bernoulli_exact(s1, s2):
    """1 - (1 - s1)(1 - s2) as s1 + s2 - s1 * s2, which keeps supports far below 1e-61."""
    with context():
        s1, s2 = Decimal(s1), Decimal(s2)
        return s1 + s2 - s1 * s2


# two supports from one range: small ones, any, and ones near certainty
support_pairs = st.sampled_from([(0.0, 1e-8), (0.0, 1.0), (1.0 - 1e-8, 1.0)]).flatmap(
    lambda r: st.tuples(st.floats(*r), st.floats(*r))
)


@given(support_pairs)
@example((1e-9, 1e-9))  # 1 - (1 - s1)(1 - s2) gave 1.999999943436137e-09, 2.8e-8 relative off
@example((7.477696516785038e-09, 7.303353116841889e-09))
@example((0.03125025362770134, 0.03125025362770134))
@example((-0.0, -0.0))
@example((0.0, -0.0))
def test_bernoulli_combine_is_within_1_ulp(pair):
    s1, s2 = pair
    got = bernoulli_combine(s1, s2)
    assert ulps(got, bernoulli_exact(s1, s2)) <= 1.0
    assert got.hex() == bernoulli_combine(s2, s1).hex()
    assert math.copysign(1.0, got) == 1.0  # two zero supports of either sign pool to +0.0


@given(st.floats(0.0, 745.0))
def test_support_from_weight_is_within_1_ulp(w):
    assert ulps(support_from_weight(w), support(w)) <= 1.0


@given(st.floats(-745.0, 745.0))
@example(3.4457960150903375)  # 2.34 ulps
def test_delta_limit_is_within_2_5_ulps(d):
    assert ulps(delta_limit(d), logistic(d)) <= 2.5


def bayes_exact(b1, b2):
    with context():
        b1, b2 = Decimal(b1), Decimal(b2)
        return b1 * b2 / (b1 * b2 + (ONE - b1) * (ONE - b2))


inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@given(inner, inner)
@example(0.47707193955935856, 0.0041249483424674604)  # 3.25 ulps
def test_multiply_combine_is_within_3_5_ulps(b1, b2):
    assert ulps(multiply_combine(b1, b2), bayes_exact(b1, b2)) <= 3.5
