"""Error envelopes of the scalar maps against a 61-digit reference.

Each map is within a pinned number of ulps of tests/highprec.py's value of
its closed form over the declared domain; the README's envelope table lists
these bounds with the largest errors measured on uniform draws.  The
explicit examples are the worst inputs those draws found.
"""

import math
from decimal import Decimal

from hypothesis import example, given, reject
from hypothesis import strategies as st

from evcalc import (
    BeliefInterval, EvidenceWeights, FrequencyInterval, MassAssignment, TotalConflictError, belief_from_weights,
    belpl_from_lu, bernoulli_combine, combine_lu, combine_mass, delta_limit, frequency, interval_from_counts,
    interval_to_mass, lu_from_belpl, mass_to_interval, multiply_combine, support_from_weight, weights_from_belief,
)
from highprec import belief, context, counts, dempster, logistic, lu_rule, support, ulps, weights
from highprec import frequency as exact_frequency
from strategies import evidence_counts, mass_assignments

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


# intervals of counts 0 <= w_plus <= w_total <= 50, as the kernels benchmark draws them, with
# w_plus 0 or at least 1e-300: below that the rule's products can round in the subnormal range,
# whose fixed spacing is no ulp of the result (an l of 1.14e-309 came out 5.19 spacings off)
count_intervals = (
    evidence_counts(max_total=50.0).filter(lambda c: c.w_plus == 0.0 or c.w_plus >= 1e-300).map(interval_from_counts)
)


@given(count_intervals, count_intervals)
@example(FrequencyInterval(0.39340128203658736, 0.9401541820490905),
         FrequencyInterval(0.3411184756910054, 0.8028104156975708))  # l: 3.62 ulps
@example(FrequencyInterval(0.6623722634038223, 0.8282520963355604),
         FrequencyInterval(0.21908815110086552, 0.3298869695980035))  # u: 3.95 ulps
def test_combine_lu_is_within_4_5_ulps(f1, f2):
    got = combine_lu(f1, f2)
    l, u = lu_rule((f1.l, f1.u), (f2.l, f2.u))
    assert ulps(got.l, l) <= 4.5
    assert ulps(got.u, u) <= 4.5


@given(count_intervals.filter(lambda fi: fi != FrequencyInterval.total_ignorance()))
@example(FrequencyInterval(0.07229702285597922, 0.48886270526972936))  # 2.19 ulps
def test_frequency_is_within_2_5_ulps(fi):
    assert ulps(frequency(fi), exact_frequency((fi.l, fi.u))) <= 2.5


# belief_from_weights and belpl_from_lu go through exp, whose relative error is the absolute error
# of its argument: one rounding of a wp - wm up to 40 costs up to 32 ulps of the result, and the
# counts' own roundings, up to 50, add more.  These bounds are the maps' conditioning, not faults.


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
@example(4.628017821486967, 37.203399053828846)  # bel: 34.10 ulps
@example(4.275904141154658, 36.863233084938784)  # pl: 34.19 ulps
@example(35.62958141241124, 0.8382377226062765)  # 1 - pl: 34.12 ulps
@example(0.17683895838540575, 0.6258268090900909)  # width: 3.58 ulps
def test_belief_from_weights_is_within_40_ulps_and_its_width_within_4(wp, wm):
    iv = belief_from_weights(EvidenceWeights.finite(wp, wm))
    bel, m_not_h, width = belief(wp, wm)
    with context():
        pl = bel + width
    assert ulps(iv.bel, bel) <= 40.0
    assert ulps(iv.pl, pl) <= 40.0
    assert ulps(iv._carried[0], m_not_h) <= 40.0
    assert ulps(iv._carried[1], width) <= 4.0


# plain intervals 0 <= bel < pl <= 1, which carry no parts
unit = st.floats(0.0, 1.0)
plain_intervals = st.tuples(unit, unit).filter(lambda p: p[0] != p[1]).map(lambda p: BeliefInterval(*sorted(p)))


@given(plain_intervals)
@example(BeliefInterval(0.1922843094477601, 0.8974416455585511))  # w+: 1.53 ulps
@example(BeliefInterval(0.17277734848446014, 0.90422099439984))  # w-: 1.51 ulps
def test_weights_from_belief_is_within_2_ulps(iv):
    got = weights_from_belief(iv)
    wp, wm = weights(iv.bel, iv.pl)
    assert ulps(got.w_plus, wp) <= 2.0
    assert ulps(got.w_minus, wm) <= 2.0


@given(plain_intervals)
@example(BeliefInterval(0.0013519975212078483, 0.3466123885601221))  # l: 3.51 ulps
@example(BeliefInterval(0.6375713608367674, 0.9986084960928462))  # u: 2.89 ulps
def test_lu_from_belpl_is_within_4_ulps(iv):
    got = lu_from_belpl(iv)
    wp, wm = weights(iv.bel, iv.pl)
    with context():
        scale = wp + wm + 1
        l, u = wp / scale, (wp + 1) / scale
    assert ulps(got.l, l) <= 4.0
    assert ulps(got.u, u) <= 4.0


# intervals of counts 1 <= w_total <= 50, or of no counts, (0, 1): below a w_total of 1 the map's
# counts (1 - width) / width cancel, and where w_plus is within an ulp of w_total the counts check
# then snaps w_plus down to the cancelled total (w_total 1.26e-22 gave bel 0.0, all of it lost)
counted_intervals = st.one_of(
    st.just(FrequencyInterval.total_ignorance()),
    evidence_counts(min_total=1.0, max_total=50.0).map(interval_from_counts),
)


@given(counted_intervals)
@example(FrequencyInterval(0.0001284433692808218, 0.019826174595260287))  # bel: 145.50 ulps
@example(FrequencyInterval(0.014912755434963636, 0.03627956960485419))  # pl: 121.12 ulps
def test_belpl_from_lu_is_within_160_ulps(fi):
    got = belpl_from_lu(fi)
    wp, w = counts(fi.l, fi.u)
    with context():
        bel, _, width = belief(wp, w - wp)
        pl = bel + width
    assert ulps(got.bel, bel) <= 160.0
    assert ulps(got.pl, pl) <= 160.0


def masses_of(m):
    return m.m_h, m.m_not_h, m.m_theta


def normalized(*parts):
    """The mass assignment of three parts over their sum, as the measured draws were built."""
    total = (parts[0] + parts[1]) + parts[2]
    return MassAssignment(*(part / total for part in parts))


# mass assignments with each mass 0 or at least 1e-150, so that no product of two rounds in the
# subnormal range, whose fixed spacing is no ulp of the result
rule_masses = mass_assignments().filter(lambda m: all(x == 0.0 or x >= 1e-150 for x in masses_of(m)))


@given(rule_masses, rule_masses)
@example(normalized(0.2781709243488242, 0.5352326859716439, 0.01014104145767589),
         normalized(0.08799304134320707, 0.8969015407020456, 0.012833329760269166))  # m_h: 3.94 ulps
@example(normalized(0.4001437962261768, 0.06482639902572299, 0.009090916174437857),
         normalized(0.4984052313630449, 0.32370256824405425, 0.11546125209888672))  # m_not_h: 4.13 ulps
@example(normalized(0.7776003820701424, 0.5619404813688429, 0.01605889852939305),
         normalized(0.5816669500418932, 0.8145022410492628, 0.8400417641503444))  # m_theta: 3.84 ulps
def test_combine_mass_is_within_5_ulps(m1, m2):
    try:
        got = combine_mass(m1, m2)
    except TotalConflictError:
        reject()
    for part, exact in zip(masses_of(got), dempster(masses_of(m1), masses_of(m2))):
        assert ulps(part, exact) <= 5.0


# plain intervals 0 <= bel <= pl <= 1, whose masses (bel, 1 - pl, pl - bel) sum to 1 exactly
@given(st.tuples(unit, unit).map(lambda p: BeliefInterval(*sorted(p))))
@example(BeliefInterval(0.21899323367367876, 0.44895642981793443))  # m_h: 1.00 ulp
@example(BeliefInterval(0.005238165158455487, 0.018309842688335572))  # m_not_h: 0.97 ulps
@example(BeliefInterval(0.04358965037656718, 0.15212103370309865))  # m_theta: 1.50 ulps
def test_interval_to_mass_is_within_2_ulps(iv):
    got = interval_to_mass(iv)
    with context():
        bel, pl = Decimal(iv.bel), Decimal(iv.pl)
        exact = bel, ONE - pl, pl - bel
    for part, e in zip(masses_of(got), exact):
        assert ulps(part, e) <= 2.0


@given(mass_assignments())
@example(normalized(0.6013764890347786, 0.7162285829346902, 0.528378746039572))  # pl: 0.50 ulps
def test_mass_to_interval_is_within_1_ulp(m):
    iv = mass_to_interval(m)
    assert (iv.bel, *iv._carried) == masses_of(m)  # copied, not computed
    with context():
        pl = Decimal(m.m_h) + Decimal(m.m_theta)
    assert ulps(iv.pl, pl) <= 1.0
