"""Error envelopes of the scalar maps against a 61-digit reference.

Each map is within a pinned number of ulps of tests/highprec.py's value of
its closed form over the declared domain; PINS holds those bounds, and the
README's envelope table lists them with the largest errors measured on
uniform draws.  The explicit examples are the worst inputs those draws
found.  Every public map has a pin or, in NOT_PINNED, a reason for none.
"""

import inspect
import math
import re
from decimal import Decimal
from pathlib import Path

from hypothesis import example, given, reject
from hypothesis import strategies as st

import evcalc
from evcalc import (
    BeliefInterval, EvidenceCounts, EvidenceWeights, FrequencyInterval, MassAssignment, TotalConflictError,
    add_weights, belief_from_weights, belpl_from_lu, bernoulli_combine, combine_lu, combine_mass, counts_from_interval,
    counts_from_weights, delta_limit, frequency, ignorance, interval_from_counts, interval_to_mass, lu_from_belpl,
    lu_from_weights, mass_to_interval, multiply_combine, positive_proportion, support_from_weight, weights_from_belief,
    weights_from_counts,
)
from highprec import belief, context, counts, dempster, logistic, lu_rule, support, ulps, weights
from highprec import frequency as exact_frequency
from strategies import evidence_counts, mass_assignments

ONE = Decimal(1)

# Each map's pin in ulps, one for all its outputs, or one per output where the README's table splits them.
PINS = {
    "bernoulli_combine": 1.0,
    "support_from_weight": 1.0,
    "delta_limit": 2.5,
    "multiply_combine": 3.5,
    "combine_interval": 2.0,  # bel and pl, checked in test_kernel_golden.py
    "combine_mass": 5.0,
    "interval_to_mass": 2.0,
    "mass_to_interval": 1.0,
    "interval_from_counts": 3.0,
    "counts_from_interval": 2.5,
    "lu_from_weights": 3.5,
    "combine_lu": 4.5,
    "frequency": 2.5,
    "belief_from_weights": {"bel": 40.0, "pl": 40.0, "carried 1 - pl": 40.0, "carried width": 4.0},
    "weights_from_belief": 2.0,
    "lu_from_belpl": 4.0,
    "positive_proportion": 4.0,
    "add_weights": 0.5,
    "weights_from_counts": 0.5,
    "counts_from_weights": 0.5,
    "ignorance": 0.5,
    "belpl_from_lu": 160.0,
}

# the public functions that return no float of their own computing, each with the reason
NOT_PINNED = {
    "classify_limit": "returns 0, 0.5 or 1 by a sign test",
    "combine_points": "returns an operand or a ConflictReport of the operands' values",
    "combine_with_point": "returns its point operand",
    "pool_lu": "returns what combine_lu, combine_with_point or combine_points returns",
    "generate_stream": "returns outcomes, not floats",
    "run_dual_track": "the laboratory's row envelope is not drawn yet",
    "check_limits": "reads run_dual_track's rows, whose envelope is not drawn yet",
}


def test_every_public_map_has_a_pin_or_a_reason():
    public = {name for name in evcalc.__all__ if callable(obj := getattr(evcalc, name)) and not inspect.isclass(obj)}
    assert not PINS.keys() & NOT_PINNED.keys()
    assert PINS.keys() | NOT_PINNED.keys() == public
    assert all(NOT_PINNED.values())


def _readme_pins() -> dict:
    """The pins of the README's "Error envelopes" table, in the form of PINS."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("## Error envelopes", 1)[1].split("| function |", 1)[1].split("\n\n", 1)[0]
    pins = {}
    for row in table.splitlines()[2:]:
        function, _domain, _measured, pinned = (cell.strip() for cell in row.strip("|").split("|"))
        name = re.match(r"`(\w+)`", function).group(1)
        assert name not in pins, name
        values = [float(pin) for pin in pinned.split(" / ")]
        if len(values) == 1:
            pins[name] = values[0]
        else:
            parts = [part.replace("`", "").strip() for part in function.split(",", 1)[1].split(" / ")]
            pins[name] = dict(zip(parts, values, strict=True))
    return pins


def test_the_readme_table_lists_the_pins():
    assert _readme_pins() == PINS


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
def test_bernoulli_combine_is_within_its_pin(pair):
    s1, s2 = pair
    got = bernoulli_combine(s1, s2)
    assert ulps(got, bernoulli_exact(s1, s2)) <= PINS["bernoulli_combine"]
    assert got.hex() == bernoulli_combine(s2, s1).hex()
    assert math.copysign(1.0, got) == 1.0  # two zero supports of either sign pool to +0.0


@given(st.floats(0.0, 745.0))
def test_support_from_weight_is_within_its_pin(w):
    assert ulps(support_from_weight(w), support(w)) <= PINS["support_from_weight"]


@given(st.floats(-745.0, 745.0))
@example(3.4457960150903375)  # 2.34 ulps
def test_delta_limit_is_within_its_pin(d):
    assert ulps(delta_limit(d), logistic(d)) <= PINS["delta_limit"]


def bayes_exact(b1, b2):
    with context():
        b1, b2 = Decimal(b1), Decimal(b2)
        return b1 * b2 / (b1 * b2 + (ONE - b1) * (ONE - b2))


inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@given(inner, inner)
@example(0.47707193955935856, 0.0041249483424674604)  # 3.25 ulps
def test_multiply_combine_is_within_its_pin(b1, b2):
    assert ulps(multiply_combine(b1, b2), bayes_exact(b1, b2)) <= PINS["multiply_combine"]


def lu_exact(wp, w):
    """(w+ / (w + 1), (w+ + 1) / (w + 1)), the interval of the counts (w+, w)."""
    with context():
        wp, scale = Decimal(wp), Decimal(w) + ONE
        return wp / scale, (wp + ONE) / scale


@given(evidence_counts(max_total=50.0))
@example(EvidenceCounts(8.06861004863433, 15.159658669275197))  # l: 1.49 ulps
@example(EvidenceCounts(7.031149911771224, 15.16269693380078))  # u: 2.47 ulps
def test_interval_from_counts_is_within_its_pin(c):
    got = interval_from_counts(c)
    l, u = lu_exact(c.w_plus, c.w_total)
    assert ulps(got.l, l) <= PINS["interval_from_counts"]
    assert ulps(got.u, u) <= PINS["interval_from_counts"]


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
@example(31.054834476029672, 0.007180842029305018)  # l: 1.88 ulps
@example(31.418254876466843, 0.5357093382786732)  # u: 2.86 ulps
def test_lu_from_weights_is_within_its_pin(wp, wm):
    got = lu_from_weights(EvidenceWeights.finite(wp, wm))
    with context():
        l, u = lu_exact(wp, Decimal(wp) + Decimal(wm))
    assert ulps(got.l, l) <= PINS["lu_from_weights"]
    assert ulps(got.u, u) <= PINS["lu_from_weights"]


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
def test_combine_lu_is_within_its_pin(f1, f2):
    got = combine_lu(f1, f2)
    l, u = lu_rule((f1.l, f1.u), (f2.l, f2.u))
    assert ulps(got.l, l) <= PINS["combine_lu"]
    assert ulps(got.u, u) <= PINS["combine_lu"]


@given(count_intervals.filter(lambda fi: fi != FrequencyInterval.total_ignorance()))
@example(FrequencyInterval(0.07229702285597922, 0.48886270526972936))  # 2.19 ulps
def test_frequency_is_within_its_pin(fi):
    assert ulps(frequency(fi), exact_frequency((fi.l, fi.u))) <= PINS["frequency"]


# belief_from_weights and belpl_from_lu go through exp, whose relative error is the absolute error
# of its argument: one rounding of a wp - wm up to 40 costs up to 32 ulps of the result, and the
# counts' own roundings, up to 50, add more.  These bounds are the maps' conditioning, not faults.


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
@example(4.628017821486967, 37.203399053828846)  # bel: 34.10 ulps
@example(4.275904141154658, 36.863233084938784)  # pl: 34.19 ulps
@example(35.62958141241124, 0.8382377226062765)  # 1 - pl: 34.12 ulps
@example(0.17683895838540575, 0.6258268090900909)  # width: 3.58 ulps
def test_belief_from_weights_is_within_its_pins(wp, wm):
    iv = belief_from_weights(EvidenceWeights.finite(wp, wm))
    bel, m_not_h, width = belief(wp, wm)
    with context():
        pl = bel + width
    pins = PINS["belief_from_weights"]
    assert ulps(iv.bel, bel) <= pins["bel"]
    assert ulps(iv.pl, pl) <= pins["pl"]
    assert ulps(iv._carried[0], m_not_h) <= pins["carried 1 - pl"]
    assert ulps(iv._carried[1], width) <= pins["carried width"]


# intervals 0 <= bel < pl <= 1 built from (bel, pl), whose parts the constructor derives
unit = st.floats(0.0, 1.0)
pair_intervals = st.tuples(unit, unit).filter(lambda p: p[0] != p[1]).map(lambda p: BeliefInterval(*sorted(p)))


@given(pair_intervals)
@example(BeliefInterval(0.1922843094477601, 0.8974416455585511))  # w+: 1.53 ulps
@example(BeliefInterval(0.17277734848446014, 0.90422099439984))  # w-: 1.51 ulps
def test_weights_from_belief_is_within_its_pin(iv):
    got = weights_from_belief(iv)
    wp, wm = weights(iv.bel, iv.pl)
    assert ulps(got.w_plus, wp) <= PINS["weights_from_belief"]
    assert ulps(got.w_minus, wm) <= PINS["weights_from_belief"]


@given(pair_intervals)
@example(BeliefInterval(0.0013519975212078483, 0.3466123885601221))  # l: 3.51 ulps
@example(BeliefInterval(0.6375713608367674, 0.9986084960928462))  # u: 2.89 ulps
def test_lu_from_belpl_is_within_its_pin(iv):
    got = lu_from_belpl(iv)
    wp, wm = weights(iv.bel, iv.pl)
    with context():
        scale = wp + wm + 1
        l, u = wp / scale, (wp + 1) / scale
    assert ulps(got.l, l) <= PINS["lu_from_belpl"]
    assert ulps(got.u, u) <= PINS["lu_from_belpl"]


@given(pair_intervals.filter(lambda iv: iv != BeliefInterval(0.0, 1.0)))
@example(BeliefInterval(0.0027860553169758834, 0.3522136624771301))  # 3.50 ulps
def test_positive_proportion_is_within_its_pin(iv):
    wp, wm = weights(iv.bel, iv.pl)
    with context():
        exact = wp / (wp + wm)
    assert ulps(positive_proportion(iv), exact) <= PINS["positive_proportion"]


# one correctly rounded sum per component: half an ulp is IEEE 754's bound, and ties reach it
@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0))
@example(36.713144972624, 37.12334039493115, 25.576396520861895, 25.56290732805456)  # 0.50 ulps on each
def test_add_weights_is_within_its_pin(wp1, wm1, wp2, wm2):
    got = add_weights(EvidenceWeights.finite(wp1, wm1), EvidenceWeights.finite(wp2, wm2))
    with context():
        wp, wm = Decimal(wp1) + Decimal(wp2), Decimal(wm1) + Decimal(wm2)
    assert ulps(got.w_plus, wp) <= PINS["add_weights"]
    assert ulps(got.w_minus, wm) <= PINS["add_weights"]


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
def test_belpl_from_lu_is_within_its_pin(fi):
    got = belpl_from_lu(fi)
    wp, w = counts(fi.l, fi.u)
    with context():
        bel, _, width = belief(wp, w - wp)
        pl = bel + width
    assert ulps(got.bel, bel) <= PINS["belpl_from_lu"]
    assert ulps(got.pl, pl) <= PINS["belpl_from_lu"]


@given(counted_intervals)
@example(FrequencyInterval(0.12390869269099244, 0.3745986498953912))  # w_plus: 1.46 ulps
@example(FrequencyInterval(0.014631876066831771, 0.3498531749399355))  # w_total: 2.07 ulps
def test_counts_from_interval_is_within_its_pin(fi):
    got = counts_from_interval(fi)
    wp, w = counts(fi.l, fi.u)
    assert ulps(got.w_plus, wp) <= PINS["counts_from_interval"]
    assert ulps(got.w_total, w) <= PINS["counts_from_interval"]


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
@example(normalized(0.0606910879169959, 0.8218743851000118, 0.7860018931927274),
         normalized(0.24207502227449612, 0.37346953629943214, 0.9029882027206269))  # m_h: 4.72 ulps
@example(normalized(0.9945888968686977, 0.8920637170901025, 0.1523348417602046),
         normalized(0.8063731340696686, 0.02654149497635574, 0.037312095925415366))  # m_not_h: 4.22 ulps
def test_combine_mass_is_within_its_pin(m1, m2):
    try:
        got = combine_mass(m1, m2)
    except TotalConflictError:
        reject()
    for part, exact in zip(masses_of(got), dempster(masses_of(m1), masses_of(m2))):
        assert ulps(part, exact) <= PINS["combine_mass"]


# intervals 0 <= bel <= pl <= 1 built from (bel, pl), whose masses (bel, 1 - pl, pl - bel) sum to 1 exactly
@given(st.tuples(unit, unit).map(lambda p: BeliefInterval(*sorted(p))))
@example(BeliefInterval(0.21899323367367876, 0.44895642981793443))  # m_h: 1.00 ulp
@example(BeliefInterval(0.005238165158455487, 0.018309842688335572))  # m_not_h: 0.97 ulps
@example(BeliefInterval(0.04358965037656718, 0.15212103370309865))  # m_theta: 1.50 ulps
def test_interval_to_mass_is_within_its_pin(iv):
    got = interval_to_mass(iv)
    with context():
        bel, pl = Decimal(iv.bel), Decimal(iv.pl)
        exact = bel, ONE - pl, pl - bel
    for part, e in zip(masses_of(got), exact):
        assert ulps(part, e) <= PINS["interval_to_mass"]


@given(mass_assignments())
@example(normalized(0.6013764890347786, 0.7162285829346902, 0.528378746039572))  # pl: 0.50 ulps
def test_mass_to_interval_is_within_its_pin(m):
    iv = mass_to_interval(m)
    assert (iv.bel, *iv._carried) == masses_of(m)  # copied, not computed
    with context():
        pl = Decimal(m.m_h) + Decimal(m.m_theta)
    assert ulps(iv.pl, pl) <= PINS["mass_to_interval"]


# one correctly rounded subtraction or sum, the other field copied: half an ulp is IEEE 754's bound
@given(evidence_counts(max_total=50.0))
@example(EvidenceCounts(7.00531889484258, 20.11315735658776))  # 0.50 ulps
def test_weights_from_counts_is_within_its_pin(c):
    got = weights_from_counts(c)
    with context():
        wm = Decimal(c.w_total) - Decimal(c.w_plus)
    assert got.w_plus == c.w_plus
    assert ulps(got.w_minus, wm) <= PINS["weights_from_counts"]


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
@example(13.542989088506303, 28.343050583923084)  # 0.50 ulps
def test_counts_from_weights_is_within_its_pin(wp, wm):
    got = counts_from_weights(EvidenceWeights.finite(wp, wm))
    with context():
        w = Decimal(wp) + Decimal(wm)
    assert got.w_plus == wp
    assert ulps(got.w_total, w) <= PINS["counts_from_weights"]


@given(st.tuples(unit, unit).map(lambda p: FrequencyInterval(*sorted(p))))
@example(FrequencyInterval(0.10003313496958682, 0.9849541604405785))  # 0.50 ulps
def test_ignorance_is_within_its_pin(fi):
    with context():
        width = Decimal(fi.u) - Decimal(fi.l)
    assert ulps(ignorance(fi), width) <= PINS["ignorance"]
