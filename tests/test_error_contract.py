"""One error contract for every public entry point.

A constructor, parser or scalar function called with one hostile argument,
every other argument valid, either returns or raises one of evcalc's four
errors: never a TypeError, OverflowError, bare ValueError or any other
exception.  The hostile values come from one strategy: None, strings,
bytes, containers, bools, ints past float range and past the interpreter's
digit limit for str(), nan and the infinities, Decimals (NaN, signaling NaN
and past float range included), Fractions, complex numbers and a plain
object().

The maps between values take value objects.  A map given anything else in
place of one (None, a string, a list, a dict, a float, an object()) reads
a field that is not there and raises AttributeError; the maps run no
isinstance check, which would cost every call.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evcalc import (
    BeliefInterval,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    InfiniteEvidenceError,
    MassAssignment,
    SplitMix64,
    StreamSpec,
    TotalConflictError,
    UnitWeights,
    ValidationError,
    ZeroEvidenceError,
    add_weights,
    belief_from_weights,
    belpl_from_lu,
    bernoulli_combine,
    check_limits,
    classify_limit,
    combine_interval,
    combine_lu,
    combine_mass,
    combine_points,
    combine_with_point,
    counts_from_interval,
    counts_from_weights,
    delta_limit,
    frequency,
    generate_stream,
    ignorance,
    interval_from_counts,
    interval_to_mass,
    lu_from_belpl,
    lu_from_weights,
    mass_to_interval,
    multiply_combine,
    pool_lu,
    positive_proportion,
    run_dual_track,
    support_from_weight,
    weights_from_belief,
    weights_from_counts,
)

CONTRACT = (ValidationError, InfiniteEvidenceError, ZeroEvidenceError, TotalConflictError)

HOSTILE = [
    None, "", "x", "0.5", "nan", "1e400", b"0.5", b"\xff", [1], [], {"bel": 0.2}, (0.2, 0.7), True, False,
    10**400, -10**400, 10**5000, math.nan, math.inf, -math.inf, -0.0,
    Decimal("NaN"), Decimal("sNaN"), Decimal("1e400"), Decimal("-1e400"), Decimal("0.5"),
    Fraction(1, 3), Fraction(10**400, 3), 1j, complex(0.5, 0.0), object(),
]

hostile = st.one_of(
    st.sampled_from(HOSTILE),
    st.floats(),
    st.integers(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.decimals(),
    st.fractions(),
    st.complex_numbers(),
    st.lists(st.integers(), max_size=3),
)


def positional(name, call, *valid):
    """(id, one-argument call) for each position of call's valid arguments."""
    return [(f"{name}-{i}", lambda x, i=i: call(*valid[:i], x, *valid[i + 1 :])) for i in range(len(valid))]


def keyword(name, call, **valid):
    """(id, one-argument call) for each of call's valid keyword arguments."""
    return [(f"{name}-{key}", lambda x, key=key: call(**{**valid, key: x})) for key in valid]


def from_dict(name, cls, valid):
    """(id, one-argument call) for cls.from_dict of the value itself and of valid with each field replaced."""
    return [(f"{name}.from_dict", cls.from_dict)] + [
        (f"{name}.from_dict-{key}", lambda x, key=key: cls.from_dict({**valid, key: x})) for key in valid
    ]


SPEC = StreamSpec(mode="bernoulli", steps=5, q=0.5, seed=1)

ENTRY_POINTS = [
    *positional("BeliefInterval", BeliefInterval, 0.2, 0.7),
    *positional("MassAssignment", MassAssignment, 0.2, 0.3, 0.5),
    *positional("FrequencyInterval", FrequencyInterval, 0.2, 0.7),
    *positional("FrequencyInterval.point", FrequencyInterval.point, 0.5),
    *positional("EvidenceCounts", EvidenceCounts, 6.0, 10.0),
    *keyword("EvidenceWeights-finite", EvidenceWeights, kind="finite", w_plus=1.0, w_minus=2.0),
    *keyword("EvidenceWeights-infinite", EvidenceWeights, kind="infinite", delta=1.0),
    *positional("EvidenceWeights.finite", EvidenceWeights.finite, 1.0, 2.0),
    *positional("EvidenceWeights.infinite", EvidenceWeights.infinite, 1.0),
    *positional("UnitWeights", UnitWeights, 1.0, 1.0),
    *keyword("StreamSpec-bernoulli", StreamSpec, mode="bernoulli", steps=5, q=0.5, seed=1),
    *keyword("StreamSpec-faithful", StreamSpec, mode="frequency_faithful", steps=5, q=0.5, seed=1),
    *keyword("StreamSpec-delta", StreamSpec, mode="delta_profile", steps=5, delta=2, seed=1),
    *keyword("StreamSpec-explicit", StreamSpec, mode="explicit", steps=2, outcomes=(True, False), seed=1),
    *positional("SplitMix64", SplitMix64, 1),
    *from_dict("BeliefInterval", BeliefInterval, {"bel": 0.2, "pl": 0.7}),
    *from_dict("MassAssignment", MassAssignment, {"m_h": 0.2, "m_not_h": 0.3, "m_theta": 0.5}),
    *from_dict("FrequencyInterval-interval", FrequencyInterval, {"kind": "interval", "l": 0.2, "u": 0.7}),
    *from_dict("FrequencyInterval-point", FrequencyInterval, {"kind": "point", "value": 0.5}),
    *from_dict("EvidenceCounts", EvidenceCounts, {"w_plus": 6.0, "w_total": 10.0}),
    *from_dict("EvidenceWeights-finite", EvidenceWeights, {"kind": "finite", "w_plus": 1.0, "w_minus": 2.0}),
    *from_dict("EvidenceWeights-infinite", EvidenceWeights, {"kind": "infinite", "delta": 1.0}),
    *positional("support_from_weight", support_from_weight, 1.0),
    *positional("delta_limit", delta_limit, 0.5),
    *positional("bernoulli_combine", bernoulli_combine, 0.2, 0.3),
    *positional("multiply_combine", multiply_combine, 0.2, 0.3),
    ("classify_limit-q", lambda x: classify_limit(x, UnitWeights())),
    ("run_dual_track-record_every", lambda x: run_dual_track(SPEC, UnitWeights(), x)),
]


@pytest.mark.parametrize("call", [call for _, call in ENTRY_POINTS], ids=[name for name, _ in ENTRY_POINTS])
@given(value=hostile)
def test_a_hostile_argument_returns_or_raises_an_evcalc_error(call, value):
    try:
        call(value)
    except CONTRACT:
        pass


IV = BeliefInterval(0.2, 0.7)
MASS = MassAssignment(0.2, 0.3, 0.5)
FI = FrequencyInterval(0.2, 0.7)
POINT = FrequencyInterval.point(0.5)
COUNTS = EvidenceCounts(6.0, 10.0)
WEIGHTS = EvidenceWeights.finite(1.0, 2.0)
FAITHFUL = StreamSpec(mode="frequency_faithful", steps=5, q=0.5)

MAPS = [
    *positional("combine_interval", combine_interval, IV, IV),
    *positional("combine_mass", combine_mass, MASS, MASS),
    *positional("interval_to_mass", interval_to_mass, IV),
    *positional("mass_to_interval", mass_to_interval, MASS),
    *positional("belief_from_weights", belief_from_weights, WEIGHTS),
    *positional("weights_from_belief", weights_from_belief, IV),
    *positional("add_weights", add_weights, WEIGHTS, WEIGHTS),
    *positional("positive_proportion", positive_proportion, IV),
    ("classify_limit-unit", lambda x: classify_limit(0.5, x)),
    *positional("interval_from_counts", interval_from_counts, COUNTS),
    *positional("counts_from_interval", counts_from_interval, FI),
    *positional("frequency", frequency, FI),
    *positional("ignorance", ignorance, FI),
    *positional("combine_lu", combine_lu, FI, FI),
    *positional("combine_with_point", combine_with_point, POINT, FI),
    *positional("combine_points", combine_points, POINT, POINT),
    *positional("pool_lu", pool_lu, FI, FI),
    *positional("weights_from_counts", weights_from_counts, COUNTS),
    *positional("counts_from_weights", counts_from_weights, WEIGHTS),
    *positional("lu_from_weights", lu_from_weights, WEIGHTS),
    *positional("lu_from_belpl", lu_from_belpl, IV),
    *positional("belpl_from_lu", belpl_from_lu, FI),
    *positional("generate_stream", generate_stream, FAITHFUL),
    *positional("run_dual_track", run_dual_track, FAITHFUL, UnitWeights()),
    *positional("check_limits", check_limits, run_dual_track(FAITHFUL), FAITHFUL, UnitWeights()),
]

NOT_VALUES = [None, "x", [1], {"bel": 0.2, "pl": 0.7}, 1.5, object()]


@pytest.mark.parametrize("value", NOT_VALUES, ids=["None", "str", "list", "dict", "float", "object"])
@pytest.mark.parametrize("call", [call for _, call in MAPS], ids=[name for name, _ in MAPS])
def test_a_map_given_a_non_value_raises_attribute_error(call, value):
    with pytest.raises(AttributeError):
        call(value)
