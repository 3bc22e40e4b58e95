"""One error contract for every public entry point.

A call with one hostile argument, every other argument valid, either
returns or raises one of evcalc's four errors: never a TypeError,
OverflowError, bare ValueError or any other exception.  The hostile values
come from one strategy: None, strings, bytes, containers, bools, ints past
float range and past the interpreter's digit limit for str(), nan and the
infinities, Decimals (NaN, signaling NaN and past float range included),
Fractions, complex numbers and a plain object().
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
    bernoulli_combine,
    classify_limit,
    delta_limit,
    multiply_combine,
    run_dual_track,
    support_from_weight,
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
