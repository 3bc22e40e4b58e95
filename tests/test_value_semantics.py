"""Value semantics of every immutable value type.

Each type is an immutable value: its repr reads Name(field=value, ...),
equality and hash go over its fields and only within one class, a field
cannot be assigned or deleted, and it constructs from positional or keyword
arguments with the documented defaults.  These pins hold whatever machinery
implements the types.
"""

import copy
import pickle

import pytest

from evcalc import (
    BeliefInterval,
    ConflictReport,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    LimitReport,
    MassAssignment,
    StreamSpec,
    Trajectory,
    TrajectoryRow,
    UnitWeights,
    belief_from_weights,
)

ROW = TrajectoryRow(1, 1, 0.5, 1.0, 0.5, 1.0, 1.0)
START = TrajectoryRow(0, 0, 0.0, 1.0, 0.0, 1.0, None)

# (class, field names, field values in order, exact repr)
CASES = [
    (MassAssignment, ("m_h", "m_not_h", "m_theta"), (0.25, 0.25, 0.5),
     "MassAssignment(m_h=0.25, m_not_h=0.25, m_theta=0.5)"),
    (BeliefInterval, ("bel", "pl"), (0.2, 0.7),
     "BeliefInterval(bel=0.2, pl=0.7)"),
    (EvidenceWeights, ("kind", "w_plus", "w_minus", "delta"), ("finite", 1.5, 0.5, None),
     "EvidenceWeights(kind='finite', w_plus=1.5, w_minus=0.5, delta=None)"),
    (EvidenceWeights, ("kind", "w_plus", "w_minus", "delta"), ("infinite", None, None, -2.0),
     "EvidenceWeights(kind='infinite', w_plus=None, w_minus=None, delta=-2.0)"),
    (UnitWeights, ("w0_plus", "w0_minus"), (0.5, 2.0),
     "UnitWeights(w0_plus=0.5, w0_minus=2.0)"),
    (FrequencyInterval, ("l", "u"), (0.25, 0.75),
     "FrequencyInterval(l=0.25, u=0.75)"),
    (EvidenceCounts, ("w_plus", "w_total"), (1.0, 3.0),
     "EvidenceCounts(w_plus=1.0, w_total=3.0)"),
    (ConflictReport, ("first", "second"), (0.25, 0.75),
     "ConflictReport(first=0.25, second=0.75)"),
    (StreamSpec, ("mode", "steps", "q", "delta", "seed", "outcomes"), ("explicit", 2, None, None, 0, (True, False)),
     "StreamSpec(mode='explicit', steps=2, q=None, delta=None, seed=0, outcomes=(True, False))"),
    (StreamSpec, ("mode", "steps", "q", "delta", "seed", "outcomes"), ("bernoulli", 3, 0.5, None, 7, None),
     "StreamSpec(mode='bernoulli', steps=3, q=0.5, delta=None, seed=7, outcomes=None)"),
    (Trajectory, ("rows",), ((START, ROW),),
     "Trajectory(rows=(TrajectoryRow(t=0, t_plus=0, ds_bel=0.0, ds_pl=1.0, lu_l=0.0, lu_u=1.0, freq=None), "
     "TrajectoryRow(t=1, t_plus=1, ds_bel=0.5, ds_pl=1.0, lu_l=0.5, lu_u=1.0, freq=1.0)))"),
    (LimitReport,
     ("mode", "final", "predicted_limit", "bel_gap_to_prediction", "q", "freq_gap_to_q", "lower_gap_to_q",
      "delta", "analytic_point", "bel_gap_to_analytic"),
     ("bernoulli", ROW, 1.0, 0.5, 0.5, 0.5, 0.0, None, None, None),
     "LimitReport(mode='bernoulli', final=TrajectoryRow(t=1, t_plus=1, ds_bel=0.5, ds_pl=1.0, lu_l=0.5, "
     "lu_u=1.0, freq=1.0), predicted_limit=1.0, bel_gap_to_prediction=0.5, q=0.5, freq_gap_to_q=0.5, "
     "lower_gap_to_q=0.0, delta=None, analytic_point=None, bel_gap_to_analytic=None)"),
]

IDS = [f"{cls.__name__}-{i}" for i, (cls, *_rest) in enumerate(CASES)]


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_repr_is_exact(cls, fields, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_fields_read_back(cls, fields, values, text):
    v = cls(*values)
    assert tuple(getattr(v, f) for f in fields) == values


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_equal_values_compare_and_hash_equal(cls, fields, values, text):
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_not_equal_to_a_plain_tuple(cls, fields, values, text):
    v = cls(*values)
    assert v != values and values != v
    assert v.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_not_equal_to_another_class(cls, fields, values, text):
    v = cls(*values)
    for other_cls, _fields, other_values, _text in CASES:
        if other_cls is not cls:
            assert v != other_cls(*other_values)


@pytest.mark.parametrize(
    "a, b",
    [
        (BeliefInterval(0.2, 0.5), FrequencyInterval(0.2, 0.5)),
        (FrequencyInterval(0.25, 0.75), ConflictReport(0.25, 0.75)),
        (EvidenceCounts(1.0, 3.0), UnitWeights(1.0, 3.0)),
        (UnitWeights(0.5, 2.0), ConflictReport(0.5, 2.0)),
    ],
    ids=["belief-frequency", "frequency-conflict", "counts-unit", "unit-conflict"],
)
def test_same_numbers_in_another_class_are_not_equal(a, b):
    assert a != b and b != a
    assert a.__eq__(b) is NotImplemented


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, text):
    v = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(v, name, values[0])
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert tuple(getattr(v, f) for f in fields) == values


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, fields, values, text):
    v = cls(*values)
    assert copy.copy(v) == v
    assert copy.deepcopy(v) == v
    assert pickle.loads(pickle.dumps(v)) == v


def test_defaults_fill_unnamed_fields():
    assert UnitWeights() == UnitWeights(1.0, 1.0) == UnitWeights(w0_plus=1.0, w0_minus=1.0)
    assert UnitWeights(w0_minus=2.0) == UnitWeights(1.0, 2.0)
    assert StreamSpec(mode="explicit", outcomes=(True,)) == StreamSpec("explicit", 1, None, None, 0, (True,))
    assert StreamSpec("bernoulli", 3, 0.5) == StreamSpec(mode="bernoulli", steps=3, q=0.5, seed=0)
    assert EvidenceWeights.finite(1.5, 0.5) == EvidenceWeights("finite", 1.5, 0.5)
    assert EvidenceWeights.finite(1.5, 0.5) == EvidenceWeights(kind="finite", w_plus=1.5, w_minus=0.5)
    assert EvidenceWeights.infinite(-2.0) == EvidenceWeights("infinite", delta=-2.0)
    report = LimitReport("explicit", ROW)
    assert report == LimitReport(mode="explicit", final=ROW, q=None)
    assert report.predicted_limit is None and report.bel_gap_to_analytic is None


def test_construction_normalizes_fields():
    assert MassAssignment(1, 0, 0).m_h == 1.0 and type(MassAssignment(1, 0, 0).m_h) is float
    assert UnitWeights(2, 3) == UnitWeights(2.0, 3.0)
    assert EvidenceWeights("finite", 1, 2, delta=5.0).delta is None
    assert EvidenceWeights("infinite", 1.0, 2.0, delta=3).w_plus is None
    assert StreamSpec("explicit", outcomes=[1, 0]).outcomes == (True, False)
    assert StreamSpec("delta_profile", 4, delta=2).delta == 2.0


def test_weight_built_interval_keeps_plain_semantics():
    built = belief_from_weights(EvidenceWeights.finite(1.0, 2.0))
    plain = BeliefInterval(built.bel, built.pl)
    assert built == plain and hash(built) == hash(plain)
    assert repr(built) == repr(plain) == f"BeliefInterval(bel={built.bel!r}, pl={built.pl!r})"
    with pytest.raises(AttributeError):
        built._carried = None
