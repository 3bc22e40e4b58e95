"""Stream generation and the dual-track convergence runs."""

import io
import math
import sys
import tracemalloc
from decimal import Decimal
from itertools import accumulate, islice

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import highprec
from evcalc import (
    BeliefInterval,
    EvidenceCounts,
    EvidenceWeights,
    StreamSpec,
    TotalConflictError,
    Trajectory,
    TrajectoryRow,
    UnitWeights,
    ValidationError,
    belief_from_weights,
    check_limits,
    combine_interval,
    delta_limit,
    generate_stream,
    interval_from_counts,
    run_dual_track,
    support_from_weight,
)
from evcalc import convergence
from evcalc.convergence import _SATURATION_GAP, SplitMix64, _bernoulli_blocks, _dual_track_rows, _write_csv
from evcalc.evidence_scale import _belief_parts

UNIT = UnitWeights()


# --- generate_stream ---


def test_faithful_stream_recurrence():
    spec = StreamSpec(mode="frequency_faithful", steps=4, q=0.5)
    assert generate_stream(spec) == [False, True, False, True]


def test_faithful_stream_tracks_the_rate():
    for q in (0.0, 0.3, 0.7, 1.0):
        outcomes = generate_stream(StreamSpec(mode="frequency_faithful", steps=500, q=q))
        t_plus = 0
        for t, positive in enumerate(outcomes, start=1):
            t_plus += positive
            assert abs(t_plus - q * t) < 1.0 + 1e-9


def test_delta_profile_stream():
    spec = StreamSpec(mode="delta_profile", steps=6, delta=2)
    outcomes = generate_stream(spec)
    assert outcomes == [False, False, True, False, True, False]
    # negative minus positive count is exactly delta at even steps
    for t in (2, 4, 6):
        t_plus = sum(outcomes[:t])
        assert (t - t_plus) - t_plus == 2


def test_explicit_stream_passthrough():
    spec = StreamSpec(mode="explicit", outcomes=[True])
    assert generate_stream(spec) == [True]
    assert spec.steps == 1


def test_bernoulli_stream_determinism():
    spec = StreamSpec(mode="bernoulli", steps=64, q=0.5, seed=0)
    first = generate_stream(spec)
    assert first == generate_stream(spec)
    # pinned generator: the prefix is a portable regression value
    assert first[:8] == [False, True, True, False, True, True, True, False]
    other = generate_stream(StreamSpec(mode="bernoulli", steps=64, q=0.5, seed=1))
    assert other != first


GAMMA = 0x9E3779B97F4A7C15
M64 = (1 << 64) - 1


def _splitmix_outcomes(seed, q, n):
    rng = SplitMix64(seed)
    return [rng.uniform() < q for _ in range(n)]


def _bernoulli_stream(seed, q, n):
    return generate_stream(StreamSpec(mode="bernoulli", steps=n, q=q, seed=seed))


# generate_stream and the block generator against the class: empty, partial, exact and
# several 1024-draw blocks, and thresholds T = ceil(q * 2**53) of 0, 1, 2, 2**53 - 1, 2**53;
# ten blocks carry the packed lane states across many wraps of 2**64
@pytest.mark.parametrize("seed", [0, 1, 2024, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 1.0, 5e-324, 2.0**-53, 3 * 2.0**-54, 0.9999999999999999])
def test_inlined_bernoulli_iterator_matches_splitmix64(seed, q):
    expected = _splitmix_outcomes(seed, q, 10 * 1024 + 3)
    for n in (0, 1, 500, 1023, 1024, 1025, 3 * 1024 + 7, 10 * 1024 + 3):
        got = _bernoulli_stream(seed, q, n)
        assert all(type(o) is bool for o in got)  # generate_stream stays list[bool]
        assert got == expected[:n]
        # the fold's form: bytes of 1 or 0, every block but the last 1024 long
        blocks = list(_bernoulli_blocks(seed, q, n))
        assert all(type(block) is bytes and set(block) <= {0, 1} for block in blocks)
        assert [len(block) for block in blocks[:-1]] == [1024] * (len(blocks) - 1)
        assert [o == 1 for o in b"".join(blocks)] == expected[:n]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 0.9, -1.5, math.nan, math.inf])
def test_splitmix64_rejects_a_seed_that_would_alias_another(seed):
    # reduced to int(seed) mod 2**64, -1 would replay 2**64 - 1, and 2**70 and 0.9 seed 0
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        SplitMix64(seed)


def test_splitmix64_takes_a_whole_seed_in_range():
    assert SplitMix64(7.0).next_u64() == SplitMix64(7).next_u64()


def _unxorshift(y, k):
    # the x with x ^ (x >> k) == y: each pass fixes k more top bits
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def _seed_with_draw(j, z):
    """A seed whose SplitMix64 draw j (0-based) is the 64-bit output z."""
    z = _unxorshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & M64
    z = _unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & M64
    return (_unxorshift(z, 30) - (j + 1) * GAMMA) & M64


@pytest.mark.parametrize("j", [0, 1023, 1024, 2050])
@pytest.mark.parametrize("z_offset", [-1, 0])  # v = T - 1 with all low bits set, and v = T with none
def test_bernoulli_iterator_at_the_threshold(j, z_offset):
    q = 0.3
    seed = _seed_with_draw(j, (math.ceil(q * 2.0**53) << 11) + z_offset)
    expected = _splitmix_outcomes(seed, q, j + 3)
    assert expected[j] is (z_offset < 0)
    assert _bernoulli_stream(seed, q, j + 3) == expected


@given(st.integers(min_value=0, max_value=2**64 - 1), st.floats(min_value=0.0, max_value=1.0))
def test_bernoulli_iterator_matches_splitmix64_anywhere(seed, q):
    assert _bernoulli_stream(seed, q, 1030) == _splitmix_outcomes(seed, q, 1030)


def test_bernoulli_stream_rate_sanity():
    outcomes = generate_stream(StreamSpec(mode="bernoulli", steps=10_000, q=0.3, seed=7))
    assert abs(sum(outcomes) / 10_000 - 0.3) < 0.02


# the modes that build their own blocks, against per-step definitions
@pytest.mark.parametrize("steps", [0, 1, 1023, 1024, 1025, 2048, 3 * 1024 + 7])
def test_outcome_blocks_match_the_per_step_definitions(steps):
    explicit = [t % 3 == 0 or t % 7 == 0 for t in range(steps)]
    cases = [(StreamSpec(mode="explicit", outcomes=explicit), explicit)]
    for q in (0.0, 0.3, 0.62, 0.7, 0.9999999999999999, 1.0):
        faithful = [math.floor(q * t) > math.floor(q * (t - 1)) for t in range(1, steps + 1)]
        cases.append((StreamSpec(mode="frequency_faithful", steps=steps, q=q), faithful))
    for d in (0, 1, 2, 1023, 1024, 1025, 2000, 10**6):
        delta = [t >= d and (t - d) % 2 == 0 for t in range(steps)]
        cases.append((StreamSpec(mode="delta_profile", steps=steps, delta=d), delta))
    for spec, expected in cases:
        blocks = list(convergence._outcome_blocks(spec))
        assert all(type(block) is bytes for block in blocks)
        assert [len(block) for block in blocks] == [1024] * (steps // 1024) + [steps % 1024] * (steps % 1024 > 0)
        assert b"".join(blocks) == bytes(expected)
        stream = generate_stream(spec)
        assert type(stream) is list and all(type(o) is bool for o in stream)
        assert stream == expected


@pytest.mark.parametrize("mode, arg", [("frequency_faithful", {"q": 0.7}), ("delta_profile", {"delta": 10**12})])
def test_outcome_blocks_are_built_one_at_a_time(mode, arg):
    # a step count no memory could hold: only the first block is built
    block = next(convergence._outcome_blocks(StreamSpec(mode=mode, steps=10**15, **arg)))
    assert len(block) == 1024


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "nope", "steps": 5},
        {"mode": "bernoulli", "steps": 5},  # missing q
        {"mode": "bernoulli", "steps": 5, "q": 1.5},
        {"mode": "bernoulli", "steps": -1, "q": 0.5},
        {"mode": "bernoulli", "steps": 5, "q": 0.5, "seed": -2},
        {"mode": "delta_profile", "steps": 5},  # missing delta
        {"mode": "delta_profile", "steps": 5, "delta": 2.5},  # non-integer
        {"mode": "delta_profile", "steps": 5, "delta": -1},
        {"mode": "explicit"},  # missing outcomes
        {"mode": "explicit", "outcomes": (True,), "steps": 3},  # length mismatch
        {"mode": "bernoulli", "steps": math.nan, "q": 0.5},
        {"mode": "bernoulli", "steps": math.inf, "q": 0.5},
        {"mode": "bernoulli", "steps": 5, "q": 0.5, "seed": math.nan},
        {"mode": "bernoulli", "steps": 5, "q": 0.5, "seed": math.inf},
        {"mode": "bernoulli", "steps": 5, "q": 0.5, "seed": 2**64},  # would alias seed 0
        {"mode": "bernoulli", "steps": 5, "q": 0.5, "seed": 2**70},
        {"mode": "bernoulli", "steps": 5, "q": "x"},
        {"mode": "frequency_faithful", "steps": 5, "q": [0.5]},
        {"mode": "bernoulli", "steps": 5, "q": math.nan},
        {"mode": "delta_profile", "steps": 5, "delta": "x"},
        {"mode": "delta_profile", "steps": 5, "delta": 10**400},
        {"mode": "explicit", "outcomes": 5},
        {"mode": "explicit", "outcomes": b"0101"},  # the bytes 48 and 49, not 0 and 1
        {"mode": "explicit", "outcomes": ["0", "1", "0"]},
    ],
)
def test_stream_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        StreamSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "bernoulli", "steps": 5, "q": "x"}, "q must be a real number, got 'x'"),
        ({"mode": "bernoulli", "steps": 5}, "q must be a real number, got None"),
        ({"mode": "delta_profile", "steps": 5, "delta": "x"}, "delta must be a real number, got 'x'"),
        ({"mode": "explicit", "outcomes": 5}, "explicit mode needs an outcomes sequence, got 5"),
        ({"mode": "explicit"}, "explicit mode needs an outcomes sequence, got None"),
        # a string is iterable, but each of its characters would be a positive outcome
        ({"mode": "explicit", "outcomes": "0101"}, "explicit mode needs an outcomes sequence, got '0101'"),
    ],
)
def test_stream_spec_names_a_field_that_is_not_a_number(kwargs, message):
    with pytest.raises(ValidationError) as info:
        StreamSpec(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call",
    [lambda: StreamSpec(mode="bernoulli", steps=5, q=0.5, seed=10**5000),
     lambda: StreamSpec(mode="bernoulli", steps=-10**5000, q=0.5),
     lambda: StreamSpec(mode="explicit", steps=10**5000, outcomes=(True,)),
     lambda: run_dual_track(StreamSpec(mode="bernoulli", steps=5, q=0.5), record_every=-10**5000)],
    ids=["seed", "steps", "explicit_steps", "record_every"],
)
def test_an_int_past_the_digit_limit_is_still_a_validation_error(call):
    # repr of an int of more than 4300 digits raises, so the message cannot show it
    with pytest.raises(ValidationError):
        call()


def test_stream_spec_stores_q_as_a_float():
    # as delta is: an int or a numeric string q is stored as the float it stands for
    for q in (1, "1", 1.0):
        spec = StreamSpec(mode="bernoulli", steps=5, q=q)
        assert spec.q == 1.0 and type(spec.q) is float
        assert spec == StreamSpec(mode="bernoulli", steps=5, q=1.0)


def test_explicit_stream_spec_stores_whole_steps_as_int():
    # as the other modes do: a whole float step count is stored as an int
    spec = StreamSpec(mode="explicit", outcomes=(True, False, True, True, False), steps=5.0)
    assert spec.steps == 5 and type(spec.steps) is int


# one valid spec per mode, without its seed
SPEC_PER_MODE = {
    "bernoulli": {"mode": "bernoulli", "steps": 5, "q": 0.5},
    "frequency_faithful": {"mode": "frequency_faithful", "steps": 5, "q": 0.5},
    "delta_profile": {"mode": "delta_profile", "steps": 5, "delta": 1},
    "explicit": {"mode": "explicit", "outcomes": (True, False)},
}


@pytest.mark.parametrize("seed", [5.0, True])
@pytest.mark.parametrize("kwargs", SPEC_PER_MODE.values(), ids=list(SPEC_PER_MODE))
def test_stream_spec_stores_the_seed_as_an_int(kwargs, seed):
    spec = StreamSpec(**kwargs, seed=seed)
    assert spec.seed == int(seed) and type(spec.seed) is int


@pytest.mark.parametrize("seed", ["abc", -3, 2**64, None])
@pytest.mark.parametrize("kwargs", SPEC_PER_MODE.values(), ids=list(SPEC_PER_MODE))
def test_stream_spec_checks_the_seed_in_every_mode(kwargs, seed):
    # delta_profile and explicit streams draw no random numbers, but a spec
    # holds only seeds that would replay
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        StreamSpec(**kwargs, seed=seed)


# --- run_dual_track ---


def test_zero_steps_gives_single_vacuous_row():
    traj = run_dual_track(StreamSpec(mode="frequency_faithful", steps=0, q=0.7), UNIT)
    assert traj.rows == (TrajectoryRow(0, 0, 0.0, 1.0, 0.0, 1.0, None),)


def test_single_positive_outcome_row():
    traj = run_dual_track(StreamSpec(mode="explicit", outcomes=[True]), UNIT)
    row = traj.final
    assert row.t == 1 and row.t_plus == 1
    assert row.ds_bel == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert row.ds_pl == 1.0
    assert (row.lu_l, row.lu_u) == (0.5, 1.0)
    assert row.freq == 1.0


def test_faithful_run_shows_the_divergence():
    spec = StreamSpec(mode="frequency_faithful", steps=2000, q=0.7)
    traj = run_dual_track(spec, UNIT)
    final = traj.final
    assert final.ds_bel > 0.999 and final.ds_pl > 0.999
    assert abs(final.lu_l - 0.7) < 0.001
    assert abs(final.lu_u - 0.7) < 0.001
    assert final.freq == pytest.approx(0.7, abs=1e-3)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_lu_track_convergence_bound(q):
    traj = run_dual_track(StreamSpec(mode="frequency_faithful", steps=200, q=q), UNIT)
    for row in traj.rows[1:]:
        assert abs(row.lu_l - q) <= (q + 1.0) / (row.t + 1.0) + 1e-12
        assert abs(row.lu_u - q) <= (2.0 - q) / (row.t + 1.0) + 1e-12


def test_dempster_fold_agrees_with_direct_weight_evaluation():
    # the fold and the closed-form weight map are the same operation
    traj = run_dual_track(StreamSpec(mode="delta_profile", steps=2000, delta=2), UNIT)
    for row in traj.rows[1:]:
        direct = belief_from_weights(EvidenceWeights.finite(row.t_plus, row.t - row.t_plus))
        assert row.ds_bel == pytest.approx(direct.bel, abs=1e-6)
        assert row.ds_pl == pytest.approx(direct.pl, abs=1e-6)


def test_non_unit_weights_change_the_limit():
    # q = 0.6 but negative outcomes weigh double: belief collapses to 0
    unit = UnitWeights(1.0, 2.0)
    spec = StreamSpec(mode="frequency_faithful", steps=2000, q=0.6)
    traj = run_dual_track(spec, unit)
    assert traj.final.ds_bel < 1e-3
    report = check_limits(traj, spec, unit)
    assert report.predicted_limit == 0.0
    # the lu track uses the same weights: w = w0+ t+ + w0- (t - t+), row by row
    for row in traj.rows:
        w = 1.0 * row.t_plus + 2.0 * (row.t - row.t_plus)
        assert row.lu_u - row.lu_l == pytest.approx(1.0 / (w + 1.0), rel=1e-12)


@pytest.mark.parametrize("q", [0.3, 0.7, 0.9])
def test_dempster_limit_misses_the_chance(q):
    # belief lands on the classification value, far from the rate itself,
    # while the frequency track stays within a step of it
    spec = StreamSpec(mode="frequency_faithful", steps=2000, q=q)
    traj = run_dual_track(spec, UNIT)
    report = check_limits(traj, spec, UNIT)
    assert report.bel_gap_to_prediction <= 1e-3
    assert abs(traj.final.ds_bel - q) > 0.05
    assert report.lower_gap_to_q <= 1e-3


def test_ignorance_strictly_decreases_along_the_run():
    traj = run_dual_track(StreamSpec(mode="frequency_faithful", steps=300, q=0.7), UNIT)
    widths = [row.lu_u - row.lu_l for row in traj.rows]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_runs_are_deterministic():
    spec = StreamSpec(mode="bernoulli", steps=100, q=0.4, seed=11)
    assert run_dual_track(spec, UNIT) == run_dual_track(spec, UNIT)


def test_record_every_keeps_start_and_final():
    spec = StreamSpec(mode="frequency_faithful", steps=10, q=0.5)
    traj = run_dual_track(spec, UNIT, record_every=4)
    assert [row.t for row in traj.rows] == [0, 4, 8, 10]
    for bad in (0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            run_dual_track(spec, UNIT, record_every=bad)


def test_whole_float_record_every_gives_the_integer_rows():
    # rows in some blocks and not in others
    spec = StreamSpec(mode="bernoulli", steps=10_000, q=0.7, seed=5)
    rows = run_dual_track(spec, UNIT, record_every=2000).rows
    assert [row.t for row in rows] == [0, 2000, 4000, 6000, 8000, 10_000]
    assert repr(run_dual_track(spec, UNIT, record_every=2000.0).rows) == repr(rows)


@pytest.mark.parametrize(
    "spec",
    [
        StreamSpec(mode="frequency_faithful", steps=10, q=0.5),
        StreamSpec(mode="bernoulli", steps=2500, q=0.7, seed=5),
        StreamSpec(mode="delta_profile", steps=1030, delta=3),
        StreamSpec(mode="explicit", outcomes=[True, False, True]),
    ],
)
def test_a_stride_past_the_run_records_the_start_and_final_rows(spec):
    # strides from 2**63 on are past what islice takes
    csv = run_dual_track(spec, UNIT, record_every=spec.steps).to_csv()
    assert csv.count("\n") == 3
    for stride in (spec.steps + 1, 2**63, 10**20):
        assert run_dual_track(spec, UNIT, record_every=stride).to_csv() == csv


@pytest.mark.parametrize("stride", [sys.maxsize, sys.maxsize + 1, 10**20])
def test_a_stride_past_sys_maxsize_records_no_row_in_a_block(monkeypatch, stride):
    # islice takes no index above sys.maxsize; a run of sys.maxsize steps takes
    # strides up to it and past it, and none records a row in its first blocks
    monkeypatch.setattr(convergence, "_outcome_blocks", lambda spec: iter([b"\x01\x00" * 512] * 3))
    spec = StreamSpec(mode="frequency_faithful", steps=sys.maxsize, q=0.5)
    assert run_dual_track(spec, UNIT, record_every=stride).rows == (TrajectoryRow(0, 0, 0.0, 1.0, 0.0, 1.0, None),)


def test_unit_weight_whose_support_rounds_to_one_is_rejected():
    # from 54 ln 2 on, 1 - e^-w rounds to 1: one outcome would be certain
    # evidence, and iterating the rule over it would no longer be adding
    # weights (its first opposite outcome would be a total conflict)
    spec = StreamSpec(mode="frequency_faithful", steps=10, q=0.5)
    bound = 54 * math.log(2)
    for unit in (UnitWeights(40.0, 1.0), UnitWeights(1.0, bound)):
        with pytest.raises(ValidationError, match="must be below 54 ln 2"):
            _dual_track_rows(spec, unit)  # raised before the first row is asked for
    assert run_dual_track(spec, UnitWeights(math.nextafter(bound, 0.0), 1.0)).final.t == 10


@given(wm=st.floats(0.0, 1e6), gap=st.floats(_SATURATION_GAP, 1e6, exclude_min=True))
@example(wm=0.0, gap=math.nextafter(_SATURATION_GAP, math.inf))
@example(wm=1e6, gap=math.nextafter(_SATURATION_GAP, math.inf))
def test_belief_parts_round_onto_one_above_the_saturation_gap(wm, gap):
    # the fold's (1.0, 1.0) above the gap is what the closed form gives there
    wp = wm + gap
    assume(wp - wm > _SATURATION_GAP)
    bel, _, _, width = _belief_parts(wp, wm)
    assert bel == 1.0 and bel + width == 1.0


def test_belief_parts_below_the_saturation_gap_need_not_round_onto_one():
    # at wp = 53 ln 2, e^-wp is about 2**-53, a whole float spacing below 1,
    # and bel falls one ulp short of 1; between there and the gap the closed
    # form itself gives the rows
    bel, _, _, width = _belief_parts(53 * math.log(2), 0.0)
    assert (bel, bel + width) == (0.9999999999999999, 1.0)
    assert _SATURATION_GAP == 54 * math.log(2)


def test_tiny_unit_weight_rows_keep_their_frequency():
    # w + 1 rounds to 1, so the recorded bounds are (0, 1) although
    # outcomes were seen; f comes from the accumulated weights instead
    spec = StreamSpec(mode="explicit", outcomes=(False, False, False))
    rows = run_dual_track(spec, UnitWeights(1.0, 1e-17)).rows
    assert [(row.lu_l, row.lu_u) for row in rows] == [(0.0, 1.0)] * 4
    assert [row.freq for row in rows] == [None, 0.0, 0.0, 0.0]
    # both signs tiny: u rounds to 1 while l > 0, so l / (l + 1 - u) would read 1
    spec = StreamSpec(mode="frequency_faithful", steps=4, q=0.5)
    freqs = [row.freq for row in run_dual_track(spec, UnitWeights(1e-17, 1e-17)).rows]
    assert freqs[0] is None
    assert freqs[1:] == pytest.approx([0.0, 0.5, 1 / 3, 0.5], abs=1e-15)


@pytest.mark.parametrize(
    "spec",
    [StreamSpec(mode="frequency_faithful", steps=2000, q=q) for q in (0.3, 0.5, 0.7)]
    + [StreamSpec(mode="bernoulli", steps=2000, q=q, seed=7) for q in (0.3, 0.5, 0.7)],
    ids=lambda spec: f"{spec.mode}-{spec.q}",
)
def test_unit_weight_rows_give_the_exact_outcome_rate(spec):
    # under unit weights w+ / w is t_plus / t, with no rounding through the bounds
    rows = run_dual_track(spec, UnitWeights(1.0, 1.0)).rows
    assert all(row.freq == row.t_plus / row.t for row in rows[1:])


def _reference_rows(spec, unit, record_every):
    """The fold one value at a time: each recorded row from the public closed
    forms of its two counts' weights, t_plus * w0+ and (t - t_plus) * w0-."""
    t_plus = 0
    yield (0, 0, 0.0, 1.0, 0.0, 1.0, None)
    for t, positive in enumerate(generate_stream(spec), start=1):
        t_plus += positive
        if t % record_every == 0 or t == spec.steps:
            wp, wm = t_plus * unit.w0_plus, (t - t_plus) * unit.w0_minus
            state = belief_from_weights(EvidenceWeights.finite(wp, wm))
            counts = EvidenceCounts(wp, wp + wm)
            fi = interval_from_counts(counts)
            yield (t, t_plus, state.bel, state.pl, fi.l, fi.u, counts.w_plus / counts.w_total)


# unit weights in general, and short ones: dyadic, small integers, and 1 + 2**-44,
# whose products k * w0 equal k repeated additions only up to 511 copies
_SHORT_WEIGHTS = st.sampled_from([1.0, 0.5, 0.25, 2.0, 3.0, 1 + 2**-44, 2**-30])


@given(
    mode=st.sampled_from(["bernoulli", "frequency_faithful"]),
    q=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    steps=st.integers(0, 2000),
    w0_plus=st.one_of(st.floats(0.0, 37.4, exclude_min=True), _SHORT_WEIGHTS),
    w0_minus=st.one_of(st.floats(0.0, 37.4, exclude_min=True), _SHORT_WEIGHTS),
    record_every=st.sampled_from([1, 7, 1000, 1025, 1500]),
)
# heavy unit weights: a chain of combine_interval meets a total conflict on the
# second (test_chained_heavy_weights_meet_total_conflict_at_one), the rows never do
@example(mode="frequency_faithful", q=0.995, seed=0, steps=50, w0_plus=24.69, w0_minus=36.89, record_every=1)
@example(mode="bernoulli", q=0.551, seed=759152683, steps=50, w0_plus=28.09, w0_minus=28.47, record_every=1)
@example(mode="bernoulli", q=0.7, seed=3, steps=2000, w0_plus=1.0, w0_minus=1.0, record_every=7)
# about 1800 positives, most past the 511 copies of 1 + 2**-44 that k * w0+ holds exactly
@example(mode="bernoulli", q=0.9, seed=1, steps=2000, w0_plus=1 + 2**-44, w0_minus=1.0, record_every=1500)
# w- = 0 and w+ = 0.2356...: pl rounds to 1.0000000000000002, which the repair puts back onto 1
@example(mode="frequency_faithful", q=1.0, seed=0, steps=1, w0_plus=0.23563534375756282, w0_minus=1.0, record_every=1)
def test_fold_matches_a_value_by_value_reference(mode, q, seed, steps, w0_plus, w0_minus, record_every):
    # the same rows bit for bit (repr tells signed zeros apart)
    spec = StreamSpec(mode=mode, steps=steps, q=q, seed=seed)
    unit = UnitWeights(w0_plus, w0_minus)
    got = list(_dual_track_rows(spec, unit, record_every))
    assert repr(got) == repr(list(_reference_rows(spec, unit, record_every)))


def _runs_of_outcomes(runs):
    return [positive for positive, n in runs for _ in range(n)][:5000]


@given(
    outcomes=st.lists(st.tuples(st.booleans(), st.integers(1, 2500)), max_size=10).map(_runs_of_outcomes),
    w0_plus=st.one_of(st.floats(0.0, 37.0, exclude_min=True, exclude_max=True), _SHORT_WEIGHTS),
    w0_minus=st.one_of(st.floats(0.0, 37.0, exclude_min=True, exclude_max=True), _SHORT_WEIGHTS),
    record_every=st.one_of(st.integers(1, 3000), st.sampled_from([1024, 2048, 4096])),
)
# saturated at (1, 1) within the first block, then whole blocks without a row
@example(outcomes=[True] * 3000 + [False, True, True] * 600, w0_plus=0.1, w0_minus=0.1, record_every=1000)
@example(outcomes=[False] * 1100 + [True] * 2000, w0_plus=2.5, w0_minus=0.3, record_every=1025)
@example(outcomes=[True, True, False] * 1666, w0_plus=1.0, w0_minus=0.5, record_every=1024)  # rows end blocks
# gaps wp - wm of 36.7 and 73.4: just below 53 ln 2 the pair is not yet (1, 1)
@example(outcomes=[True, True], w0_plus=36.7, w0_minus=1.0, record_every=1)
# the positive count passes the 511 copies of 1 + 2**-44 that k * w0+ holds exactly
@example(outcomes=[True] * 2000 + [False, True] * 1500, w0_plus=1 + 2**-44, w0_minus=1.0, record_every=1500)
def test_counting_whole_blocks_equals_walking_every_step(outcomes, w0_plus, w0_minus, record_every):
    # the reference counts one step at a time, with no blocks and no shortcut
    spec = StreamSpec(mode="explicit", outcomes=outcomes)
    unit = UnitWeights(w0_plus, w0_minus)
    got = list(_dual_track_rows(spec, unit, record_every))
    assert repr(got) == repr(list(_reference_rows(spec, unit, record_every)))


# --- chains of combine_interval over the same streams ---
# A chain of combine_interval carries 1 - pl and pl - bel, so it follows the
# closed form of its added weights to rounding (highprec.chain): its pair
# rounds onto (1, 1) at the step where the exact values do, and the state is
# a fixed point of both supports only once its carried parts underflow to 0.


def _supports(unit=UNIT):
    """The simple supports for and against H that one outcome brings."""
    return support_from_weight(unit.w0_plus), support_from_weight(unit.w0_minus)


def _chain(spec, unit=UNIT):
    """The states of combine_interval folded over spec's outcomes, one simple
    support of weight w0+ or w0- per outcome: state n is after n outcomes."""
    s_plus, s_minus = _supports(unit)
    pos, neg = BeliefInterval(s_plus, 1.0), BeliefInterval(0.0, 1.0 - s_minus)
    supports = (pos if positive else neg for positive in generate_stream(spec))
    return accumulate(supports, combine_interval, initial=BeliefInterval.vacuous())


def _final_run_start(items, holds) -> int:
    """The index from which holds(item) is true of every item to the end."""
    start = len(items)
    while start and holds(items[start - 1]):
        start -= 1
    return start


def _assert_rounds_onto_one_then_absorbs(spec, reaches_one, absorbed_from):
    states = list(_chain(spec))
    one = BeliefInterval(1.0, 1.0)
    assert _final_run_start(states, lambda s: s == one) == reaches_one
    # the step where the exact pair first rounds to (1, 1) for good
    exact = [None, *highprec.chain(generate_stream(spec), *_supports())]
    with highprec.context():
        rounds_to_one = [n and float(e[0]) == float(e[0] + e[2]) == 1.0 for n, e in enumerate(exact)]
    assert _final_run_start(rounds_to_one, bool) == reaches_one
    # with both carried parts 0, both supports fix the state
    assert _final_run_start(states, lambda s: s.masses() == (1.0, 0.0, 0.0)) == absorbed_from
    s_plus, s_minus = _supports()
    pos, neg = BeliefInterval(s_plus, 1.0), BeliefInterval(0.0, 1.0 - s_minus)
    assert combine_interval(one, pos).masses() == combine_interval(one, neg).masses() == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("q", [0.6, 0.62, 0.65])
def test_faithful_run_below_two_thirds_rounds_onto_one_then_absorbs(q):
    # q below 2/3 is where a chain that rebuilt 1 - pl from (bel, pl) never
    # reached (1, 1): it cycled through three pairs a few ulps from it
    reaches_one, absorbed_from = {0.6: (194, 3725), 0.62: (162, 3105), 0.65: (130, 2485)}[q]
    spec = StreamSpec(mode="frequency_faithful", steps=20_000, q=q)
    _assert_rounds_onto_one_then_absorbs(spec, reaches_one, absorbed_from)


@pytest.mark.parametrize(
    "spec, reaches_one, absorbed_from",
    [(StreamSpec(mode="frequency_faithful", steps=20_000, q=0.7), 98, 1863),
     (StreamSpec(mode="bernoulli", steps=20_000, q=0.7, seed=1), 114, 1723)],
    ids=["faithful-0.7", "bernoulli-0.7"],
)
def test_chained_run_above_two_thirds_absorbs_at_exactly_one(spec, reaches_one, absorbed_from):
    _assert_rounds_onto_one_then_absorbs(spec, reaches_one, absorbed_from)


# measured over the grid below: at most 1.48 ulps on bel, 1.3e-14 relative on 1 - pl
CHAIN_BEL_ULPS, CHAIN_COMPLEMENT_REL = 2.0, 2e-14


@pytest.mark.parametrize("q", [0.55, 0.6, 0.65, 0.7, 0.75])
@pytest.mark.parametrize("unit", [UnitWeights(1.0, 1.0), UnitWeights(2.0, 1.0)], ids=["w1-1", "w2-1"])
def test_chain_follows_the_closed_form_of_its_weights(q, unit):
    spec = StreamSpec(mode="frequency_faithful", steps=20_000, q=q)
    exact = highprec.chain(generate_stream(spec), *_supports(unit))
    bound, smallest = Decimal(CHAIN_COMPLEMENT_REL), Decimal(sys.float_info.min)
    for n, (state, (bel, m_not_h, _)) in enumerate(zip(islice(_chain(spec, unit), 1, None), exact), 1):
        assert highprec.ulps(state.bel, bel) <= CHAIN_BEL_ULPS, (n, state, bel)
        with highprec.context():
            assert abs(Decimal(state.masses()[1]) - m_not_h) <= bound * m_not_h + smallest, (n, state, m_not_h)


def test_chained_heavy_weights_meet_total_conflict_at_one():
    # three positives of weight 28.09 round the state to (1, 1); the negative
    # support of weight 28.47 is within CONFLICT_TOLERANCE of contradicting it
    spec = StreamSpec(mode="bernoulli", steps=50, q=0.551, seed=759152683)
    assert generate_stream(spec)[:4] == [True, True, True, False]
    chain = _chain(spec, UnitWeights(28.09, 28.47))
    assert list(islice(chain, 4))[-1] == BeliefInterval(1.0, 1.0)
    with pytest.raises(TotalConflictError) as info:
        next(chain)
    assert str(info.value) == (
        "total conflict between BeliefInterval(bel=1.0, pl=1.0) and "
        "BeliefInterval(bel=0.0, pl=4.3209880118411093e-13)"
    )
    # the rows of the same stream and weights run to the end
    assert run_dual_track(spec, UnitWeights(28.09, 28.47)).final.t == 50


# --- CSV ---


def test_csv_layout():
    traj = run_dual_track(StreamSpec(mode="explicit", outcomes=[True, False]), UNIT)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,t_plus,bel,pl,l,u,f"
    assert lines[1] == "0,0,0,1,0,1,"  # undefined frequency serialized empty
    assert lines[2] == "1,1,0.632120558829,1,0.5,1,1"  # 12 significant digits
    assert len(lines) == 4
    cells = lines[3].split(",")
    assert cells[0] == "2" and cells[1] == "1"
    assert float(cells[6]) == pytest.approx(0.5, abs=1e-12)


def test_streamed_csv_memory_does_not_grow_with_steps():
    class Discard:
        def write(self, text):
            pass

    def peak_bytes(steps):
        spec = StreamSpec(mode="bernoulli", steps=steps, q=0.5, seed=3)
        tracemalloc.start()
        try:
            _write_csv(_dual_track_rows(spec, UNIT), Discard().write)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # ten times the rows, the same peak: nothing is kept per row
    assert peak_bytes(20_000) < peak_bytes(2_000) + 4096


@st.composite
def _rows_repeating_pairs(draw):
    """Rows whose bel and pl objects often repeat the previous row's; the
    pool also holds, for each value, another object equal to it (0.0 and
    -0.0 are equal too, but print differently), and often 1.0, so that
    some rows are saturated at (1, 1)."""
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(), min_size=1, max_size=3))
    pool = values + [float.fromhex(v.hex()) for v in values]
    rows, pair = [], None
    for t in range(draw(st.integers(0, 30))):
        if pair is None or draw(st.booleans()):
            pair = (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        l, u, f = draw(st.floats()), draw(st.floats()), draw(st.none() | st.floats())
        rows.append((t, draw(st.integers(0, t)), *pair, l, u, f))
    return rows


def _csv_line(row) -> str:
    t, t_plus, bel, pl, l, u, f = row
    return "%d,%d,%.12g,%.12g,%.12g,%.12g," % (t, t_plus, bel, pl, l, u) + ("" if f is None else "%.12g" % f) + "\n"


# the 0.0 and 1.0 literals are shared objects, as in a user-built Trajectory:
# a repeated pair without a frequency, then an equal pair of other objects
@example(rows=[(0, 0, 0.0, 1.0, 0.0, 1.0, None), (1, 1, 0.0, 1.0, 0.5, 1.0, None),
               (2, 1, 0.0, 1.0, 0.3, 0.6, 0.5), (3, 1, -0.0, 1.0, 0.3, 0.6, 0.5)])
# saturated rows, also at a pair of ints; a pl one ulp below 1; a saturated
# row without a frequency
@example(rows=[(0, 0, 1.0, 1.0, 0.0, 1.0, 0.25), (1, 1, 1.0, 1.0, 0.5, 1.0, 1.0), (2, 2, 1, 1, 0.6, 0.8, 1.0),
               (3, 2, 1.0, math.nextafter(1.0, 0.0), 0.5, 0.75, 2 / 3), (4, 3, 1.0, 1.0, 0.6, 0.8, None)])
@given(rows=_rows_repeating_pairs())
def test_csv_lines_equal_the_rows_formatted_one_by_one(rows):
    out = io.BytesIO()
    assert _write_csv(rows, out.write) == (rows[-1] if rows else None)
    expected = "t,t_plus,bel,pl,l,u,f\n" + "".join(map(_csv_line, rows))
    assert out.getvalue() == expected.encode()
    assert Trajectory(tuple(map(TrajectoryRow._make, rows))).to_csv() == expected


def test_csv_round_trip_values():
    traj = run_dual_track(StreamSpec(mode="frequency_faithful", steps=7, q=0.7), UNIT)
    lines = traj.to_csv().splitlines()[1:]
    assert len(lines) == len(traj.rows)
    for line, row in zip(lines, traj.rows):
        cells = line.split(",")
        assert int(cells[0]) == row.t
        assert int(cells[1]) == row.t_plus
        assert float(cells[2]) == pytest.approx(row.ds_bel, rel=1e-11)
        assert float(cells[5]) == pytest.approx(row.lu_u, rel=1e-11)


# --- check_limits ---


def test_check_limits_faithful():
    spec = StreamSpec(mode="frequency_faithful", steps=2000, q=0.7)
    traj = run_dual_track(spec, UNIT)
    report = check_limits(traj, spec, UNIT)
    assert report.predicted_limit == 1.0
    assert report.bel_gap_to_prediction < 1e-3
    assert report.lower_gap_to_q < 1e-3
    assert report.freq_gap_to_q < 1e-3
    data = report.to_dict()
    assert data["mode"] == "frequency_faithful"
    assert data["predicted_limit"] == 1.0
    assert data["t"] == 2000
    assert list(data.items()) == [
        ("mode", "frequency_faithful"), ("t", 2000), ("t_plus", 1400), ("bel", 1.0), ("pl", 1.0),
        ("l", 1400 / 2001), ("u", 1401 / 2001), ("f", 0.7), ("predicted_limit", 1.0),
        ("bel_gap_to_prediction", 0.0), ("q", 0.7), ("freq_gap_to_q", 0.0), ("lower_gap_to_q", 0.7 - 1400 / 2001),
    ]


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_check_limits_preserved_chances(q):
    spec = StreamSpec(mode="frequency_faithful", steps=500, q=q)
    report = check_limits(run_dual_track(spec, UNIT), spec, UNIT)
    assert report.predicted_limit == q
    assert report.bel_gap_to_prediction < 1e-3


def test_check_limits_delta_profile():
    spec = StreamSpec(mode="delta_profile", steps=10_000, delta=2)
    report = check_limits(run_dual_track(spec, UNIT), spec, UNIT)
    assert report.analytic_point == delta_limit(2.0)
    assert report.bel_gap_to_analytic < 1e-6
    assert report.predicted_limit is None
    bel = 0.11920292202211755  # 1 / (1 + e^2), the analytic point
    assert list(report.to_dict().items()) == [
        ("mode", "delta_profile"), ("t", 10_000), ("t_plus", 4999), ("bel", bel), ("pl", bel),
        ("l", 4999 / 10_001), ("u", 5000 / 10_001), ("f", 0.4999), ("delta", 2.0), ("analytic_point", bel),
        ("bel_gap_to_analytic", 0.0),
    ]


def test_check_limits_explicit_is_minimal():
    spec = StreamSpec(mode="explicit", outcomes=[True, False, True])
    report = check_limits(run_dual_track(spec, UNIT), spec, UNIT)
    assert report.predicted_limit is None and report.analytic_point is None
    assert set(report.to_dict()) == {"mode", "t", "t_plus", "bel", "pl", "l", "u", "f"}


def test_trajectory_final_property():
    traj = Trajectory(rows=(TrajectoryRow(0, 0, 0.0, 1.0, 0.0, 1.0, None),))
    assert traj.final.t == 0
