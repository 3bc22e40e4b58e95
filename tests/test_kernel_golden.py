"""Golden kernel outputs: every output bit of the library's value kernels.

A seeded grid of inputs (drawn here with random.Random, so the file needs
nothing outside the package) runs through the value constructors, the eight
benchmarked kernels, the public weight/count/interval chains and
positive_proportion.  Each
result is encoded by float.hex of every field and of BeliefInterval's
carried complement and width, a raised error by its class and message, and
each group of calls is pinned by one sha256.  A change that moves one bit
of one output, or turns a repair into an error, fails here.

The combine_interval digest was re-pinned when that rule moved to mass
coordinates and its results began to carry their complement and width;
test_combine_interval_grid_is_near_a_200_bit_reference checks every one of
those outcomes against the rule evaluated by highprec.  The combine_lu
digest was re-pinned when total ignorance (0, 1) became an exact identity
of that rule: each outcome that moved had a (0, 1) operand and now equals
its other operand.  The BeliefInterval, combine_interval and
belief_from_weights digests were re-pinned when every BeliefInterval began
to hold its masses: each outcome that moved was a constructor-built value
whose carried parts went from None to the (1 - pl, pl - bel) it derives.
The counts_from_weights and lu_from_weights digests were re-pinned when a
total weight that overflows became an InfiniteEvidenceError: the one
outcome that moved in each is that of the weights (1e308, 1e308), which
had been the ValidationError of the counts (1e+308, inf).

The grid's random() draws leave 1 - l exact, so they never reach the
counts snap of the frequency maps.  GOLDEN_ALL_POSITIVE pins a second
group, all-positive intervals whose l has every mantissa bit drawn, taken
before those maps shared one counts body and combine_lu clamped its u.
The grid's (-tiny, 1 + tiny) draws all collapse to (0, 1), so
GOLDEN_ONE_END_REPAIRED pins combine_lu and the counts maps on intervals
the constructor repaired at one end only.
"""

import hashlib
import math
import random
from decimal import Decimal
from types import SimpleNamespace

import pytest

import highprec
from test_envelopes import PINS
from evcalc import (
    BeliefInterval,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    InfiniteEvidenceError,
    MassAssignment,
    ValidationError,
    belief_from_weights,
    belpl_from_lu,
    combine_interval,
    combine_lu,
    combine_mass,
    counts_from_interval,
    counts_from_weights,
    interval_from_counts,
    interval_to_mass,
    lu_from_belpl,
    lu_from_weights,
    mass_to_interval,
    positive_proportion,
    weights_from_belief,
    weights_from_counts,
)

SLACK = 1e-12
N = 80  # draws per input family


def _encode(value) -> str:
    if type(value) is float:
        return value.hex()
    if value is None or type(value) is str:
        return repr(value)
    if type(value) is tuple:
        return "(" + ",".join(map(_encode, value)) + ")"
    fields = ",".join(_encode(getattr(value, name)) for name in value._fields)
    return f"{type(value).__name__}({fields};{_encode(getattr(value, '_carried', None))})"


def _outcome(call, *args) -> str:
    try:
        return _encode(call(*args))
    except ValueError as exc:  # every evcalc error is one
        return f"{type(exc).__name__}: {exc}"


def _pairs(rng: random.Random) -> list[tuple]:
    """(bel, pl) or (l, u) pairs: inner, Bayesian points, the ends, pairs
    inside the slack (just outside [0, 1], inverted by less than 1e-12) and
    pairs beyond it."""
    r, tiny = rng.random, lambda: rng.uniform(0.0, 0.9 * SLACK)
    pairs = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (-0.0, 1.0), (0, 1), ("0.25", "0.75")]
    pairs += [(math.nan, 0.5), (0.2, math.inf), (-math.inf, 0.5), (-2e-12, 0.5), (0.5, 1.0 + 2e-12), (0.6, 0.4)]
    for _ in range(N):
        lo, hi = sorted((r(), r()))
        x = r()
        pairs += [(lo, hi), (x, x), (-tiny(), hi), (lo, 1.0 + tiny()), (x + tiny(), x), (-tiny(), 1.0 + tiny())]
        pairs.append((x + 1.1 * SLACK + tiny(), x))
    return pairs


def _weights(rng: random.Random) -> list[tuple]:
    u, tiny = rng.uniform, lambda: rng.uniform(0.0, 0.9 * SLACK)
    weights = [(0.0, 0.0), (-0.0, 0.0), (40.0, 0.0), (38.0, 37.0), (700.0, 0.0), (1e308, 1e308), (3, "2.5")]
    weights += [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0), (-2e-12, 1.0), (1.0, -1.0), (1.8e308, 0.0)]
    for _ in range(N):
        weights += [(u(0, 8), u(0, 8)), (u(0, 40), u(0, 40)), (-tiny(), u(0, 8)), (u(0, 8), -tiny())]
    return weights


def _counts(rng: random.Random) -> list[tuple]:
    u = rng.uniform
    counts = [(0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1e308, 1e308), (6, 10), ("2", "3")]
    counts += [(math.nan, 1.0), (1.0, math.inf), (-1e-300, 1.0), (0.5, -0.5), (2.0, 1.0), (1.0 + 1e-9, 1.0)]
    for _ in range(N):
        wt = u(0, 1000)
        counts += [(u(0, wt), wt), (wt, wt), (wt * (1 + 5e-10), wt), (u(0, 1e6), 1e6), (wt * (1 + 2e-9) + 1, wt)]
    return counts


def _masses(pairs: list[tuple], rng: random.Random) -> list[tuple]:
    masses = [(1.0, 0.0, 0.0), (0.5, 0.5 + 1e-13, -1e-13), (0.2, 0.3, 0.5 + 5e-13)]
    for b, p in pairs:
        b, p = float(b), float(p)
        m = (b, 1.0 - p, p - b)
        masses.append(m)
        masses.append((m[0] + rng.uniform(-SLACK, SLACK) / 2, m[1], m[2]))
    return masses


def _built(ctor, args_list) -> list:
    """The values ctor builds from args_list, leaving out the rejected ones."""
    values = []
    for args in args_list:
        try:
            values.append(ctor(*args))
        except ValueError:
            pass
    return values


def _inputs(seed: int = 20131) -> SimpleNamespace:
    """The grid's inputs, drawn in one fixed order from one seeded RNG."""
    rng = random.Random(seed)
    pairs, weights, counts = _pairs(rng), _weights(rng), _counts(rng)
    masses = _masses(pairs, rng)
    intervals, frequencies = _built(BeliefInterval, pairs), _built(FrequencyInterval, pairs)
    finite, value_counts = _built(EvidenceWeights.finite, weights), _built(EvidenceCounts, counts)
    built = [belief_from_weights(w) for w in finite]  # carrying their complement and width
    infinite = [EvidenceWeights.infinite(d) for d in (-math.inf, -3.5, 0.0, 2.0, math.inf)]
    shuffled = rng.sample(intervals, len(intervals))
    shuffled_masses = rng.sample(masses, len(masses))
    shuffled_freq = rng.sample(frequencies, len(frequencies))
    return SimpleNamespace(
        pairs=pairs, weights=weights, counts=counts, masses=masses, intervals=intervals, frequencies=frequencies,
        finite=finite, value_counts=value_counts, built=built, infinite=infinite,
        shuffled=shuffled, shuffled_masses=shuffled_masses, shuffled_freq=shuffled_freq,
    )


def _grid() -> dict[str, list[str]]:
    v = _inputs()
    grid = {
        "BeliefInterval": [_outcome(BeliefInterval, *p) for p in v.pairs],
        "FrequencyInterval": [_outcome(FrequencyInterval, *p) for p in v.pairs],
        "MassAssignment": [_outcome(MassAssignment, *m) for m in v.masses],
        "EvidenceWeights.finite": [_outcome(EvidenceWeights.finite, *w) for w in v.weights],
        "EvidenceCounts": [_outcome(EvidenceCounts, *c) for c in v.counts],
        # high-conflict, low-conflict and Bayesian point pairs, in one shuffle
        "combine_interval": [_outcome(combine_interval, a, b) for a, b in zip(v.intervals, v.shuffled)],
        "combine_mass": [
            _outcome(lambda a, b: combine_mass(MassAssignment(*a), MassAssignment(*b)), a, b)
            for a, b in zip(v.masses, v.shuffled_masses)
        ],
        "combine_lu": [_outcome(combine_lu, a, b) for a, b in zip(v.frequencies, v.shuffled_freq)],
        "belief_from_weights": [_outcome(belief_from_weights, w) for w in v.finite + v.infinite],
        "weights_from_belief": [_outcome(weights_from_belief, iv) for iv in v.intervals + v.built],
        "lu_from_belpl": [_outcome(lu_from_belpl, iv) for iv in v.intervals + v.built],
        "belpl_from_lu": [_outcome(belpl_from_lu, fi) for fi in v.frequencies],
        "interval_from_counts": [_outcome(interval_from_counts, c) for c in v.value_counts],
        "counts_from_interval": [_outcome(counts_from_interval, fi) for fi in v.frequencies],
        "weights_from_counts": [_outcome(weights_from_counts, c) for c in v.value_counts],
        "counts_from_weights": [_outcome(counts_from_weights, w) for w in v.finite + v.infinite],
        "lu_from_weights": [_outcome(lu_from_weights, w) for w in v.finite + v.infinite],
        "positive_proportion": [_outcome(positive_proportion, iv) for iv in v.intervals + v.built],
    }
    for name, outcomes in grid.items():
        assert len(outcomes) >= 40, name
    return grid


GOLDEN = {
    "BeliefInterval": "64e4b5f7197d47f98c1dfec63e8f170eff5565a9d1e2904fefd118f62d612fd5",
    "FrequencyInterval": "4b1536a2a94634369239d510808bf47eae5b4f22bdef9233b9f3c249bcaad149",
    "MassAssignment": "2c8e6f75a0cc215cdf80ee7841a4dfd2397dcb686d7b4b2bdf375e24aa2812e8",
    "EvidenceWeights.finite": "4ab0576b32e7c8bcf43ec7fe5e711f45d2c0f61bb3e3c2b6ddc3307fc425b09c",
    "EvidenceCounts": "c7ec797cab0fffb12d9e4646288053ee77de17503082536c6ee97afc7828edb3",
    "combine_interval": "7c6341637b4305d93abe73b8ffd6fe5d8a88212b99bdc81a96c62de278bf45c2",
    "combine_mass": "bf2e67a2a8d455cf9ddf6567d9910499f2c30abdce88c5d82743a26684182a89",
    "combine_lu": "de2d374ad55c76d044cbe00b17d257f0b8346cadddf9226111d6cc0c529e34ab",
    "belief_from_weights": "e6a316869a6470ea0d87daa91d6f80864f6287cc0a3c97ca93a99de29b00315e",
    "weights_from_belief": "1bdad9744e29ee58ff9fec96d961fe0a39c207cdeac2a05d93453552e8079a3d",
    "lu_from_belpl": "88cb732cf0de9759acc8b849e72113eb6372bb8ca94f4b2a7e9e6987c7672c94",
    "belpl_from_lu": "73269b51dd22f10c928898d26be601714eb6b6dfa07fbbd788f6d350bdee1969",
    "interval_from_counts": "72f605d81b053ebcf0190545549c43c687279994b48e65285ecd002edb1947f8",
    "counts_from_interval": "dee0c4336e8fac7880267e751056dfac8d7c27fa84638587f2a08d087ec4d0eb",
    "weights_from_counts": "29a372bf8896b4af382edf4871670ad8ab8912b2c53942e842ab32fb3d28899a",
    "counts_from_weights": "336e3689c7572156b1e12c82b74370e3291abdb657c17e9ac503a2f03c54bc07",
    "lu_from_weights": "cdf448d2ef641040f28514fb8a0e37e6496d54b45c0d8240134cecd5518d9bdd",
    "positive_proportion": "77c9322dac1840a0009320362f9463c04e9f18242a6713e5a47d7923325fd7ff",
}


@pytest.fixture(scope="module")
def grid():
    return _grid()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_kernel_outputs_are_pinned(grid, name):
    digest = hashlib.sha256("\n".join(grid[name]).encode()).hexdigest()
    assert digest == GOLDEN[name]


def test_grid_covers_repairs_errors_and_carried_values(grid):
    # the slack, the rejections and the carried parts are all in the grid
    assert any(o.startswith("ValidationError") for o in grid["BeliefInterval"])
    assert any(o.startswith("ValidationError") for o in grid["EvidenceCounts"])
    assert any(o.startswith("InfiniteEvidenceError") for o in grid["belpl_from_lu"])
    assert any(";(" in o for o in grid["belpl_from_lu"])
    assert any(";(" in o for o in grid["belief_from_weights"])
    # Bayesian points and the vacuous interval, beside the proportions of constructor-built and map-built values
    assert any(o.startswith("InfiniteEvidenceError") for o in grid["positive_proportion"])
    assert any(o.startswith("ZeroEvidenceError") for o in grid["positive_proportion"])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: belpl_from_lu(FrequencyInterval.point(0.3)),
            InfiniteEvidenceError,
            "a point carries infinite evidence, finite counts do not exist",
        ),
        (
            lambda: lu_from_weights(EvidenceWeights.finite(1e308, 1e308)),
            InfiniteEvidenceError,
            "total weight 1e+308 + 1e+308 overflows, finite counts do not exist",
        ),
        (
            lambda: BeliefInterval(0.6, 0.6 - 2e-12),
            ValidationError,
            "bel must not exceed pl, got (0.6, 0.599999999998)",
        ),
    ],
)
def test_edge_errors_are_pinned(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_edge_results_are_pinned():
    # a one-ulp interval: its counts (about 4.5e15, 9e15) give weights whose
    # difference rounds to -1, so a Bayesian point at 1/(1 + e^-1) that
    # carries a zero width
    iv = belpl_from_lu(FrequencyInterval(0.5, math.nextafter(0.5, 1.0)))
    assert _encode(iv) == "BeliefInterval(0x1.764d4f5d5a2bdp-1,0x1.764d4f5d5a2bdp-1;(0x1.136561454ba86p-2,0x0.0p+0))"
    # -1e-13 is inside the slack: clamped to 0, then the sum renormalized
    m = MassAssignment(0.5, 0.5 + 1e-13, -1e-13)
    assert _encode(m) == "MassAssignment(0x1.ffffffffffc7cp-2,0x1.00000000001c3p-1,0x0.0p+0;None)"


def _all_positive() -> SimpleNamespace:
    """All-positive intervals (l, 1.0) and (0, 5e-324), whose counts overflow, with a shuffle of them.

    Each l is a uniform real rounded to a float with every mantissa bit drawn: random()'s 2**-53
    grid leaves 1 - l exact, so its intervals never reach the counts snap or a pooled u above 1.
    """
    rng = random.Random(1302)
    frequencies = [FrequencyInterval(rng.getrandbits(100) * 2.0**-100, 1.0) for _ in range(N)]
    frequencies.append(FrequencyInterval(0.0, 5e-324))
    return SimpleNamespace(frequencies=frequencies, shuffled=rng.sample(frequencies, len(frequencies)))


def _chained_belief(fi):
    return belief_from_weights(weights_from_counts(counts_from_interval(fi)))


def _all_positive_grid() -> dict[str, list[str]]:
    v = _all_positive()
    return {
        "counts_from_interval": [_outcome(counts_from_interval, fi) for fi in v.frequencies],
        "belpl_from_lu": [_outcome(belpl_from_lu, fi) for fi in v.frequencies],
        "belief_from_weights(weights_from_counts(counts_from_interval))": [
            _outcome(_chained_belief, fi) for fi in v.frequencies
        ],
        "combine_lu": [_outcome(combine_lu, a, b) for a, b in zip(v.frequencies, v.shuffled)],
    }


GOLDEN_ALL_POSITIVE = {
    "counts_from_interval": "8e9b2df1e875833e3d362c5f53b3e6b4ba3e4eac855c9d161b0de328355183bf",
    "belpl_from_lu": "b02bfda77dd17004549a801e5b47fc86302a16da7818a1dd1f7484f8a0ed6037",
    "belief_from_weights(weights_from_counts(counts_from_interval))": (
        "b02bfda77dd17004549a801e5b47fc86302a16da7818a1dd1f7484f8a0ed6037"
    ),
    "combine_lu": "260414ce7840d1de3ec0e5ee63d66d84774507bca887ce9e88ca9ca897960fc8",
}


@pytest.fixture(scope="module")
def all_positive_grid():
    return _all_positive_grid()


@pytest.mark.parametrize("name", list(GOLDEN_ALL_POSITIVE))
def test_all_positive_outputs_are_pinned(all_positive_grid, name):
    digest = hashlib.sha256("\n".join(all_positive_grid[name]).encode()).hexdigest()
    assert digest == GOLDEN_ALL_POSITIVE[name]


def test_all_positive_group_reaches_the_counts_snap_and_a_pooled_u_above_one():
    # the raw counts (l / width, (1 - width) / width) and pooled u, on floats as the maps compute them
    def raw_counts(fi):
        width = fi.u - fi.l
        return fi.l / width, (1.0 - width) / width

    def raw_pooled_u(a, b):
        i1, i2 = a.u - a.l, b.u - b.l
        return (a.l * i2 + b.l * i1 + i1 * i2) / (i1 + i2 - i1 * i2)

    v = _all_positive()
    assert FrequencyInterval.total_ignorance() not in v.frequencies
    assert sum(wp > wt for wp, wt in map(raw_counts, v.frequencies)) >= 5
    assert sum(raw_pooled_u(a, b) > 1.0 for a, b in zip(v.frequencies, v.shuffled)) >= 5


def test_the_frequency_maps_hand_their_constructors_no_input_to_repair(monkeypatch):
    # the constructors' repairs are for outside input: record every call that returns although
    # its raw arguments lie outside the range the constructor's one-comparison test accepts
    grid, group = _inputs(), _all_positive()  # built, and repaired where outside, before the patch
    repaired = []

    def recording(cls, in_range):
        init = cls.__init__

        def checked(self, a, b):
            init(self, a, b)
            if not in_range(a, b):
                repaired.append((cls.__name__, a, b))

        monkeypatch.setattr(cls, "__init__", checked)

    recording(FrequencyInterval, lambda l, u: 0.0 <= l <= u <= 1.0)
    recording(EvidenceCounts, lambda wp, wt: 0.0 <= wp <= wt < math.inf)
    for fi, other in [*zip(grid.frequencies, grid.shuffled_freq), *zip(group.frequencies, group.shuffled)]:
        _outcome(counts_from_interval, fi)
        _outcome(belpl_from_lu, fi)
        _outcome(combine_lu, fi, other)
    for c in grid.value_counts:
        _outcome(interval_from_counts, c)
    for iv in grid.intervals + grid.built:
        _outcome(lu_from_belpl, iv)
    for w in grid.finite + grid.infinite:
        _outcome(counts_from_weights, w)
        _outcome(lu_from_weights, w)
    assert repaired == [], f"{len(repaired)} repaired, the first {repaired[:3]}"


def test_the_dempster_maps_hand_their_constructors_no_input_to_repair(monkeypatch):
    # the Dempster side of the test above: record every call that returns a value whose fields
    # are not its arguments as given, that is every renormalized mass and every repaired interval
    grid = _inputs()  # built, and repaired where outside, before the patch
    masses, shuffled = _built(MassAssignment, grid.masses), _built(MassAssignment, grid.shuffled_masses)
    repaired = []

    def recording(cls):
        init = cls.__init__

        def checked(self, *args):
            init(self, *args)
            if [getattr(self, name).hex() for name in cls._fields] != [float(arg).hex() for arg in args]:
                repaired.append((cls.__name__, *args))

        monkeypatch.setattr(cls, "__init__", checked)

    recording(MassAssignment)
    recording(BeliefInterval)
    for m, other in zip(masses, shuffled):
        _outcome(combine_mass, m, other)
        _outcome(mass_to_interval, m)
    for iv, other in zip(grid.intervals + grid.built, grid.shuffled + grid.built[::-1]):
        _outcome(interval_to_mass, iv)
        _outcome(combine_interval, iv, other)
    assert repaired == [], f"{len(repaired)} repaired, the first {repaired[:3]}"


def _one_end_repaired() -> SimpleNamespace:
    """Intervals the constructor repaired at one end only, (-t, u) with u < 1 and (l, 1 + t) with l > 0,
    for 0 < t <= SLACK, with a shuffle of them; none is (0, 1).  Each l and u has every mantissa bit drawn.
    """
    rng = random.Random(2013)
    t, end = lambda: SLACK * (1.0 - rng.random()), lambda: rng.getrandbits(100) * 2.0**-100
    frequencies = []
    for _ in range(N):
        frequencies += [FrequencyInterval(-t(), end()), FrequencyInterval(end(), 1.0 + t())]
    return SimpleNamespace(frequencies=frequencies, shuffled=rng.sample(frequencies, len(frequencies)))


def _one_end_repaired_grid() -> dict[str, list[str]]:
    v = _one_end_repaired()
    return {
        "combine_lu": [_outcome(combine_lu, a, b) for a, b in zip(v.frequencies, v.shuffled)],
        "counts_from_interval": [_outcome(counts_from_interval, fi) for fi in v.frequencies],
        "belpl_from_lu": [_outcome(belpl_from_lu, fi) for fi in v.frequencies],
    }


GOLDEN_ONE_END_REPAIRED = {
    "combine_lu": "c36bf6f914d89e2b65cd0b7b996fa86d1374d2345767b26c1f4fdcf454721115",
    "counts_from_interval": "fdaa3b6ae97fca8987de9228fc3f3649bbc94d6cf1d07d5444d0e1a842e18b8b",
    "belpl_from_lu": "31269b70211696e82459243722e9565e35d64bef1a3116400599cf94621f6185",
}


@pytest.mark.parametrize("name", list(GOLDEN_ONE_END_REPAIRED))
def test_one_end_repaired_outputs_are_pinned(name):
    digest = hashlib.sha256("\n".join(_one_end_repaired_grid()[name]).encode()).hexdigest()
    assert digest == GOLDEN_ONE_END_REPAIRED[name]


def test_one_end_repaired_group_holds_no_total_ignorance():
    v = _one_end_repaired()
    assert FrequencyInterval.total_ignorance() not in v.frequencies
    assert all((fi.l == 0.0) != (fi.u == 1.0) for fi in v.frequencies)


def test_combine_interval_grid_is_near_a_200_bit_reference():
    # each pooled value against the rule on its operands' masses at 61
    # digits: every carried part within 2**-51 relative (derived from
    # (bel, pl) by subtraction they erred by up to 2.4e-14), bel and pl
    # within 2 ulps (measured: 2.6e-16 and 1.48 ulps)
    v = _inputs()
    bound, smallest = Decimal(2.0**-51), Decimal(2.0**-1022)
    for a, b in zip(v.intervals, v.shuffled):
        got = combine_interval(a, b)
        bel, m_not_h, width = exact = highprec.dempster(a.masses(), b.masses())
        with highprec.context():
            for part, want in zip(got.masses(), exact):
                assert abs(Decimal(part) - want) <= bound * want + smallest, (a, b, got.masses(), exact)
            pl = bel + width
        assert highprec.ulps(got.bel, bel) <= PINS["combine_interval"], (a, b, got, exact)
        assert highprec.ulps(got.pl, pl) <= PINS["combine_interval"], (a, b, got, exact)
