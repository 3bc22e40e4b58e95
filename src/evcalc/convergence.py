"""Convergence laboratory: both calculi run in lockstep along a stream.

Each outcome carries a unit weight, w0+ for a positive and w0- for a
negative one, and both tracks are read off the accumulated weights.  The
Dempster track is belief_from_weights at (t_plus * w0+, t_minus * w0-):
combining simple supports by Dempster's rule is the same as adding their
weights (Shafer 1976, ch. 5), so each row is that closed form of its two
counts rather than the end of an iterated float fold.  The frequency track
is the lower/upper interval and w+ / w of the same two weights.  Side by
side they show the two calculi's divergent limits: the Dempster track heads
for 0, 0.5 or 1 by the sign of w0+*q - w0-*(1-q), while the frequency track
closes in on q.  The fold keeps only the two counts, taken a block of the
stream at a time.

The fold streams: it yields one row at a time as a plain tuple, and
`evcalc simulate` writes each CSV line as its row arrives, so the run's
memory does not grow with the step count.  The lines are formatted as bytes
and handed to a function that writes bytes, with no text encoding per line.
run_dual_track collects the same rows into a Trajectory.

The random streams come from SplitMix64: a 64-bit counter advanced by the
golden-ratio increment 0x9E3779B97F4A7C15 and finalized by two
xor-shift-multiply rounds (multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB).  The interpreter's generator is deliberately not used:
trajectories must replay bit for bit across platforms and interpreter
versions.  The generator is counter-based: the state before draw j (0-based)
is (seed + (j+1) * 0x9E3779B97F4A7C15) mod 2**64, so no draw depends on the
previous output and a block of draws can be computed at once; the block
generator carries its packed lane states from one block to the next.
"""

from __future__ import annotations

import io
from itertools import accumulate, chain, islice
from math import ceil, floor, log
from operator import gt
from typing import Callable, Iterable, Iterator, NamedTuple

from .binary_frame import SUM_TOLERANCE, _unit_pair
from .errors import ValidationError, _is_whole, _real, _shown, _Value
from .evidence_scale import UnitWeights, _belief_parts, classify_limit, delta_limit, support_from_weight

MODES = ("bernoulli", "frequency_faithful", "delta_profile", "explicit")

CSV_HEADER = "t,t_plus,bel,pl,l,u,f"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# _below packs _LANES draws into one int, draw j in bits [128j, 128j + 128),
# so a 64x64-bit product never leaves its slot; slot j of _COUNTER is (j+1)*gamma,
# and every slot of _STEP advances its lane by one block.
_LANES = 1024
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LANE_MASK = _MASK * _ONES
_COUNTER = _GAMMA * int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(1, _LANES + 1)), "little")
_STEP = ((_LANES * _GAMMA) & _MASK) * _ONES


class SplitMix64:
    """Stateful stream over the SplitMix64 sequence."""

    def __init__(self, seed: int):
        self._state = _check_seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def _check_seed(seed) -> int:
    """int(seed) for a whole seed in [0, 2**64); any other would alias one of those."""
    if not _is_whole(seed) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {_shown(seed)}")
    return int(seed)


def _bernoulli_blocks(seed: int, q: float, n: int) -> Iterator[bytes]:
    """SplitMix64(seed).uniform() < q for n draws, in _LANES-byte blocks of 1 or 0.

    _below computes each block (the last cut to n) in a fixed number of whole-int
    operations.  uniform() is exactly v * 2**-53 for the top 53 bits v of a draw z,
    and q * 2**53 is exact, so uniform() < q iff v < T = ceil(q * 2**53) iff z < T * 2**11.
    Slot j of z is the state before the block's draw j; a slot plus one of _STEP
    stays below 2**65, so no add carries and the mask reduces each lane mod 2**64.
    """
    z = ((int(seed) & _MASK) * _ONES + _COUNTER) & _LANE_MASK
    guards = ((ceil(q * 2.0**53) << 11) - 1 + (1 << 64)) * _ONES
    for start in range(0, n, _LANES):
        yield _below(z, guards)[: n - start]
        z = (z + _STEP) & _LANE_MASK


def _below(z: int, guards: int) -> bytes:
    """Byte j is 1 if the draw finalized from lane state j of z is below T * 2**11, else 0.

    Each slot of guards holds T * 2**11 - 1 + 2**64, so the slot of
    guards - z lies in [0, 2**65) and has bit 64 set iff z < T * 2**11:
    no slot borrows from the next, and byte 8 of the slot is the outcome.
    """
    z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    z = (z ^ (z >> 31)) & _LANE_MASK
    return (guards - z).to_bytes(16 * _LANES, "little")[8::16]


class StreamSpec(_Value):
    """Description of an outcome stream; equal specs replay identically."""

    _fields = ("mode", "steps", "q", "delta", "seed", "outcomes")

    def __init__(
        self,
        mode: str,
        steps: int | None = None,
        q: float | None = None,
        delta: float | None = None,
        seed: int = 0,
        outcomes: tuple[bool, ...] | None = None,
    ):
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {_shown(mode)}")
        if mode == "explicit":
            # None is not Iterable; a str is, but every character of it would be a positive
            if not isinstance(outcomes, Iterable) or isinstance(outcomes, str):
                raise ValidationError(f"explicit mode needs an outcomes sequence, got {_shown(outcomes)}")
            outcomes = tuple(outcomes)
            for o in outcomes:  # bool(o) would make a positive of "0" or of the byte b"0"[0]
                if type(o) not in (bool, int) or o not in (0, 1):
                    raise ValidationError(f"explicit outcomes must be booleans or the ints 0 and 1, got {_shown(o)}")
            outcomes = tuple(map(bool, outcomes))
            # whole first, as in the other modes: == on a signaling NaN Decimal raises
            if steps is not None and not (_is_whole(steps) and int(steps) == len(outcomes)):
                raise ValidationError(f"steps={_shown(steps)} does not match {len(outcomes)} explicit outcomes")
            steps = len(outcomes)
        else:
            if steps is None or not _is_whole(steps) or steps < 0:
                raise ValidationError(f"steps must be a nonnegative integer, got {_shown(steps)}")
            steps = int(steps)
            if mode in ("bernoulli", "frequency_faithful"):
                q = _real(q, "q")
                if not 0.0 <= q <= 1.0:
                    raise ValidationError(f"q must be in [0, 1], got {q!r}")
            else:  # delta_profile
                if delta is None:
                    raise ValidationError("delta_profile mode needs delta")
                d = _real(delta, "delta")
                if not d.is_integer() or d < 0.0:
                    raise ValidationError(
                        f"delta_profile supports only integer delta >= 0 under unit weights, got {_shown(delta)}"
                    )
                delta = d
        seed = _check_seed(seed)  # checked and stored as an int in every mode, used or not
        self.__dict__.update(mode=mode, steps=steps, q=q, delta=delta, seed=seed, outcomes=outcomes)


def generate_stream(spec: StreamSpec) -> list[bool]:
    """Materialize the outcome sequence (True = supports the hypothesis)."""
    return list(map(bool, chain.from_iterable(_outcome_blocks(spec))))


def _outcome_blocks(spec: StreamSpec) -> Iterator[bytes]:
    """spec's outcomes as 1 (positive) or 0 bytes, in blocks of _LANES (the last one shorter)."""
    mode, n, q = spec.mode, spec.steps, spec.q
    if mode == "bernoulli":
        yield from _bernoulli_blocks(spec.seed, q, n)
        return
    for s in range(0, n, _LANES):  # the block of steps s+1 .. e
        e = min(s + _LANES, n)
        if mode == "explicit":
            yield bytes(spec.outcomes[s:e])
        elif mode == "frequency_faithful":  # positive at step t iff floor(q*t) increments: |t+ - q*t| < 1
            f = [floor(q * t) for t in range(s, e + 1)]
            yield bytes(map(gt, f[1:], f))  # gt, not sub: from about 2**29 steps on, floor(q*t) can step by 2
        else:  # delta_profile: delta negatives, then +/- alternation, so at even steps
            d = int(spec.delta)  # there are exactly delta more negatives than positives
            a = min(max(d, s), e)  # the block's first alternating step
            yield bytes(a - s) + (b"\x01\x00" * _LANES)[(a - d) % 2 :][: e - a]


class TrajectoryRow(NamedTuple):
    t: int
    t_plus: int
    ds_bel: float
    ds_pl: float
    lu_l: float
    lu_u: float
    freq: float | None


# one CSV line per row; a row without a frequency stops before its last cell
_ROW_FORMAT = b"%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g\n"
_ROW_FORMAT_NO_FREQ = _ROW_FORMAT[: _ROW_FORMAT.rindex(b"%")] + b"\n"
# _ROW_FORMAT for a Dempster pair saturated at (1, 1), which %.12g prints as 1
_SATURATED_ROW_FORMAT = b"%d,%d,1,1,%.12g,%.12g,%.12g\n"


def _write_csv(rows: Iterable[tuple], write: Callable[[bytes], object]) -> tuple | None:
    """Pass the header and one line per row, as bytes, to write as the rows arrive.

    Rows are (t, t_plus, bel, pl, l, u, f) tuples or TrajectoryRows; an
    undefined f (None) is left empty.  Returns the last row written, or None
    if there was none.
    """
    write(CSV_HEADER.encode() + b"\n")
    row = None
    for row in rows:
        t, t_plus, bel, pl, l, u, f = row
        if bel == pl == 1.0 and f is not None:
            write(_SATURATED_ROW_FORMAT % (t, t_plus, l, u, f))
        else:
            write(_ROW_FORMAT % row if f is not None else _ROW_FORMAT_NO_FREQ % row[:6])
    return row


class Trajectory(_Value):
    """Time-indexed record of both calculi's states along one stream."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[TrajectoryRow, ...]):
        self.__dict__["rows"] = rows

    @property
    def final(self) -> TrajectoryRow:
        return self.rows[-1]

    def to_csv(self) -> str:
        """CSV with header t,t_plus,bel,pl,l,u,f; undefined f is left empty."""
        buf = io.BytesIO()
        _write_csv(self.rows, buf.write)
        return buf.getvalue().decode()


def run_dual_track(
    spec: StreamSpec,
    unit: UnitWeights = UnitWeights(),
    record_every: int = 1,
) -> Trajectory:
    """Fold the stream through both calculi.

    A positive outcome contributes a simple support of weight w0+ on the
    hypothesis, a negative one a simple support of weight w0- against it;
    the frequency track accumulates the same weights as counts.  The start
    row and the final row are always recorded.  Each unit weight must stay
    below 54 ln 2 (about 37.43): from there on its support rounds to 1, and
    iterating Dempster's rule over such supports no longer equals adding
    their weights, which is what each row computes.
    """
    return Trajectory(tuple(map(TrajectoryRow._make, _dual_track_rows(spec, unit, record_every))))


def _dual_track_rows(spec: StreamSpec, unit: UnitWeights, record_every: int = 1) -> Iterator[tuple]:
    """The rows of run_dual_track as (t, t_plus, bel, pl, l, u, f) tuples,
    produced lazily; the arguments are checked before the first row."""
    if not _is_whole(record_every) or record_every < 1:
        raise ValidationError(f"record_every must be a positive integer, got {_shown(record_every)}")
    # a whole float such as 2000.0 would not index bytes.count, and islice takes no stride above
    # sys.maxsize: any stride past the run records only the start and final rows, as steps + 1 does
    record_every = min(int(record_every), spec.steps + 1)
    for name, w in (("w0_plus", unit.w0_plus), ("w0_minus", unit.w0_minus)):
        if support_from_weight(w) == 1.0:  # from 54 ln 2 on, e^-w is at most half an ulp of 1
            raise ValidationError(f"{name} must be below 54 ln 2 (about 37.43), got {w!r}: its support rounds to 1")
    return _fold(spec, unit, record_every)


#: Above this gap wp - wm (the float is a little above 54 ln 2), e^-(wp - wm)
#: and e^-wp are below 2**-54, less than half the float spacing on either
#: side of 1, so in _belief_parts the denominator, bel and bel + width all
#: round to 1: the pair is (1.0, 1.0) exactly.
_SATURATION_GAP = 54 * log(2)


def _fold(spec: StreamSpec, unit: UnitWeights, record_every: int) -> Iterator[tuple]:
    # Each row is (t, t_plus, bel, pl, l, u, f) of the weights wp = t_plus * w0+
    # and wm = t_minus * w0-, one rounding each: (bel, pl) as
    # belief_from_weights gives it, with BeliefInterval's repair on plain
    # floats, and l, u, f as interval_from_counts and w+ / w (w > 0 after
    # row 0; no repair: 0 <= wp <= w, rounding is monotone).  In each block
    # the counts at its rows are read off a running sum, which is lazy:
    # nothing is kept per row.
    w0_plus, w0_minus = unit.w0_plus, unit.w0_minus
    total_steps = spec.steps
    t = t_plus = 0  # the counts at the end of the blocks so far
    yield (0, 0, 0.0, 1.0, 0.0, 1.0, None)
    for block in _outcome_blocks(spec):
        first = t + record_every - t % record_every  # the block's first recorded step, if it has one
        rows = zip(range(first, t + len(block) + 1, record_every),
                   islice(accumulate(block, initial=t_plus), first - t, None, record_every))
        t, t_plus = t + len(block), t_plus + block.count(1)
        if t == total_steps and t % record_every:  # the final row, off the grid
            rows = chain(rows, ((t, t_plus),))
        for n, n_plus in rows:
            wp = n_plus * w0_plus
            wm = (n - n_plus) * w0_minus
            if wp - wm > _SATURATION_GAP:
                bel = pl = 1.0
            else:
                bel, _, width = _belief_parts(wp, wm)
                pl = bel + width
                if not 0.0 <= bel <= pl <= 1.0:
                    bel, pl = _unit_pair(bel, pl, "bel", "pl", SUM_TOLERANCE)
            w = wp + wm  # below n * 37.43 (the unit weights' bound): finite for 4.8e306 steps
            scale = w + 1.0
            yield n, n_plus, bel, pl, wp / scale, (wp + 1.0) / scale, wp / w


class LimitReport(_Value):
    """Final trajectory row checked against the analytic limits."""

    _fields = (
        "mode",
        "final",
        "predicted_limit",
        "bel_gap_to_prediction",
        "q",
        "freq_gap_to_q",
        "lower_gap_to_q",
        "delta",
        "analytic_point",
        "bel_gap_to_analytic",
    )

    def __init__(
        self,
        mode: str,
        final: TrajectoryRow,
        predicted_limit: float | None = None,
        bel_gap_to_prediction: float | None = None,
        q: float | None = None,
        freq_gap_to_q: float | None = None,
        lower_gap_to_q: float | None = None,
        delta: float | None = None,
        analytic_point: float | None = None,
        bel_gap_to_analytic: float | None = None,
    ):
        self.__dict__.update(
            mode=mode,
            final=final,
            predicted_limit=predicted_limit,
            bel_gap_to_prediction=bel_gap_to_prediction,
            q=q,
            freq_gap_to_q=freq_gap_to_q,
            lower_gap_to_q=lower_gap_to_q,
            delta=delta,
            analytic_point=analytic_point,
            bel_gap_to_analytic=bel_gap_to_analytic,
        )

    def to_dict(self) -> dict:
        out = super().to_dict()
        final = dict(zip(CSV_HEADER.split(","), out.pop("final")))
        return {"mode": out.pop("mode"), **final, **out}


def check_limits(
    traj: Trajectory,
    spec: StreamSpec,
    unit: UnitWeights = UnitWeights(),
) -> LimitReport:
    """Compare the final row against the limits both calculi predict."""
    final = traj.final
    if spec.mode in ("bernoulli", "frequency_faithful"):
        predicted = classify_limit(spec.q, unit)
        return LimitReport(
            mode=spec.mode,
            final=final,
            predicted_limit=predicted,
            bel_gap_to_prediction=abs(final.ds_bel - predicted),
            q=spec.q,
            freq_gap_to_q=None if final.freq is None else abs(final.freq - spec.q),
            lower_gap_to_q=abs(final.lu_l - spec.q),
        )
    if spec.mode == "delta_profile":
        analytic = delta_limit(spec.delta)
        return LimitReport(
            mode=spec.mode,
            final=final,
            delta=spec.delta,
            analytic_point=analytic,
            bel_gap_to_analytic=abs(final.ds_bel - analytic),
        )
    return LimitReport(mode=spec.mode, final=final)
