"""Convergence laboratory: both calculi run in lockstep along a stream.

Each outcome is folded two ways from the same unit weights: a Dempster
track that combines one simple support per outcome into a running (bel, pl)
state, and a lower/upper frequency track over the accumulated weights.
Side by side they show the two calculi's divergent limits: the Dempster
track heads for 0, 0.5 or 1 by the sign of w0+*q - w0-*(1-q), mostly
reaching an exact Bayesian point that absorbs all later outcomes, while the
frequency track closes in on q.  From there the fold walks a block of the
stream only from its first recorded row to its last and counts the outcomes on
either side; each weight sum takes the closed form k * w0 only where that is
provably the sum of k additions, and makes the additions otherwise: the same
CSV bytes.

The fold streams: it yields one row at a time as a plain tuple, and
`evcalc simulate` writes each CSV line as its row arrives, so the run's
memory does not grow with the step count.  The lines are formatted as bytes
and written to a binary stream, with no text encoding per line; the rows of
the absorbed phase share one (bel, pl) pair, whose two cells are formatted
once.  run_dual_track collects the same rows into a Trajectory.
"""

from __future__ import annotations

import io
from functools import reduce
from itertools import chain, islice, repeat
from math import floor
from operator import add, gt
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .binary_frame import SUM_TOLERANCE, BeliefInterval, _unit_pair
from .dempster import _combine_pairs, combine_interval
from .errors import TotalConflictError, ValidationError, _is_whole, _real, _Value
from .evidence_scale import UnitWeights, classify_limit, delta_limit, support_from_weight
from .rng import _LANES, _bernoulli_blocks, _check_seed

MODES = ("bernoulli", "frequency_faithful", "delta_profile", "explicit")

CSV_HEADER = "t,t_plus,bel,pl,l,u,f"


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
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "explicit":
            # None is not Iterable; a str is, but every character of it would be a positive
            if not isinstance(outcomes, Iterable) or isinstance(outcomes, str):
                raise ValidationError(f"explicit mode needs an outcomes sequence, got {outcomes!r}")
            outcomes = tuple(bool(o) for o in outcomes)
            if steps is not None and steps != len(outcomes):
                raise ValidationError(f"steps={steps} does not match {len(outcomes)} explicit outcomes")
            steps = len(outcomes)
        else:
            if steps is None or not _is_whole(steps) or steps < 0:
                raise ValidationError(f"steps must be a nonnegative integer, got {steps!r}")
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
                        f"delta_profile supports only integer delta >= 0 under unit weights, got {delta!r}"
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
# % (bel, pl) gives _ROW_FORMAT with the bel and pl cells filled in
_CELL_FORMAT = b"%%d,%%d,%.12g,%.12g,%%.12g,%%.12g,%%.12g\n"


def _write_csv(rows: Iterable[tuple], out: BinaryIO) -> tuple | None:
    """Write the header and one line per row to the binary stream out as the rows arrive.

    Rows are (t, t_plus, bel, pl, l, u, f) tuples or TrajectoryRows; an
    undefined f (None) is left empty.  From its absorbed phase on, the fold
    gives every row the same two float objects for bel and pl, so a row whose
    bel and pl are the previous row's objects is written through a format
    with their cells already filled in, built at the first such row.  Returns
    the last row written, or None if there was none.
    """
    write = out.write
    write(CSV_HEADER.encode() + b"\n")
    row = bel = pl = cell = None
    for row in rows:
        t, t_plus, b, p, l, u, f = row
        if b is bel and p is pl and f is not None:
            if cell is None:
                cell = _CELL_FORMAT % (b, p)
            write(cell % (t, t_plus, l, u, f))
        else:
            write(_ROW_FORMAT % row if f is not None else _ROW_FORMAT_NO_FREQ % row[:6])
            bel, pl, cell = b, p, None
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
        _write_csv(self.rows, buf)
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
    below 54 ln 2 (about 37.43), where its support would round to 1.
    """
    return Trajectory(tuple(map(TrajectoryRow._make, _dual_track_rows(spec, unit, record_every))))


def _dual_track_rows(spec: StreamSpec, unit: UnitWeights, record_every: int = 1) -> Iterator[tuple]:
    """The rows of run_dual_track as (t, t_plus, bel, pl, l, u, f) tuples,
    produced lazily; the arguments are checked before the first row."""
    if not _is_whole(record_every) or record_every < 1:
        raise ValidationError(f"record_every must be a positive integer, got {record_every!r}")
    record_every = int(record_every)  # a whole float such as 2000.0 would not index bytes.count
    for name, w in (("w0_plus", unit.w0_plus), ("w0_minus", unit.w0_minus)):
        if support_from_weight(w) == 1.0:  # from 54 ln 2 on, e^-w is at most half an ulp of 1
            raise ValidationError(f"{name} must be below 54 ln 2 (about 37.43), got {w!r}: its support rounds to 1")
    return _fold(spec, unit, record_every)


def _fold(spec: StreamSpec, unit: UnitWeights, record_every: int) -> Iterator[tuple]:
    # Each step is combine_interval against a fixed support plus the repair
    # BeliefInterval applies, on plain floats; _unit_pair is called only for
    # a pair outside 0 <= bel <= pl <= 1 (a call costs a third of a step).
    # A row is interval_from_counts of the accumulated weights (no repair:
    # 0 <= w_plus <= w, rounding is monotone) and w_plus / w, with w > 0
    # after row 0.  The Dempster state (never -0.0 or nan, so == is bit
    # equality) mostly reaches a point both supports fix, like (1, 1): a step
    # that leaves it as it was probes the other support (a failed probe at t
    # defers to 2t), and if that does too, the second loop only counts: in each
    # block the outcomes before its first row and after its last (a block
    # without a row whole), walking only those between.  w_plus only adds w0+,
    # so its sum depends on the count alone, and _repeated_sum gives it exactly.
    pos = BeliefInterval(support_from_weight(unit.w0_plus), 1.0)
    neg = BeliefInterval(0.0, 1.0 - support_from_weight(unit.w0_minus))
    pos_bel, pos_pl, neg_bel, neg_pl = pos.bel, pos.pl, neg.bel, neg.pl
    w0_plus, w0_minus = unit.w0_plus, unit.w0_minus
    total_steps = spec.steps
    bel, pl = 0.0, 1.0
    w_plus = w_minus = 0.0
    t = t_plus = probe_at = 0
    blocks = _outcome_blocks(spec)
    outcomes = chain.from_iterable(blocks)
    yield (0, 0, 0.0, 1.0, 0.0, 1.0, None)
    for positive in outcomes:
        t += 1
        if positive:
            b, p = _combine_pairs(bel, pl, pos_bel, pos_pl)
            w_plus += w0_plus
            t_plus += 1
        else:
            b, p = _combine_pairs(bel, pl, neg_bel, neg_pl)
            w_minus += w0_minus
        if not 0.0 <= b <= p <= 1.0:
            b, p = _unit_pair(b, p, "bel", "pl", SUM_TOLERANCE)
        if t % record_every == 0 or t == total_steps:
            w = w_plus + w_minus  # below t * 37.43 (the unit weights' bound): finite for 4.8e306 steps
            scale = w + 1.0
            yield t, t_plus, b, p, w_plus / scale, (w_plus + 1.0) / scale, w_plus / w
        if b == bel and p == pl and t >= probe_at:
            probe_at = 2 * t
            try:  # a step that would raise here raises when its outcome arrives
                if combine_interval(BeliefInterval(b, p), neg if positive else pos) == BeliefInterval(b, p):
                    break
            except (TotalConflictError, ValidationError):
                pass
        bel, pl = b, p
    done_plus, done_minus = t_plus, t - t_plus  # the counts w_plus and w_minus sum
    for block in chain((bytes(islice(outcomes, -t % _LANES)),), blocks):  # this block's rest first
        end = t + len(block)
        last = end if end == total_steps else end - end % record_every  # its last row, if after t
        if last <= t:  # it has none
            t, t_plus = end, t_plus + block.count(1)
            continue
        # count up to the first row, walk to the last, then count the rest
        first, stop = min(record_every - 1 - t % record_every, last - t - 1), last - t
        t, t_plus = t + first, t_plus + block.count(1, 0, first)
        w_plus = _repeated_sum(w0_plus, t_plus, done_plus, w_plus)
        w_minus = _repeated_sum(w0_minus, t - t_plus, done_minus, w_minus)
        for positive in block[first:stop]:
            t += 1
            if positive:
                w_plus += w0_plus
                t_plus += 1
            else:
                w_minus += w0_minus
            if t % record_every == 0 or t == total_steps:
                w = w_plus + w_minus
                scale = w + 1.0
                yield t, t_plus, bel, pl, w_plus / scale, (w_plus + 1.0) / scale, w_plus / w
        done_plus, done_minus = t_plus, t - t_plus
        t, t_plus = end, t_plus + block.count(1, stop)


def _repeated_sum(w0: float, count: int, done: int, w: float) -> float:
    """count copies of w0 added one at a time from 0.0, given w, the sum of the first done.

    While count * num <= 2**53 for the numerator num of w0.as_integer_ratio(),
    every partial sum is an integer of at most 2**53 times w0's power-of-two
    denominator, so no addition rounds and count * w0 is that sum bit for bit;
    past that bound, reduce makes the remaining additions in order."""
    return count * w0 if count * w0.as_integer_ratio()[0] <= 2**53 else reduce(add, repeat(w0, count - done), w)


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
        final = self.final
        out = {
            "mode": self.mode,
            "t": final.t,
            "t_plus": final.t_plus,
            "bel": final.ds_bel,
            "pl": final.ds_pl,
            "l": final.lu_l,
            "u": final.lu_u,
            "f": final.freq,
        }
        for key in self._fields[2:]:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


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
