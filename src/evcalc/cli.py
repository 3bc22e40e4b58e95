"""Command-line surface.

Subcommands:
  combine      fold two or more serialized values under Dempster's rule or
               the lower/upper frequency rule
  convert      translate a value between belpl, weights, lu and counts form
  simulate     run an outcome stream through both calculi, emitting CSV
  defect-demo  show iterated Dempster combination leaving the outcome rate
               while the frequency interval tracks it
  delta-demo   show the fold landing on the analytic point 1/(1 + e^delta)

combine and convert read JSON from arguments or stdin and write JSON to
stdout; simulate streams CSV to stdout or --out row by row, so the rows
written before a mid-run error stay written, and prints its summary to
stderr.  A reader that closes stdout early (`| head`) ends the run quietly.
Exit codes: 0 success (also when the stdout reader stops early), 1 usage,
malformed input, a unit weight of 54 ln 2 (about 37.43) or more, or an
output that cannot be written (--out or stdout, such as a full disk),
2 mathematical error, 3 conflict of conventions (a report, not a failure).
Each command imports, and so compiles, only the library modules it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import reduce

from .errors import (
    InfiniteEvidenceError,
    TotalConflictError,
    ValidationError,
    ZeroEvidenceError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_CONFLICT = 3

# the wire formats and combination rules; each command imports the library
# modules it runs when it runs
FORMATS = ("belpl", "weights", "lu", "counts")
RULES = ("dempster", "lu")


class _UsageError(Exception):
    pass


@contextlib.contextmanager
def _output(path: str | None = None):
    """Yield a function that writes bytes to the file path, or else to stdout
    (decoded onto a text-only one, such as an io.StringIO, which has no
    .buffer); the only code that touches stdout.  A failed write or flush is
    a one-line usage error, except that a stdout reader that went away
    (`| head`) passes on as BrokenPipeError, with stdout pointed at devnull
    so that the interpreter's final flush stays quiet."""
    if path is not None:
        try:
            with open(path, "wb") as fh:
                yield fh.write
        except OSError as exc:
            raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return
    stdout = sys.stdout
    if stdout is None:  # started with stdout closed
        raise _UsageError("cannot write stdout: it is closed")
    try:
        stdout.flush()  # the bytes go after any text already written
        buffer = getattr(stdout, "buffer", None)
        yield buffer.write if buffer else lambda data: stdout.write(data.decode())
        stdout.flush()  # a reader that went away shows up here, not at exit
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise _UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise _UsageError(message)


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or too deep
        raise _UsageError(f"malformed JSON: {exc}") from exc


def _say(line: str) -> None:
    """Print line to stderr; a closed or unwritable stderr drops it and
    leaves stdout and the exit code as they are."""
    if sys.stderr is not None:  # None when started with stderr closed
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def _read_stdin() -> str:
    if sys.stdin is None:  # started with stdin closed
        raise _UsageError("cannot read stdin: it is closed")
    return sys.stdin.read()


def _read_values(args) -> list:
    if args.values:
        return [_load_json(v) for v in args.values]
    data = _load_json(_read_stdin())
    if not isinstance(data, list):
        raise _UsageError("stdin must hold a JSON array of values")
    return data


# each command returns its exit code and the JSON object for stdout, or None
# when it wrote its output itself
def _cmd_combine(args) -> tuple[int, dict]:
    values = _read_values(args)
    if len(values) < 2:
        raise _UsageError("combine needs at least two values")
    if args.rule == "dempster":  # Dempster's rule reports no conflict: it combines or raises
        from .binary_frame import BeliefInterval, combine_interval

        return EXIT_OK, reduce(combine_interval, map(BeliefInterval.from_dict, values)).to_dict()
    from .lower_upper import ConflictReport, FrequencyInterval, pool_lu

    acc = FrequencyInterval.from_dict(values[0])
    for raw in values[1:]:
        acc = pool_lu(acc, FrequencyInterval.from_dict(raw))
        if isinstance(acc, ConflictReport):
            return EXIT_CONFLICT, acc.to_dict()
    return EXIT_OK, acc.to_dict()


def _cmd_convert(args) -> tuple[int, dict]:
    from .binary_frame import BeliefInterval
    from .evidence_scale import EvidenceWeights, belief_from_weights, weights_from_belief
    from .lower_upper import (
        EvidenceCounts,
        FrequencyInterval,
        counts_from_interval,
        counts_from_weights,
        lu_from_weights,
        weights_from_counts,
    )

    # format -> (parse, to weights, from weights); every conversion goes through the weights
    formats = {
        "belpl": (BeliefInterval.from_dict, weights_from_belief, belief_from_weights),
        "weights": (EvidenceWeights.from_dict, lambda w: w, lambda w: w),
        "lu": (FrequencyInterval.from_dict, lambda fi: weights_from_counts(counts_from_interval(fi)), lu_from_weights),
        "counts": (EvidenceCounts.from_dict, weights_from_counts, counts_from_weights),
    }
    raw = args.value if args.value is not None else _read_stdin()
    parse, to_weights, _ = formats[args.source]
    value = parse(_load_json(raw))
    if args.source != args.target:
        value = formats[args.target][2](to_weights(value))
    return EXIT_OK, value.to_dict()


def _cmd_simulate(args) -> tuple[int, None]:
    from .convergence import StreamSpec, _dual_track_rows, _write_csv
    from .evidence_scale import UnitWeights, classify_limit

    unit = UnitWeights(args.w0_pos, args.w0_neg)
    mode = "frequency_faithful" if args.mode == "faithful" else "bernoulli"
    spec = StreamSpec(mode=mode, steps=args.steps, q=args.q, seed=args.seed)
    rows = _dual_track_rows(spec, unit, args.record_every)
    with _output(args.out) as write:  # the summary below is only for a CSV that was written
        t, t_plus, bel, pl, l, u, f = _write_csv(rows, write)
    f = "" if f is None else f"{f:.12g}"
    _say(f"final row: t={t} t_plus={t_plus} bel={bel:.12g} pl={pl:.12g} l={l:.12g} u={u:.12g} f={f}")
    _say(f"predicted dempster limit: {classify_limit(args.q, unit):.12g}")
    return EXIT_OK, None


def _cmd_defect_demo(args) -> tuple[int, dict]:
    from .convergence import StreamSpec, check_limits, run_dual_track
    from .evidence_scale import UnitWeights

    unit = UnitWeights(args.w0_pos, args.w0_neg)
    spec = StreamSpec(mode="frequency_faithful", steps=args.steps, q=args.q)
    report = check_limits(run_dual_track(spec, unit, max(spec.steps, 1)), spec, unit)
    final = report.final
    return EXIT_OK, {
        "q": args.q,
        "steps": args.steps,
        "predicted_dempster_limit": report.predicted_limit,
        "final_bel": final.ds_bel,
        "final_pl": final.ds_pl,
        "final_l": final.lu_l,
        "final_u": final.lu_u,
        "final_f": final.freq,
        "dempster_gap_to_q": abs(final.ds_bel - args.q),
        "lower_frequency_gap_to_q": report.lower_gap_to_q,
    }


def _cmd_delta_demo(args) -> tuple[int, dict]:
    from .convergence import StreamSpec, check_limits, run_dual_track

    spec = StreamSpec(mode="delta_profile", steps=args.steps, delta=args.delta)  # checks delta
    if args.steps < spec.delta:
        raise _UsageError("steps must be at least delta")
    report = check_limits(run_dual_track(spec, record_every=max(spec.steps, 1)), spec)
    return EXIT_OK, {
        "delta": int(spec.delta),
        "steps": args.steps,
        "final_bel": report.final.ds_bel,
        "analytic_limit": report.analytic_point,
        "abs_difference": report.bel_gap_to_analytic,
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="evcalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("combine", help="fold serialized values with one of the two rules")
    p.add_argument("--rule", required=True, choices=RULES)
    p.add_argument("values", nargs="*", help="JSON values; a JSON array on stdin if omitted")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("convert", help="translate a value between representations")
    p.add_argument("--from", dest="source", required=True, choices=FORMATS)
    p.add_argument("--to", dest="target", required=True, choices=FORMATS)
    p.add_argument("value", nargs="?", help="JSON value; read from stdin if omitted")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("simulate", help="run a stream through both calculi, emit CSV")
    p.add_argument("--q", type=float, required=True, help="chance of a positive outcome")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--w0-pos", type=float, default=1.0, dest="w0_pos")
    p.add_argument("--w0-neg", type=float, default=1.0, dest="w0_neg")
    p.add_argument("--mode", choices=("bernoulli", "faithful"), default="faithful")
    p.add_argument("--record-every", type=int, default=1, dest="record_every")
    p.add_argument("--out", help="CSV file path; stdout if omitted")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("defect-demo", help="Dempster track versus frequency track at chance q")
    p.add_argument("--q", type=float, default=0.7)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--w0-pos", type=float, default=1.0, dest="w0_pos")
    p.add_argument("--w0-neg", type=float, default=1.0, dest="w0_neg")
    p.set_defaults(func=_cmd_defect_demo)

    p = sub.add_parser("delta-demo", help="fold against the analytic point 1/(1+e^delta)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--steps", type=int, default=10_000)
    p.set_defaults(func=_cmd_delta_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, result = args.func(args)
        if result is not None:
            with _output() as write:
                write(json.dumps(result).encode() + b"\n")
        return code
    except BrokenPipeError:  # the reader of stdout stopped early
        return EXIT_OK
    except (_UsageError, ValidationError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except (TotalConflictError, InfiniteEvidenceError, ZeroEvidenceError) as exc:
        _say(f"error: {exc}")
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
