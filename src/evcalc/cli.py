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

import contextlib
import os
import sys
from functools import reduce
from types import SimpleNamespace

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


def _load_json(text: str):
    import json

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


# each command: its handler, its help, its options as (flag, dest, type, choices, default, required, help)
# and its positional as (dest, nargs, help) or None
_COMMANDS = {
    "combine": (_cmd_combine, "fold serialized values with one of the two rules",
                [("--rule", "rule", str, RULES, None, True, None)],
                ("values", "*", "JSON values; a JSON array on stdin if omitted")),
    "convert": (_cmd_convert, "translate a value between representations",
                [("--from", "source", str, FORMATS, None, True, None),
                 ("--to", "target", str, FORMATS, None, True, None)],
                ("value", "?", "JSON value; read from stdin if omitted")),
    "simulate": (_cmd_simulate, "run a stream through both calculi, emit CSV",
                 [("--q", "q", float, None, None, True, "chance of a positive outcome"),
                  ("--steps", "steps", int, None, None, True, None),
                  ("--seed", "seed", int, None, 0, False, None),
                  ("--w0-pos", "w0_pos", float, None, 1.0, False, None),
                  ("--w0-neg", "w0_neg", float, None, 1.0, False, None),
                  ("--mode", "mode", str, ("bernoulli", "faithful"), "faithful", False, None),
                  ("--record-every", "record_every", int, None, 1, False, None),
                  ("--out", "out", str, None, None, False, "CSV file path; stdout if omitted")],
                 None),
    "defect-demo": (_cmd_defect_demo, "Dempster track versus frequency track at chance q",
                    [("--q", "q", float, None, 0.7, False, None),
                     ("--steps", "steps", int, None, 2000, False, None),
                     ("--w0-pos", "w0_pos", float, None, 1.0, False, None),
                     ("--w0-neg", "w0_neg", float, None, 1.0, False, None)],
                    None),
    "delta-demo": (_cmd_delta_demo, "fold against the analytic point 1/(1+e^delta)",
                   [("--delta", "delta", float, None, None, True, None),
                    ("--steps", "steps", int, None, 10_000, False, None)],
                   None),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The parsed command line when argv has the one canonical shape, else None.

    The shape: a command, then each of its options at most once as `--flag value`, then its
    positionals; no value or positional starts with "-", and every value converts and lies in its
    choices.  The result holds what argparse gives for it.  Anything else (help, an abbreviation,
    `--flag=value`, a usage error) is left to _build_parser()'s argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options, positional = _COMMANDS[argv[0]]
    args = {"command": argv[0], "func": func}
    flags = {option[0]: option for option in options}  # those not yet given
    i = 1
    while i < len(argv) and argv[i] in flags:
        _, dest, convert, choices, _, _, _ = flags.pop(argv[i])
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            args[dest] = convert(argv[i + 1])
        except ValueError:
            return None
        if choices is not None and args[dest] not in choices:
            return None
        i += 2
    rest = argv[i:]
    if any(token.startswith("-") for token in rest):
        return None
    for _, dest, _, _, default, required, _ in flags.values():
        if required:
            return None
        args[dest] = default
    if positional is None:
        if rest:
            return None
    elif positional[1] == "*":
        args[positional[0]] = rest
    elif len(rest) > 1:
        return None
    else:
        args[positional[0]] = rest[0] if rest else None
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser of _COMMANDS, for help, usage errors and the spellings _read_argv declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # usage problems exit 1, not argparse's default 2
            raise _UsageError(message)

    parser = _Parser(prog="evcalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, options, positional) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, dest, convert, choices, default, required, text in options:
            p.add_argument(flag, dest=dest, type=convert, choices=choices, default=default, required=required,
                           help=text)
        if positional is not None:
            dest, nargs, text = positional
            p.add_argument(dest, nargs=nargs, help=text)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
        code, result = args.func(args)
        if result is not None:
            import json

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
