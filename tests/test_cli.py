"""CLI behaviour: subcommands, wire formats, exit codes."""

import argparse
import errno
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import src_env
from evcalc import StreamSpec, run_dual_track
from evcalc.cli import _COMMANDS, _build_parser, _read_argv, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- combine ---


def test_combine_dempster_bernoulli_example(capsys):
    code, out, _ = run_cli(capsys, "combine", "--rule", "dempster", '{"bel":0.5,"pl":1}', '{"bel":0.5,"pl":1}')
    assert code == 0
    assert json.loads(out) == {"bel": 0.75, "pl": 1.0}


def test_combine_dempster_left_fold_of_three(capsys):
    code, out, _ = run_cli(
        capsys, "combine", "--rule", "dempster",
        '{"bel":0,"pl":1}', '{"bel":0.5,"pl":1}', '{"bel":0,"pl":0.5}',
    )
    assert code == 0
    got = json.loads(out)
    assert got["bel"] == pytest.approx(1 / 3, abs=1e-12)
    assert got["pl"] == pytest.approx(2 / 3, abs=1e-12)


def test_combine_lu_identity(capsys):
    code, out, _ = run_cli(
        capsys, "combine", "--rule", "lu",
        '{"kind":"interval","l":0,"u":1}', '{"kind":"interval","l":0.3,"u":0.5}',
    )
    assert code == 0
    assert json.loads(out) == {"kind": "interval", "l": 0.3, "u": 0.5}


def test_combine_lu_point_conflict_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "combine", "--rule", "lu",
        '{"kind":"point","value":0.51}', '{"kind":"point","value":0.99}',
    )
    assert code == 3
    assert json.loads(out) == {"conflict": [0.51, 0.99]}


def test_combine_lu_point_absorbs_interval(capsys):
    code, out, _ = run_cli(
        capsys, "combine", "--rule", "lu",
        '{"kind":"point","value":0.51}', '{"kind":"interval","l":0.2,"u":0.9}',
    )
    assert code == 0
    assert json.loads(out) == {"kind": "point", "value": 0.51}


def test_combine_total_conflict_is_math_error(capsys):
    code, _, err = run_cli(capsys, "combine", "--rule", "dempster", '{"bel":1,"pl":1}', '{"bel":0,"pl":0}')
    assert code == 2
    assert "total conflict" in err


def test_combine_malformed_input(capsys, monkeypatch):
    # valid, but nested past the parser's recursion limit (3.13's json parses 5000 levels)
    too_deep = "[" * 100_000 + "]" * 100_000
    for bad in ("not json", too_deep):
        code, _, err = run_cli(capsys, "combine", "--rule", "dempster", bad, '{"bel":0,"pl":1}')
        assert code == 1
        assert err.startswith("error: malformed JSON") and err.count("\n") == 1
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    code, _, err = run_cli(capsys, "combine", "--rule", "dempster")
    assert code == 1
    assert err.startswith("error: malformed JSON") and err.count("\n") == 1


def test_combine_needs_two_values(capsys):
    code, _, err = run_cli(capsys, "combine", "--rule", "dempster", '{"bel":0,"pl":1}')
    assert code == 1


def test_combine_invalid_interval_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "combine", "--rule", "dempster", '{"bel":0.9,"pl":0.1}', '{"bel":0,"pl":1}')
    assert code == 1


def test_combine_reads_stdin_array(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('[{"bel":0.5,"pl":1},{"bel":0.5,"pl":1}]'))
    code, out, _ = run_cli(capsys, "combine", "--rule", "dempster")
    assert code == 0
    assert json.loads(out) == {"bel": 0.75, "pl": 1.0}


def test_combine_stdin_must_be_array(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"bel":0.5,"pl":1}'))
    code, _, err = run_cli(capsys, "combine", "--rule", "dempster")
    assert code == 1


# --- convert ---


def test_convert_vacuous_belpl_to_weights(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "belpl", "--to", "weights", '{"bel":0,"pl":1}')
    assert code == 0
    assert json.loads(out) == {"kind": "finite", "w_plus": 0.0, "w_minus": 0.0}


def test_convert_counts_to_lu_example(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "counts", "--to", "lu", '{"w_plus":600,"w_total":1000}')
    assert code == 0
    got = json.loads(out)
    assert got["kind"] == "interval"
    assert got["l"] == pytest.approx(600 / 1001, abs=1e-14)
    assert got["u"] == pytest.approx(601 / 1001, abs=1e-14)


def test_convert_bayesian_belpl_to_weights(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "belpl", "--to", "weights", '{"bel":0.5,"pl":0.5}')
    assert code == 0
    assert json.loads(out) == {"kind": "infinite", "delta": 0.0}


def test_convert_point_lu_to_weights_is_undefined(capsys):
    code, _, err = run_cli(capsys, "convert", "--from", "lu", "--to", "weights", '{"kind":"point","value":0.5}')
    assert code == 2
    assert "infinite" in err


def test_convert_infinite_weights_to_counts_is_undefined(capsys):
    code, _, _ = run_cli(capsys, "convert", "--from", "weights", "--to", "counts", '{"kind":"infinite","delta":0}')
    assert code == 2


def test_convert_bayesian_belpl_to_lu_gives_point(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "belpl", "--to", "lu", '{"bel":0.5,"pl":0.5}')
    assert code == 0
    assert json.loads(out) == {"kind": "point", "value": 0.5}


def test_convert_point_identity_is_fine(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "lu", "--to", "lu", '{"kind":"point","value":0.5}')
    assert code == 0
    assert json.loads(out) == {"kind": "point", "value": 0.5}


def test_convert_round_trip_belpl_lu(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "belpl", "--to", "lu", '{"bel":0.5,"pl":1.0}')
    assert code == 0
    lu = json.loads(out)
    assert lu["l"] == pytest.approx(math.log(2) / (math.log(2) + 1), abs=1e-12)
    code, out, _ = run_cli(capsys, "convert", "--from", "lu", "--to", "belpl", json.dumps(lu))
    assert code == 0
    back = json.loads(out)
    assert back["bel"] == pytest.approx(0.5, abs=1e-9)
    assert back["pl"] == pytest.approx(1.0, abs=1e-9)


def test_convert_round_trip_weights_lu(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "weights", "--to", "lu",
                           '{"kind":"finite","w_plus":2.5,"w_minus":1.5}')
    assert code == 0
    code, out, _ = run_cli(capsys, "convert", "--from", "lu", "--to", "weights", out.strip())
    assert code == 0
    back = json.loads(out)
    assert back["w_plus"] == pytest.approx(2.5, rel=1e-9)
    assert back["w_minus"] == pytest.approx(1.5, rel=1e-9)


def test_convert_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"w_plus":6,"w_total":10}'))
    code, out, _ = run_cli(capsys, "convert", "--from", "counts", "--to", "weights")
    assert code == 0
    assert json.loads(out) == {"kind": "finite", "w_plus": 6.0, "w_minus": 4.0}


def test_convert_malformed_value(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "convert", "--from", "belpl", "--to", "lu", '{"bel":0.5}')
    assert code == 1
    code, _, err = run_cli(capsys, "convert", "--from", "belpl", "--to", "lu", "[" * 100_000 + "]" * 100_000)
    assert code == 1
    assert err.startswith("error: malformed JSON") and err.count("\n") == 1
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    code, _, err = run_cli(capsys, "convert", "--from", "belpl", "--to", "lu")
    assert code == 1
    assert err.startswith("error: malformed JSON") and err.count("\n") == 1


# integers of 309 to 4300 digits overflow float(); from 4301 digits on json.loads
# rejects them, unless PYTHONINTMAXSTRDIGITS=0 lifts that limit
BIG_INTS = {"400_digits": "1" + "0" * 399, "5000_digits": "1" + "0" * 4999}
# each command, a value with the integer at %s, and the other value of a combine
BIG_VALUES = {
    "counts": (("convert", "--from", "counts", "--to", "lu"), '{"w_plus": 1, "w_total": %s}', None),
    "weights": (("convert", "--from", "weights", "--to", "lu"), '{"kind": "infinite", "delta": %s}', None),
    "belpl": (("convert", "--from", "belpl", "--to", "counts"), '{"bel": 0, "pl": %s}', None),
    "lu": (("convert", "--from", "lu", "--to", "belpl"), '{"kind": "point", "value": %s}', None),
    "dempster": (("combine", "--rule", "dempster"), '{"bel": %s, "pl": 1}', '{"bel": 0, "pl": 1}'),
    "combine_lu": (
        ("combine", "--rule", "lu"), '{"kind": "interval", "l": 0, "u": %s}', '{"kind": "point", "value": 1}'
    ),
}


@pytest.mark.parametrize("big", BIG_INTS.values(), ids=BIG_INTS)
@pytest.mark.parametrize("case", BIG_VALUES.values(), ids=BIG_VALUES)
def test_an_oversized_integer_is_a_one_line_error(capsys, monkeypatch, case, big):
    command, template, other = case
    value = template % big
    values = [value] if other is None else [value, other]
    stdin = value if other is None else f"[{value}, {other}]"
    for argv, text in ((command + tuple(values), ""), (command, stdin)):  # in arguments, then on stdin
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("big", BIG_INTS.values(), ids=BIG_INTS)
def test_an_oversized_integer_ends_without_a_traceback(big):
    argv = ["convert", "--from", "counts", "--to", "lu", '{"w_plus": 1, "w_total": %s}' % big]
    proc = subprocess.run([sys.executable, "-m", "evcalc.cli", *argv], capture_output=True, text=True, env=src_env(),
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# --- simulate ---


def test_simulate_faithful_run(capsys):
    code, out, err = run_cli(capsys, "simulate", "--q", "0.7", "--steps", "2000", "--mode", "faithful")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,t_plus,bel,pl,l,u,f"
    assert len(lines) == 2002
    final = lines[-1].split(",")
    assert float(final[2]) > 0.999
    assert float(final[4]) == pytest.approx(0.7, abs=1e-3)
    assert "predicted dempster limit: 1" in err
    assert "final row: t=2000" in err


def test_simulate_zero_steps(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--q", "0.5", "--steps", "0")
    assert code == 0
    assert out.splitlines() == ["t,t_plus,bel,pl,l,u,f", "0,0,0,1,0,1,"]


def test_simulate_record_every_and_out_file(capsys, tmp_path):
    target = tmp_path / "run.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--q", "0.5", "--steps", "10",
        "--record-every", "5", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["t", "0", "5", "10"]


def test_simulate_record_every_past_the_run(capsys):
    args = ("simulate", "--q", "0.5", "--steps", "10", "--record-every")
    code, out, _ = run_cli(capsys, *args, "10")
    assert (code, len(out.splitlines())) == (0, 3)
    assert run_cli(capsys, *args, str(2**63))[:2] == (0, out)


def test_simulate_bernoulli_determinism(capsys):
    args = ("simulate", "--q", "0.4", "--steps", "50", "--mode", "bernoulli", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "simulate", "--q", "0.4", "--steps", "50", "--mode", "bernoulli", "--seed", "6")
    assert out3 != out1


def test_simulate_rejects_a_seed_of_2_to_the_64_or_more(capsys):
    code, out, err = run_cli(capsys, "simulate", "--mode", "bernoulli", "--q", "0.5", "--steps", "10",
                             "--seed", str(2**70))
    assert (code, out) == (1, "")
    assert "seed must be an integer in [0, 2**64)" in err
    code, _, _ = run_cli(capsys, "simulate", "--mode", "bernoulli", "--q", "0.5", "--steps", "10",
                         "--seed", str(2**64 - 1))
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--q", "1.5", "--steps", "10"),
        ("simulate", "--q", "0.5", "--steps", "-1"),
        ("simulate", "--q", "0.5", "--steps", "10", "--record-every", "0"),
        ("simulate", "--q", "0.5", "--steps", "10", "--w0-pos", "0"),
        ("simulate", "--steps", "10"),  # q required
        ("simulate", "--q", "abc", "--steps", "10"),
        ("simulate", "--q", "0.5", "--steps", "10", "--w0-pos", "40"),  # support rounds to 1
    ],
)
def test_simulate_bad_flags(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 1


def test_simulate_tiny_unit_weight_ends_in_a_frequency(capsys):
    # w + 1 rounds to 1, so the bounds alone cannot give the frequency
    for argv, last in (
        (("--q", "0", "--steps", "3", "--w0-neg", "1e-17"), "3,0,0,1,0,1,0"),
        (("--q", "0.5", "--steps", "4", "--mode", "faithful", "--w0-pos", "1e-17", "--w0-neg", "1e-17"),
         "4,2,2e-17,1,2e-17,1,0.5"),
    ):
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 0
        assert out.splitlines()[-1] == last
        assert f"final row: t={last[0]}" in err


def test_simulate_unwritable_out_is_usage_error(capsys, tmp_path):
    for target in (str(tmp_path / "missing" / "run.csv"), ""):  # an empty path is not an omitted --out
        code, out, err = run_cli(capsys, "simulate", "--q", "0.7", "--steps", "10", "--out", target)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1


def test_simulate_stops_quietly_when_stdout_reader_closes():
    # 200k rows are megabytes of CSV, far beyond a pipe buffer, so the
    # child is still writing when the reader goes away after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "evcalc.cli", "simulate", "--q", "0.7", "--steps", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
    )
    assert proc.stdout.readline() == b"t,t_plus,bel,pl,l,u,f\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err and b"Error" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--q", "0.7", "--steps", "10"),  # fails at the final flush
        ("simulate", "--q", "0.7", "--steps", "20000"),  # fails inside the CSV writer
        ("convert", "--from", "counts", "--to", "lu", '{"w_plus":6,"w_total":10}'),
    ],
)
def test_full_stdout_is_a_one_line_error(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "evcalc.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=src_env(), timeout=60
        )
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def _run_with_stdout_closed(argv) -> subprocess.CompletedProcess:
    """evcalc in a new interpreter started with its stdout descriptor closed,
    so its sys.stdout is None."""
    return subprocess.run([sys.executable, "-m", "evcalc.cli", *argv], stderr=subprocess.PIPE, env=src_env(),
                          preexec_fn=lambda: os.close(1), timeout=60)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--q", "0.7", "--steps", "3"),
        ("convert", "--from", "counts", "--to", "lu", '{"w_plus":6,"w_total":10}'),
        ("combine", "--rule", "lu", '{"kind":"point","value":0.5}', '{"kind":"interval","l":0,"u":1}'),
    ],
)
def test_closed_stdout_is_a_one_line_error(argv):
    proc = _run_with_stdout_closed(argv)
    assert (proc.returncode, proc.stderr.decode()) == (1, "error: cannot write stdout: it is closed\n")


def test_simulate_out_file_needs_no_stdout(tmp_path):
    # the file takes the lowest free descriptor, 1, so a stray write to stdout would land in it
    target = tmp_path / "run.csv"
    proc = _run_with_stdout_closed(("simulate", "--q", "0.7", "--steps", "3", "--out", str(target)))
    assert proc.returncode == 0
    assert proc.stderr.decode().startswith("final row: t=3 ") and b"Error" not in proc.stderr
    assert target.read_text() == run_dual_track(StreamSpec(mode="frequency_faithful", steps=3, q=0.7)).to_csv()


@pytest.mark.parametrize("argv", [("convert", "--from", "belpl", "--to", "weights"), ("combine", "--rule", "lu")])
def test_closed_stdin_is_a_one_line_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", None)  # what the interpreter sets when it starts with stdin closed
    assert run_cli(capsys, *argv) == (1, "", "error: cannot read stdin: it is closed\n")


def _close_stderr():
    os.close(2)  # the interpreter then sets sys.stderr to None


def _make_stderr_read_only():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)  # every write to it fails


@pytest.mark.parametrize("start", [_close_stderr, _make_stderr_read_only])
@pytest.mark.parametrize(
    "argv, code, out",
    [
        (("simulate", "--q", "0.7", "--steps", "2"), 0,
         run_dual_track(StreamSpec(mode="frequency_faithful", steps=2, q=0.7)).to_csv()),
        (("combine", "--rule", "dempster", '{"bel":1,"pl":1}', '{"bel":0,"pl":0}'), 2, ""),  # total conflict
        (("convert", "--from", "belpl", "--to", "weights", "{"), 1, ""),
    ],
    ids=["simulate", "combine", "convert"],
)
def test_lost_stderr_leaves_stdout_and_exit_code(start, argv, code, out):
    proc = subprocess.run([sys.executable, "-m", "evcalc.cli", *argv], stdout=subprocess.PIPE, env=src_env(),
                          preexec_fn=start, timeout=60)
    assert (proc.returncode, proc.stdout.decode()) == (code, out)


def _loaded(statement: str) -> set:
    """The modules loaded after statement runs in a new interpreter on this checkout's evcalc."""
    probe = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())  # the line after any output of statement


def test_import_loads_no_dataclass_machinery():
    # compared with a bare interpreter, so a site hook that preloads either
    # module does not count against the import
    added = _loaded("import evcalc.cli") - _loaded("")
    assert "evcalc.cli" in added
    assert not added & {"dataclasses", "inspect"}


# the evcalc modules each call loads, and so compiles when no bytecode is cached
@pytest.mark.parametrize(
    "argv, modules",
    [
        (None, "cli errors"),
        (["convert", "--from", "counts", "--to", "belpl", '{"w_plus": 1, "w_total": 2}'],
         "binary_frame cli errors evidence_scale lower_upper"),
        (["combine", "--rule", "dempster", '{"bel": 0.5, "pl": 1}', '{"bel": 0.5, "pl": 1}'],
         "binary_frame cli errors"),
        (["combine", "--rule", "lu", '{"kind": "point", "value": 0.5}', '{"kind": "interval", "l": 0, "u": 1}'],
         "binary_frame cli errors evidence_scale lower_upper"),
        (["simulate", "--q", "0.7", "--steps", "20", "--mode", "bernoulli"],
         "binary_frame cli convergence errors evidence_scale"),
        (["defect-demo", "--steps", "20"], "binary_frame cli convergence errors evidence_scale"),
        (["delta-demo", "--delta", "2", "--steps", "20"], "binary_frame cli convergence errors evidence_scale"),
    ],
    ids=["import", "convert", "combine-dempster", "combine-lu", "simulate", "defect-demo", "delta-demo"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    statement = "import evcalc.cli" if argv is None else f"from evcalc.cli import main\nassert main({argv!r}) == 0"
    got = {m for m in _loaded(statement) if m.startswith("evcalc.")}
    assert got == {"evcalc." + m for m in modules.split()}


# the standard-library modules a call adds to a bare interpreter: argparse (with gettext, and
# locale at its first translated string) only for help and usage errors, json only where JSON is
# read or written
@pytest.mark.parametrize(
    "argv, json_loaded",
    [
        (None, False),
        (["convert", "--from", "counts", "--to", "belpl", '{"w_plus": 1, "w_total": 2}'], True),
        (["combine", "--rule", "dempster", '{"bel": 0.5, "pl": 1}', '{"bel": 0.5, "pl": 1}'], True),
        (["combine", "--rule", "lu", '{"kind": "point", "value": 0.5}', '{"kind": "interval", "l": 0, "u": 1}'],
         True),
        (["simulate", "--q", "0.7", "--steps", "20", "--mode", "bernoulli"], False),
        (["defect-demo", "--steps", "20"], True),
        (["delta-demo", "--delta", "2", "--steps", "20"], True),
    ],
    ids=["import", "convert", "combine-dempster", "combine-lu", "simulate", "defect-demo", "delta-demo"],
)
def test_a_well_formed_command_loads_no_argparse(argv, json_loaded):
    statement = "import evcalc.cli" if argv is None else f"from evcalc.cli import main\nassert main({argv!r}) == 0"
    added = _loaded(statement) - _loaded("")
    assert not added & {"argparse", "gettext", "locale"}
    assert ("json" in added) == json_loaded


@pytest.mark.parametrize("argv", [["--help"], ["convert", "--from", "x", "--to", "lu", "1"]], ids=["help", "usage"])
def test_help_and_usage_errors_load_argparse(argv):
    statement = f"from evcalc.cli import main\ntry:\n    main({argv!r})\nexcept SystemExit:\n    pass"
    assert "argparse" in _loaded(statement) - _loaded("")


@pytest.mark.parametrize("argv", [["convert", "--from", "counts", "--to", "lu", '{"w_plus": 1, "w_total": 2}'],
                                  ["simulate", "--q", "0.7", "--steps", "5", "--out", "run.csv"]],
                         ids=["convert", "simulate"])
def test_the_console_script_reads_sys_argv(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["evcalc", *argv])
    csv, runs = tmp_path / "run.csv", []
    for call in (lambda: main(argv), main):
        code = call()
        runs.append((code, capsys.readouterr(), csv.read_bytes() if csv.exists() else None))
        csv.unlink(missing_ok=True)
    assert runs[0][0] == 0 and runs[1] == runs[0]


# --- demos ---


def test_delta_demo(capsys):
    code, out, _ = run_cli(capsys, "delta-demo", "--delta", "2", "--steps", "10000")
    assert code == 0
    got = json.loads(out)
    assert got["delta"] == 2
    assert got["analytic_limit"] == pytest.approx(1 / (1 + math.exp(2)), abs=1e-15)
    assert got["abs_difference"] < 1e-6


def test_delta_demo_symmetric_profile(capsys):
    code, out, _ = run_cli(capsys, "delta-demo", "--delta", "0", "--steps", "1000")
    assert code == 0
    got = json.loads(out)
    assert got["final_bel"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("delta", ["2.5", "-1", "nan", "inf"])
def test_delta_demo_rejects_bad_delta(capsys, delta):
    code, out, err = run_cli(capsys, "delta-demo", "--delta", delta)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_delta_demo_needs_enough_steps(capsys):
    code, _, _ = run_cli(capsys, "delta-demo", "--delta", "5", "--steps", "3")
    assert code == 1


def test_defect_demo_default(capsys):
    code, out, _ = run_cli(capsys, "defect-demo")
    assert code == 0
    got = json.loads(out)
    assert got["q"] == 0.7
    assert got["predicted_dempster_limit"] == 1.0
    assert got["final_bel"] >= 0.999
    assert got["dempster_gap_to_q"] > 0.29  # belief left the chance behind
    assert got["lower_frequency_gap_to_q"] <= 0.001  # the interval did not
    assert got["final_f"] == 0.7  # 1400 positives in 2000 steps, exactly


def test_defect_demo_balanced_case(capsys):
    code, out, _ = run_cli(capsys, "defect-demo", "--q", "0.5", "--steps", "1000")
    assert code == 0
    got = json.loads(out)
    assert got["predicted_dempster_limit"] == 0.5
    assert got["final_bel"] == pytest.approx(0.5, abs=1e-3)


# --- parser behaviour ---


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 1


def test_unknown_rule_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "combine", "--rule", "zadeh", "{}", "{}")
    assert code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


# the parser's texts, byte for byte at 80 columns

HELP = {
    "": """\
usage: evcalc [-h] {combine,convert,simulate,defect-demo,delta-demo} ...

Command-line surface.

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

positional arguments:
  {combine,convert,simulate,defect-demo,delta-demo}
    combine             fold serialized values with one of the two rules
    convert             translate a value between representations
    simulate            run a stream through both calculi, emit CSV
    defect-demo         Dempster track versus frequency track at chance q
    delta-demo          fold against the analytic point 1/(1+e^delta)

options:
  -h, --help            show this help message and exit
""",
    "combine": """\
usage: evcalc combine [-h] --rule {dempster,lu} [values ...]

positional arguments:
  values                JSON values; a JSON array on stdin if omitted

options:
  -h, --help            show this help message and exit
  --rule {dempster,lu}
""",
    "convert": """\
usage: evcalc convert [-h] --from {belpl,weights,lu,counts} --to
                      {belpl,weights,lu,counts}
                      [value]

positional arguments:
  value                 JSON value; read from stdin if omitted

options:
  -h, --help            show this help message and exit
  --from {belpl,weights,lu,counts}
  --to {belpl,weights,lu,counts}
""",
    "simulate": """\
usage: evcalc simulate [-h] --q Q --steps STEPS [--seed SEED]
                       [--w0-pos W0_POS] [--w0-neg W0_NEG]
                       [--mode {bernoulli,faithful}]
                       [--record-every RECORD_EVERY] [--out OUT]

options:
  -h, --help            show this help message and exit
  --q Q                 chance of a positive outcome
  --steps STEPS
  --seed SEED
  --w0-pos W0_POS
  --w0-neg W0_NEG
  --mode {bernoulli,faithful}
  --record-every RECORD_EVERY
  --out OUT             CSV file path; stdout if omitted
""",
    "defect-demo": """\
usage: evcalc defect-demo [-h] [--q Q] [--steps STEPS] [--w0-pos W0_POS]
                          [--w0-neg W0_NEG]

options:
  -h, --help       show this help message and exit
  --q Q
  --steps STEPS
  --w0-pos W0_POS
  --w0-neg W0_NEG
""",
    "delta-demo": """\
usage: evcalc delta-demo [-h] --delta DELTA [--steps STEPS]

options:
  -h, --help     show this help message and exit
  --delta DELTA
  --steps STEPS
""",
}

if sys.version_info >= (3, 13):  # 3.13's argparse wraps the usage line before --to, not after it
    HELP["convert"] = """\
usage: evcalc convert [-h] --from {belpl,weights,lu,counts}
                      --to {belpl,weights,lu,counts}
                      [value]

positional arguments:
  value                 JSON value; read from stdin if omitted

options:
  -h, --help            show this help message and exit
  --from {belpl,weights,lu,counts}
  --to {belpl,weights,lu,counts}
"""

# each case: argv, then stderr as argparse wrote choices up to 3.12.1 and 3.13.0 (quoted) and as
# 3.13.13 writes them (bare)
INVALID_CHOICE = {
    "from": (["convert", "--from", "x", "--to", "lu", "1"],
             "error: argument --from: invalid choice: 'x' (choose from 'belpl', 'weights', 'lu', 'counts')\n",
             "error: argument --from: invalid choice: 'x' (choose from belpl, weights, lu, counts)\n"),
    "to": (["convert", "--from", "lu", "--to", "x", "1"],
           "error: argument --to: invalid choice: 'x' (choose from 'belpl', 'weights', 'lu', 'counts')\n",
           "error: argument --to: invalid choice: 'x' (choose from belpl, weights, lu, counts)\n"),
    "rule": (["combine", "--rule", "x", "1", "2"],
             "error: argument --rule: invalid choice: 'x' (choose from 'dempster', 'lu')\n",
             "error: argument --rule: invalid choice: 'x' (choose from dempster, lu)\n"),
}


def _argparse_quotes_choices() -> bool:
    """Whether this Python's argparse quotes the choices in an invalid-choice error.

    A patch release of 3.13 (between 3.13.0 and 3.13.13) stopped quoting them,
    so the form is read from a probe parser rather than from the version.
    """
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("--x", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as excinfo:
        probe.parse_args(["--x", "b"])
    return "'a'" in str(excinfo.value)


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "evcalc")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"] if command else ["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == HELP[command]


@pytest.mark.parametrize("argv, quoted, bare", INVALID_CHOICE.values(), ids=list(INVALID_CHOICE))
def test_invalid_choice_message_is_pinned(capsys, argv, quoted, bare):
    assert run_cli(capsys, *argv) == (1, "", quoted if _argparse_quotes_choices() else bare)


# the same texts from the installed console script
@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "evcalc")
def test_installed_script_help_text_is_pinned(evcalc_script, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert evcalc_script(*([command, "--help"] if command else ["--help"])) == (0, HELP[command], "")


@pytest.mark.parametrize("argv, quoted, bare", INVALID_CHOICE.values(), ids=list(INVALID_CHOICE))
def test_installed_script_invalid_choice_message_is_pinned(evcalc_script, argv, quoted, bare):
    assert evcalc_script(*argv) == (1, "", quoted if _argparse_quotes_choices() else bare)


# --- the table reader ---

_ALL_OPTIONS = [option for _, _, options, _ in _COMMANDS.values() for option in options]
_VALID = {float: ["0.5", "20", "1e3", "1_0", " 3", "nan"], int: ["7", "20", "1_0", " 3"], str: ["run.csv", ""]}
_WORDS = ["-h", "--help", "--", "-", "-1", "1e3", "1_0", " 3", "nan", "lu", "x", '{"bel": 0.5, "pl": 1}', "{}", ""]


@st.composite
def _argvs(draw):
    """A command or an unknown word, then some of its options in any order (one maybe twice) as
    `--flag value` with the value valid or any word, positionals, and up to two tokens anywhere after
    the command: a flag exact, abbreviated or as --flag=value, or a word argparse reads as help, a
    separator, a number, a choice, JSON or ''."""
    command = draw(st.sampled_from([*_COMMANDS, "zadeh"]))
    options = _COMMANDS[command][2] if command in _COMMANDS else _ALL_OPTIONS
    chosen = draw(st.permutations(options))[: draw(st.integers(0, len(options)))]
    argv = [command]
    for flag, _, convert, choices, *_ in chosen + draw(st.lists(st.sampled_from(options), max_size=1)):
        valid = st.sampled_from(choices or _VALID[convert])
        argv += [flag, draw(st.one_of(valid, st.sampled_from(_WORDS)))]
    argv += draw(st.lists(st.sampled_from(_WORDS), max_size=2))
    flag, word = st.sampled_from([option[0] for option in options]), st.sampled_from(_WORDS)
    token = st.one_of(
        flag,
        flag.flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda n: f[:n]) if len(f) > 3 else st.just(f)),
        st.tuples(flag, word).map("=".join),
        word,
    )
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(1, len(argv))), draw(token))
    return argv


# the calls of the benchmark's simulate and cli_calls workloads, with their JSON values cut short
_BENCH_CALLS = [
    ["simulate", "--mode", "faithful", "--q", "0.7", "--steps", "100000", "--record-every", "1", "--out", "run.csv"],
    ["simulate", "--mode", "bernoulli", "--seed", "281474976710655", "--q", "0.61", "--steps", "300000",
     "--record-every", "10000", "--out", "run.csv"],
    ["combine", "--rule", "dempster"],
    ["combine", "--rule", "dempster", '{"bel": 0.5, "pl": 1}', '{"bel": 0.25, "pl": 0.5}'],
    ["combine", "--rule", "lu"],
    ["combine", "--rule", "lu", '{"kind": "point", "value": 0.2}', '{"kind": "point", "value": 0.9}'],
    ["convert", "--from", "weights", "--to", "counts"],
    ["convert", "--from", "lu", "--to", "belpl", '{"kind": "interval", "l": 0.2, "u": 0.5}'],
]

# argparse reads these, and the reader leaves them to it
_DECLINED = [
    ["simulate", "--q", "0.5", "--steps", "10", "--w0-pos", "-1"],  # argparse takes -1 as the value
    ["combine", "--rul", "dempster"],  # an abbreviation
    ["simulate", "--q", "0.5", "--q", "0.6", "--steps", "10"],  # argparse keeps the last
    ["combine", "v1", "--rule", "lu", "v2"],  # argparse errors
    ["convert", "--from", "lu", "--to", "belpl", "{}", "{}"],  # argparse errors: one value at most
]


def _fields(args) -> dict:
    return {name: repr(value) for name, value in vars(args).items()}  # repr: nan equals nan


@settings(max_examples=1000)
@given(_argvs())
@example(_DECLINED[0])
@example(_DECLINED[1])
@example(_DECLINED[2])
@example(_DECLINED[3])
@example(_DECLINED[4])
@example(_BENCH_CALLS[0])
@example(_BENCH_CALLS[1])
@example(_BENCH_CALLS[2])
@example(_BENCH_CALLS[3])
@example(_BENCH_CALLS[4])
@example(_BENCH_CALLS[5])
@example(_BENCH_CALLS[6])
@example(_BENCH_CALLS[7])
def test_the_table_reader_agrees_with_argparse(argv):
    args = _read_argv(argv)
    if args is not None:
        assert _fields(args) == _fields(_build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, accepted", [*((a, True) for a in _BENCH_CALLS), *((a, False) for a in _DECLINED)])
def test_the_table_reader_takes_the_benchmark_calls_and_declines_other_spellings(argv, accepted):
    assert (_read_argv(argv) is not None) == accepted
