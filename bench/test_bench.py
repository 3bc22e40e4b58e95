"""Self-tests of the benchmark: ``python3 -m pytest bench``.

They check that every metric a run prints is declared in BENCHMARK.json,
and that a broken output raises the failure count.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import reference
import workloads
from workloads import ROOT, Child, Children, CliCalls, Simulate, import_evcalc

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_are_declared(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert declared[name]["better"] in ("higher", "lower"), name
        assert isinstance(metric["value"], (int, float)), name


def test_failing_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernels", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def fake_child(code: int, stdout: str = "", write: tuple | None = None):
    """A Children.run stand-in that returns a fixed result, optionally writing a file."""

    def run(args, stdin_text=None):
        if write is not None:
            write[0].write_text(write[1], encoding="utf-8")
        return Child(code, 0.01, 10.0, stdout, "")

    return run


@pytest.fixture
def small_simulate(tmp_path):
    ev = import_evcalc()
    wl = Simulate("frequency_faithful", 0.7, 200, 1, 0, Children(tmp_path))
    spec = ev.StreamSpec(mode="frequency_faithful", steps=200, q=0.7)
    return wl, ev.run_dual_track(spec).to_csv()


def test_correct_csv_passes(monkeypatch, small_simulate):
    wl, text = small_simulate
    monkeypatch.setattr(wl.children, "run", fake_child(0, write=(wl.out, text)))
    op = wl.op()
    assert (op.attempted, op.failed) == (1, 0), op.problems


@pytest.mark.parametrize("row", [1, 57, 200])
def test_corrupted_csv_row_fails(monkeypatch, small_simulate, row):
    wl, text = small_simulate
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-9)  # l off by 1e-9
    lines[row + 1] = ",".join(fields)
    monkeypatch.setattr(wl.children, "run", fake_child(0, write=(wl.out, "\n".join(lines))))
    op = wl.op()
    assert op.failed == 1 and f"t={row}" in op.problems[0]


def test_truncated_csv_fails(monkeypatch, small_simulate):
    wl, text = small_simulate
    truncated = "\n".join(text.split("\n")[:-3]) + "\n"
    monkeypatch.setattr(wl.children, "run", fake_child(0, write=(wl.out, truncated)))
    assert wl.op().failed == 1


def test_sparse_counts_match_library():
    ev = import_evcalc()
    spec = ev.StreamSpec(mode="bernoulli", steps=5000, q=0.6, seed=12345)
    traj = ev.run_dual_track(spec, record_every=1000)
    assert [(r.t, r.t_plus) for r in traj.rows] == reference.bernoulli_counts(12345, 0.6, 5000, 1000)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return CliCalls(3, Children(tmp_path_factory.mktemp("cli")))


def _first(cli, expected_code):
    for i, call in enumerate(cli.calls):
        if call.expected_code == expected_code:
            cli._next = i
            return call
    raise AssertionError(f"no call expecting exit {expected_code}")


@pytest.mark.parametrize("expected_code", [0, 3])
def test_cli_expected_output_passes(monkeypatch, cli, expected_code):
    call = _first(cli, expected_code)
    monkeypatch.setattr(cli.children, "run", fake_child(expected_code, json.dumps(call.expected)))
    assert cli.op().failed == 0


@pytest.mark.parametrize("expected_code", [0, 3])
def test_cli_wrong_exit_code_fails(monkeypatch, cli, expected_code):
    call = _first(cli, expected_code)
    monkeypatch.setattr(cli.children, "run", fake_child(1 if expected_code else 3, json.dumps(call.expected)))
    assert cli.op().failed == 1


def test_cli_wrong_json_value_fails(monkeypatch, cli):
    call = _first(cli, 0)
    wrong = dict(call.expected)
    key = next(iter(k for k, v in wrong.items() if isinstance(v, float)))
    wrong[key] += 1e-12
    monkeypatch.setattr(cli.children, "run", fake_child(0, json.dumps(wrong)))
    op = cli.op()
    assert op.failed == 1 and call.name in op.problems[0]


def test_kernel_wrong_value_fails():
    ev = import_evcalc()
    inputs, truth = workloads.kernel_inputs(5, n=40)
    from kernel_batch import run_batch

    results, _ = run_batch(ev, inputs)
    calls, problems = reference.check_kernels(inputs, truth, results)
    assert calls == 8 * 40 and problems == []
    for name in results:
        broken = {k: [list(r) for r in v] for k, v in results.items()}
        broken[name][3][0] += 1e-6
        _, problems = reference.check_kernels(inputs, truth, broken)
        assert any(p.startswith(f"{name}[3]") for p in problems), (name, problems)
