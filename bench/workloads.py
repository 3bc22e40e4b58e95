"""The four workloads: inputs made from the seed, one operation, its check.

An operation is one unit the workload's user waits for: an ``evcalc
simulate`` process, a kernel-batch process, or one short ``evcalc`` call.
Every operation runs as a child process, one at a time, and is checked
after its timing ends.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLI = [sys.executable, "-m", "evcalc.cli"]
CHILD_TIMEOUT_S = 120

KERNEL_INPUTS = 400  # inputs per kernel
HIGH_CONFLICT_SHARE = 0.25  # of combine_interval/combine_mass pairs, conflict > 0.5
BAYESIAN_SHARE = 0.10  # of those pairs, both operands Bayesian points
CLI_VALUES = 1000  # values per combine call


def no_span(*_args, **_kwargs):
    return nullcontext()


def import_evcalc():
    """The library, imported from this checkout's src."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import evcalc

    return evcalc


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Children:
    """Runs the benchmark's children one at a time and owns its scratch directory.

    Launches go through spawn.py, a helper process that stays small, so a
    child's peak RSS from wait4 is its own and not this process's.  That
    RSS is the child's alone: RUSAGE_CHILDREN would be a running maximum
    over every child reaped so far.  The helper starts on the first launch.
    """

    def __init__(self, work: Path):
        self.work = work
        self._helper: subprocess.Popen | None = None
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self._env.get("PYTHONPATH")]))

    def run(self, args: list[str], stdin_text: str | None = None) -> Child:
        """Run one child to exit; time it from launch to exit."""
        if stdin_text is not None:
            (self.work / "stdin.txt").write_text(stdin_text, encoding="utf-8")
        request = {
            "args": args,
            "cwd": str(ROOT),
            "env": self._env,
            "timeout": CHILD_TIMEOUT_S,
            "stdin": None if stdin_text is None else str(self.work / "stdin.txt"),
            "stdout": str(self.work / "stdout.txt"),
            "stderr": str(self.work / "stderr.txt"),
        }
        if self._helper is None:
            self._helper = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=ROOT,
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError(f"the launch helper exited with code {self._helper.wait()}")
        reply = json.loads(line)
        out, err = ((self.work / name).read_text(encoding="utf-8", errors="replace") for name in ("stdout.txt", "stderr.txt"))
        return Child(reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0, out, err)

    def close(self) -> None:
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.stdout.close()
            self._helper.wait(timeout=CHILD_TIMEOUT_S)
            self._helper = None


@dataclass
class Sample:
    """One timing of calls the workload's user makes."""

    kind: str  # timings of one kind repeat the same work
    seconds: float
    calls: int  # calls the timing covers
    units: int  # work units they complete: steps, library calls or CLI calls


@dataclass
class OpResult:
    kind: str  # operations of one kind repeat the same work
    wall_s: float  # launch to exit of the operation's child
    peak_rss_mb: float  # that child's peak RSS
    samples: list[Sample]
    attempted: int  # checked operations
    failed: int
    problems: list[str] = field(default_factory=list)


# --- simulate_dense and simulate_sparse --------------------------------------


class Simulate:
    """``evcalc simulate`` writing its CSV to a file; the fold's headline run."""

    def __init__(self, mode: str, q: float, steps: int, record_every: int, sim_seed: int, children: Children):
        self.mode, self.q, self.steps, self.record_every, self.sim_seed = mode, q, steps, record_every, sim_seed
        self.children = children
        self.out = children.work / "run.csv"
        if mode == "frequency_faithful":
            counts = reference.faithful_counts(q, steps, record_every)
            mode_args = ["--mode", "faithful"]
        else:
            counts = reference.bernoulli_counts(sim_seed, q, steps, record_every)
            mode_args = ["--mode", "bernoulli", "--seed", str(sim_seed)]
        self.args = CLI + ["simulate", *mode_args, "--q", repr(q), "--steps", str(steps),
                           "--record-every", str(record_every), "--out", str(self.out)]
        self.expected = reference.expected_rows(counts)
        self._verdicts: dict[str, list[str]] = {}

    @classmethod
    def from_seed(cls, name: str, seed: int, children: Children) -> Simulate:
        rng = random.Random(seed)
        if name == "simulate_dense":
            return cls("frequency_faithful", round(rng.uniform(0.6, 0.8), 6), 100_000, 1, 0, children)
        q = round(rng.uniform(0.55, 0.75), 6)
        return cls("bernoulli", q, 300_000, 10_000, rng.getrandbits(48), children)

    def check(self, code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if text not in self._verdicts:  # runs of one spec must replay byte for byte
            self._verdicts[text] = reference.check_csv(text, self.expected)
        return self._verdicts[text]

    def op(self) -> OpResult:
        self.out.unlink(missing_ok=True)
        child = self.children.run(self.args)
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else ""
        problems = self.check(child.code, text)
        return OpResult("simulate", child.wall_s, child.peak_rss_mb, [Sample("simulate", child.wall_s, 1, self.steps)],
                        1, int(bool(problems)), problems)


# --- kernels ----------------------------------------------------------------


def _interval_pairs(rng: random.Random, n: int) -> list[tuple[float, float, float, float]]:
    """(bel1, pl1, bel2, pl2) pairs: a fixed share with conflict above 0.5,
    a fixed share of Bayesian point pairs, the rest low-conflict; none near
    total conflict."""
    n_hc = round(n * HIGH_CONFLICT_SHARE)
    n_bayes = round(n * BAYESIAN_SHARE)
    pairs = []
    while len(pairs) < n_bayes:
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        if reference.conflict(x, x, y, y) <= 0.5:
            pairs.append((x, x, y, y))
    for want_high, count in ((True, n_hc), (False, n - n_hc - n_bayes)):
        made = 0
        while made < count:
            b1, p1 = sorted((rng.random(), rng.random()))
            b2, p2 = sorted((rng.random(), rng.random()))
            k = reference.conflict(b1, p1, b2, p2)
            if (0.5 < k < 0.95) if want_high else k <= 0.5:
                pairs.append((b1, p1, b2, p2))
                made += 1
    rng.shuffle(pairs)
    return pairs


def kernel_inputs(seed: int, n: int = KERNEL_INPUTS) -> tuple[dict, dict]:
    """Raw-float inputs per kernel, and the known values behind derived ones.

    Weights stay at or below 8, where the weight/interval maps invert to
    1e-9.
    """
    rng = random.Random(seed)
    pairs = _interval_pairs(rng, n)

    def weights(low: float) -> tuple[float, float]:
        return rng.uniform(low, 8.0), rng.uniform(low, 8.0)

    def counts(top: float) -> tuple[float, float]:
        wt = rng.uniform(0.0, top)
        return rng.uniform(0.0, wt), wt

    lu_counts = [(counts(50.0), counts(50.0)) for _ in range(n)]
    w_of_belief = [weights(0.05) for _ in range(n)]
    w_of_lu = [weights(0.05) for _ in range(n)]
    lu_of_counts = [(wp, wp + wm) for wp, wm in (weights(0.0) for _ in range(n))]
    inputs = {
        "combine_interval": [list(p) for p in pairs],
        "combine_mass": [[b1, 1.0 - p1, p1 - b1, b2, 1.0 - p2, p2 - b2] for b1, p1, b2, p2 in pairs],
        "combine_lu": [[*reference.lower_upper(*c1), *reference.lower_upper(*c2)] for c1, c2 in lu_counts],
        "belief_from_weights": [list(weights(0.0)) for _ in range(n)],
        "weights_from_belief": [list(reference.belief(*w)) for w in w_of_belief],
        "lu_from_belpl": [list(reference.belief(*w)) for w in w_of_lu],
        "belpl_from_lu": [list(reference.lower_upper(*c)) for c in lu_of_counts],
        "interval_from_counts": [list(counts(1000.0)) for _ in range(n)],
    }
    truth = {
        "combine_lu": [(c1[0] + c2[0], c1[1] + c2[1]) for c1, c2 in lu_counts],
        "weights_from_belief": w_of_belief,
        "lu_from_belpl": w_of_lu,
        "belpl_from_lu": lu_of_counts,
    }
    return inputs, truth


class Kernels:
    """Library calls on pre-generated values, in a child of their own."""

    def __init__(self, seed: int, children: Children):
        self.children = children
        self.inputs, self.truth = kernel_inputs(seed)
        self.inputs_path = children.work / "kernel_inputs.json"
        self.results_path = children.work / "kernel_results.json"
        with open(self.inputs_path, "w", encoding="utf-8") as fh:
            json.dump(self.inputs, fh)
        self.args = [sys.executable, str(BENCH / "kernel_batch.py"), str(self.inputs_path), str(self.results_path)]
        self.calls_per_pass = sum(len(v) for v in self.inputs.values())

    def check(self, results: dict) -> tuple[int, list[str]]:
        return reference.check_kernels(self.inputs, self.truth, results)

    def op(self) -> OpResult:
        self.results_path.unlink(missing_ok=True)
        child = self.children.run(self.args)
        try:
            with open(self.results_path, encoding="utf-8") as fh:
                out = json.load(fh)
        except (OSError, ValueError):
            out = None
        if child.code != 0 or out is None:
            problem = f"kernel batch exit code {child.code}: {child.stderr[-300:]}"
            return OpResult("kernel_batch", child.wall_s, child.peak_rss_mb,
                            [Sample("kernel_batch", child.wall_s, 1, 0)],  # no work done
                            self.calls_per_pass, self.calls_per_pass, [problem])
        checked, problems = self.check(out["results"])
        samples = [Sample(name, dt, len(self.inputs[name]), len(self.inputs[name]))
                   for name, dts in out["loop_s"].items() for dt in dts]
        return OpResult("kernel_batch", child.wall_s, child.peak_rss_mb, samples,
                        max(checked, 1), min(len(problems), max(checked, 1)), problems)


# --- cli_calls --------------------------------------------------------------


@dataclass
class Call:
    name: str
    args: list[str]  # after "evcalc"
    stdin: str | None
    values: list  # the JSON values the call reads, parsed
    expected_code: int = 0
    expected: dict | None = None  # the in-process library result


FORMATS = ("belpl", "weights", "lu", "counts")


def _value(rng: random.Random, fmt: str) -> dict:
    wp, wm = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
    if fmt == "belpl":
        bel, pl = reference.belief(wp, wm)
        return {"bel": bel, "pl": pl}
    if fmt == "weights":
        return {"kind": "finite", "w_plus": wp, "w_minus": wm}
    if fmt == "lu":
        l, u = reference.lower_upper(wp, wp + wm)
        return {"kind": "interval", "l": l, "u": u}
    return {"w_plus": wp, "w_total": wp + wm}


def cli_call_list(seed: int) -> list[Call]:
    """Combine calls over ~1k values (args and stdin, both rules, point pairs
    that must exit 3) and a convert call for every format pair."""
    rng = random.Random(seed)

    def weak_belpl():  # weak evidence, so a 1k-value fold stays far from total conflict
        bel, pl = reference.belief(rng.uniform(0.0, 0.01), rng.uniform(0.0, 0.01))
        return {"bel": bel, "pl": pl}

    def interval():
        wt = rng.uniform(0.0, 5.0)
        l, u = reference.lower_upper(rng.uniform(0.0, wt), wt)
        return {"kind": "interval", "l": l, "u": u}

    a = rng.uniform(0.05, 0.45)
    b = rng.uniform(0.55, 0.95)
    point_a, point_b = ({"kind": "point", "value": v} for v in (a, b))

    def combine(name, rule, values, via_stdin, code=0):
        if via_stdin:
            return Call(name, ["combine", "--rule", rule], json.dumps(values), values, code)
        return Call(name, ["combine", "--rule", rule, *map(json.dumps, values)], None, values, code)

    calls = [
        combine("combine_dempster_stdin", "dempster", [weak_belpl() for _ in range(CLI_VALUES)], True),
        combine("combine_dempster_args", "dempster", [weak_belpl() for _ in range(CLI_VALUES)], False),
        combine("combine_lu_stdin", "lu", [interval() for _ in range(CLI_VALUES)], True),
        combine("combine_lu_args", "lu", [interval() for _ in range(CLI_VALUES)], False),
        combine("combine_lu_points", "lu", [point_a, point_b], False, code=3),
        combine("combine_lu_stdin_conflict", "lu",
                [interval() for _ in range(CLI_VALUES - 2)] + [point_a, point_b], True, code=3),
        combine("combine_lu_stdin_point", "lu",
                [interval() for _ in range(CLI_VALUES - 2)] + [point_a, point_a], True),
    ]
    for i, (src, dst) in enumerate((s, d) for s in FORMATS for d in FORMATS):
        value = _value(rng, src)
        args = ["convert", "--from", src, "--to", dst]
        if i % 2:
            calls.append(Call(f"convert_{src}_{dst}", args, json.dumps(value), [value]))
        else:
            calls.append(Call(f"convert_{src}_{dst}", args + [json.dumps(value)], None, [value]))
    rng.shuffle(calls)
    return calls


def run_inprocess(ev, call: Call, span=no_span) -> tuple[int, dict]:
    """What the call computes, done with library functions in this process."""
    text_in = call.stdin
    if call.args[0] == "combine":
        rule = call.args[2]
        parse = ev.BeliefInterval.from_dict if rule == "dempster" else ev.FrequencyInterval.from_dict
        with span("json_in", "cli", calls=len(call.values)):
            raw = json.loads(text_in) if text_in is not None else [json.loads(v) for v in call.args[3:]]
            values = [parse(v) for v in raw]
        layer = "dempster" if rule == "dempster" else "lower_upper"
        with span(f"combine_{rule}", layer, calls=len(values) - 1):
            code, result = 0, values[0]
            for nxt in values[1:]:
                if rule == "dempster":
                    result = ev.combine_interval(result, nxt)
                elif result.is_point and nxt.is_point:
                    result = ev.combine_points(result, nxt)
                    if isinstance(result, ev.ConflictReport):
                        code = 3
                        break
                elif result.is_point:
                    result = ev.combine_with_point(result, nxt)
                elif nxt.is_point:
                    result = ev.combine_with_point(nxt, result)
                else:
                    result = ev.combine_lu(result, nxt)
    else:
        src, dst = call.args[2], call.args[4]
        parse = {"belpl": ev.BeliefInterval.from_dict, "weights": ev.EvidenceWeights.from_dict,
                 "lu": ev.FrequencyInterval.from_dict, "counts": ev.EvidenceCounts.from_dict}[src]
        with span("json_in", "cli", calls=1):
            value = parse(json.loads(text_in if text_in is not None else call.args[5]))
        with span(f"convert_{src}_{dst}", "evidence_scale"):
            code, result = 0, value if src == dst else _from_weights(ev, dst, _to_weights(ev, src, value))
    with span("json_out", "cli"):
        text_out = json.dumps(result.to_dict())
    return code, json.loads(text_out)


def _to_weights(ev, fmt: str, value):
    if fmt == "belpl":
        return ev.weights_from_belief(value)
    if fmt == "weights":
        return value
    if fmt == "lu":
        value = ev.counts_from_interval(value)
    return ev.EvidenceWeights.finite(value.w_plus, value.w_total - value.w_plus)


def _from_weights(ev, fmt: str, w):
    if fmt == "belpl":
        return ev.belief_from_weights(w)
    if fmt == "weights":
        return w
    counts = ev.EvidenceCounts(w.w_plus, w.w_plus + w.w_minus)
    return ev.interval_from_counts(counts) if fmt == "lu" else counts


def check_call(call: Call, code: int, stdout: str) -> list[str]:
    if code != call.expected_code:
        return [f"{call.name}: exit code {code}, expected {call.expected_code}"]
    try:
        got = json.loads(stdout)
    except ValueError:
        return [f"{call.name}: stdout is not JSON: {stdout[:200]!r}"]
    if got != call.expected:
        return [f"{call.name}: {got} != {call.expected}"]
    return []


class CliCalls:
    """Short ``evcalc`` calls in a closed loop with one client."""

    def __init__(self, seed: int, children: Children):
        ev = import_evcalc()
        self.children = children
        self.calls = cli_call_list(seed)
        for call in self.calls:
            code, result = run_inprocess(ev, call)
            if code != call.expected_code:
                raise RuntimeError(f"{call.name}: the library gives exit {code}, the workload expects {call.expected_code}")
            call.expected = result
        self._next = 0

    def op(self) -> OpResult:
        call = self.calls[self._next % len(self.calls)]
        self._next += 1
        child = self.children.run(CLI + call.args, call.stdin)
        problems = check_call(call, child.code, child.stdout)
        return OpResult(call.name, child.wall_s, child.peak_rss_mb, [Sample(call.name, child.wall_s, 1, 1)],
                        1, int(bool(problems)), problems)


WORKLOADS = ("simulate_dense", "simulate_sparse", "kernels", "cli_calls")


def make(name: str, seed: int, children: Children):
    if name in ("simulate_dense", "simulate_sparse"):
        return Simulate.from_seed(name, seed, children)
    if name == "kernels":
        return Kernels(seed, children)
    if name == "cli_calls":
        return CliCalls(seed, children)
    raise ValueError(f"unknown workload {name!r}")
