"""The traced run: spans around the benchmark's own calls into each layer.

Nothing inside ``src`` is instrumented.  A span records name, layer, start,
end, parent, the operation it belongs to and the number of calls it
covers; spans stay in memory and are written when the run ends.  The run
has three parts:

1. the workload's operation replayed in this process, alternately traced
   and untraced (the median ratio of adjacent pairs gives
   ``trace.overhead_frac``);
2. fixed probes of every layer on inputs made from the same seed, so each
   traced run reports every per-layer metric;
3. untraced child operations, whose wall time ``trace.unattributed_frac``
   compares with the replay's stage spans plus ``cli.startup_ms``.

Every time is the best of its repetitions, scaled by the run's best
calibration (speed.py); the probes last milliseconds, too short for the
end-to-end run's medians of bracketed steps.
``<layer>.calls`` and ``<layer>.busy_s`` sum the fastest traced replay and
the fixed probes, so they do not grow with the replays that fit into
``--seconds``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from contextlib import contextmanager

import reference
import workloads
from kernel_batch import run_batch
from speed import Speed
from workloads import CLI, Children, Simulate, import_evcalc, no_span

LAYERS = ("cli", "convergence", "rng", "dempster", "binary_frame", "evidence_scale", "lower_upper")
MIN_REPLAYS = 3  # traced and untraced replays each, however short --seconds is
PROBE_REPEATS = 5
CHILD_PROBES = 5
REFERENCE_STEPS = 20_000  # stage replay for workloads that run no simulate process
RNG_DRAWS = 100_000
IMPORT_PROBE = "import time; t = time.perf_counter(); import evcalc.cli; print(time.perf_counter() - t)"
STARTUP_PROBE = ["convert", "--from", "counts", "--to", "counts", '{"w_plus": 1, "w_total": 2}']


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str, layer: str, calls: int = 1):
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._ops += 1
        rec = {
            "id": len(self.spans),
            "op": parent["op"] if parent else self._ops,
            "parent": parent["id"] if parent else None,
            "name": name,
            "layer": layer,
            "calls": calls,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def roots(spans: list[dict]) -> set[int]:
    """Ids of the operations' top spans; their children are the stages."""
    return {s["id"] for s in spans if s["parent"] is None}


def layer_totals(spans: list[dict]) -> dict:
    """Per layer: calls, and busy seconds as span self time (children excluded).

    ``spans`` must hold the parent of each span it holds."""
    covered = dict.fromkeys((s["id"] for s in spans), 0.0)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"], out[f"{layer}.busy_s"] = 0, 0.0
    for s in spans:
        if s["layer"] in LAYERS:
            out[f"{s['layer']}.calls"] += s["calls"]
            out[f"{s['layer']}.busy_s"] += duration(s) - covered[s["id"]]
    return out


def per_call(spans: list[dict], name: str) -> float:
    """Seconds per call of the fastest span named ``name`` (best of N)."""
    return min(duration(s) / s["calls"] for s in spans if s["name"] == name)


def best_of(spans: list[dict], name: str) -> float:
    return min(duration(s) for s in spans if s["name"] == name)


# --- replays: one operation of each workload, in this process ---------------


def replay_simulate(ev, wl: Simulate, span) -> tuple[int, list[str]]:
    """``_cmd_simulate``'s stages; explicit outcomes keep generation out of the fold."""
    spec = ev.StreamSpec(mode=wl.mode, steps=wl.steps, q=wl.q, seed=wl.sim_seed)
    unit = ev.UnitWeights()
    with span("simulate", "bench"):
        with span("generate_stream", "convergence"):
            outcomes = ev.generate_stream(spec)
        with span("run_dual_track", "convergence"):
            traj = ev.run_dual_track(ev.StreamSpec(mode="explicit", outcomes=outcomes), unit, wl.record_every)
        with span("to_csv", "convergence"):
            text = traj.to_csv()
        with span("write", "cli"):
            with open(wl.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        with span("check_limits", "convergence"):
            ev.check_limits(traj, spec, unit)
    return 1, wl.check(0, text)


def replay_kernels(ev, wl, span) -> tuple[int, list[str]]:
    with span("kernel_batch", "bench"):
        results, _ = run_batch(ev, wl.inputs, span)
    return wl.check(results)


def replay_cli(ev, wl, span) -> tuple[int, list[str]]:
    problems = []
    for call in wl.calls:
        with span(call.name, "bench"):
            code, result = workloads.run_inprocess(ev, call, span)
        problems += workloads.check_call(call, code, json.dumps(result))
    return len(wl.calls), problems


REPLAYS = {
    "simulate_dense": replay_simulate,
    "simulate_sparse": replay_simulate,
    "kernels": replay_kernels,
    "cli_calls": replay_cli,
}


# --- probes -----------------------------------------------------------------


def probe_children(tr: Tracer, children: Children) -> tuple[dict, int, list[str]]:
    """Interpreter start, import of evcalc.cli, and a minimal convert call."""
    problems = []
    interp, imports, startup = [], [], []
    for _ in range(CHILD_PROBES):
        with tr.span("interpreter", "cli"):
            child = children.run([sys.executable, "-c", "pass"])
        interp.append(child.wall_s)
        with tr.span("import", "cli"):
            child = children.run([sys.executable, "-c", IMPORT_PROBE])
        try:
            imports.append(float(child.stdout))
        except ValueError:
            problems.append(f"import probe: {child.stderr[-300:]!r}")
        with tr.span("startup", "cli"):
            child = children.run(CLI + STARTUP_PROBE)
        startup.append(child.wall_s)
        if child.code != 0 or child.stdout.strip() != '{"w_plus": 1.0, "w_total": 2.0}':
            problems.append(f"startup probe: exit {child.code}, {child.stdout!r}")
    metrics = {
        "cli.interpreter_ms": 1e3 * min(interp),
        "cli.import_ms": 1e3 * min(imports, default=0.0),  # 0 only when every probe failed
        "cli.startup_ms": 1e3 * min(startup),
    }
    return metrics, 3 * CHILD_PROBES, problems


def timed_loop(tr: Tracer, name: str, layer: str, fn, items) -> list:
    """Call fn on every item, PROBE_REPEATS times, one span per pass."""
    for _ in range(PROBE_REPEATS):
        with tr.span("probe." + name, layer, calls=len(items)):
            out = [fn(*item) for item in items]
    return out


def probe_layers(ev, tr: Tracer, seed: int) -> dict:
    """Microseconds per call of each layer's public functions on pre-built values."""
    inputs, _ = workloads.kernel_inputs(seed)
    bi, fi = ev.BeliefInterval, ev.FrequencyInterval
    pairs = inputs["combine_interval"]
    halves = [p[:2] for p in pairs] + [p[2:] for p in pairs]
    intervals = timed_loop(tr, "BeliefInterval", "binary_frame", bi, halves)
    masses = timed_loop(tr, "MassAssignment", "binary_frame", ev.MassAssignment,
                        [m[:3] for m in inputs["combine_mass"]] + [m[3:] for m in inputs["combine_mass"]])
    n = len(pairs)
    iv_pairs = list(zip(intervals[:n], intervals[n:]))
    high = [i for i, p in enumerate(pairs) if reference.conflict(*p) > 0.5]
    high_set = set(high)
    timed_loop(tr, "combine_interval", "dempster", ev.combine_interval,
               [iv_pairs[i] for i in range(n) if i not in high_set])
    timed_loop(tr, "combine_interval_hc", "dempster", ev.combine_interval, [iv_pairs[i] for i in high])
    timed_loop(tr, "combine_mass", "dempster", ev.combine_mass, list(zip(masses[:n], masses[n:])))

    weights = [(ev.EvidenceWeights.finite(*w),) for w in inputs["belief_from_weights"]]
    timed_loop(tr, "belief_from_weights", "evidence_scale", ev.belief_from_weights, weights)
    beliefs = [(bi(*b),) for b in inputs["weights_from_belief"]]
    timed_loop(tr, "weights_from_belief", "evidence_scale", ev.weights_from_belief, beliefs)

    lu = inputs["combine_lu"]
    lu_pairs = [(fi(*x[:2]), fi(*x[2:])) for x in lu]
    timed_loop(tr, "combine_lu", "lower_upper", ev.combine_lu, lu_pairs)
    timed_loop(tr, "lu_from_belpl", "lower_upper", ev.lu_from_belpl, [(bi(*b),) for b in inputs["lu_from_belpl"]])
    freq_inputs = [(fi(*x),) for x in inputs["belpl_from_lu"]]
    timed_loop(tr, "belpl_from_lu", "lower_upper", ev.belpl_from_lu, freq_inputs)
    counts = [(ev.EvidenceCounts(*c),) for c in inputs["interval_from_counts"]]
    timed_loop(tr, "interval_from_counts", "lower_upper", ev.interval_from_counts, counts)
    timed_loop(tr, "frequency", "lower_upper", ev.frequency, freq_inputs)

    us = {
        "binary_frame.belief_interval_us": "BeliefInterval",
        "binary_frame.mass_assignment_us": "MassAssignment",
        "dempster.combine_interval_us": "combine_interval",
        "dempster.combine_interval_hc_us": "combine_interval_hc",
        "dempster.combine_mass_us": "combine_mass",
        "evidence_scale.belief_from_weights_us": "belief_from_weights",
        "evidence_scale.weights_from_belief_us": "weights_from_belief",
        "lower_upper.combine_lu_us": "combine_lu",
        "lower_upper.lu_from_belpl_us": "lu_from_belpl",
        "lower_upper.belpl_from_lu_us": "belpl_from_lu",
        "lower_upper.interval_from_counts_us": "interval_from_counts",
        "lower_upper.frequency_us": "frequency",
    }
    metrics = {metric: 1e6 * per_call(tr.spans, "probe." + name) for metric, name in us.items()}
    metrics["dempster.high_conflict_share"] = len(high) / n
    metrics["dempster.high_conflict_base"] = n
    return metrics


def probe_rng(ev, tr: Tracer, seed: int) -> tuple[float, list[str]]:
    """Microseconds per SplitMix64 uniform, and whether the draws match the copy."""
    draws = []
    for _ in range(PROBE_REPEATS):
        rng = ev.SplitMix64(seed)
        with tr.span("uniform", "rng", calls=RNG_DRAWS):
            draws = [rng.uniform() for _ in range(RNG_DRAWS)]
    ok = draws == list(reference.splitmix_uniforms(seed, RNG_DRAWS))
    return 1e6 * per_call(tr.spans, "uniform"), [] if ok else ["SplitMix64 draws differ from the reference copy"]


def probe_json_in(ev, tr: Tracer, seed: int) -> float:
    """Microseconds per value to parse a stdin array and build the values."""
    calls = {c.name: c for c in workloads.cli_call_list(seed)}
    for _ in range(PROBE_REPEATS):
        for name, parse in (("combine_dempster_stdin", ev.BeliefInterval.from_dict),
                            ("combine_lu_stdin", ev.FrequencyInterval.from_dict)):
            text = calls[name].stdin
            with tr.span("json_in_probe", "cli", calls=len(calls[name].values)):
                [parse(v) for v in json.loads(text)]
    return 1e6 * per_call(tr.spans, "json_in_probe")


def stage_metrics(ev, tr: Tracer, stage: Simulate, spans: list[dict]) -> dict:
    """The simulate pipeline's per-stage costs, from the replay's spans."""
    other = "bernoulli" if stage.mode == "frequency_faithful" else "frequency_faithful"
    spec = ev.StreamSpec(mode=other, steps=stage.steps, q=stage.q, seed=stage.sim_seed)
    for _ in range(MIN_REPLAYS):
        with tr.span(f"generate_stream_{other}", "convergence"):
            ev.generate_stream(spec)
    rows = len(stage.expected)
    gen = {stage.mode: best_of(spans, "generate_stream"), other: best_of(tr.spans, f"generate_stream_{other}")}
    return {
        "cli.write_ms": 1e3 * best_of(spans, "write"),
        "convergence.generate_us_per_step.bernoulli": 1e6 * gen["bernoulli"] / stage.steps,
        "convergence.generate_us_per_step.faithful": 1e6 * gen["frequency_faithful"] / stage.steps,
        "convergence.fold_us_per_step": 1e6 * best_of(spans, "run_dual_track") / stage.steps,
        "convergence.rows_recorded": rows,
        "convergence.csv_bytes": stage.out.stat().st_size,
        "convergence.to_csv_us_per_row": 1e6 * best_of(spans, "to_csv") / rows,
    }


def traced_run(name: str, wl, seed: int, seconds: float, children: Children,
               speed: Speed) -> tuple[dict, int, int, list[str], list[dict]]:
    ev = import_evcalc()
    tr = Tracer()
    replay = REPLAYS[name]
    attempted = failed = 0
    problems: list[str] = []

    def tally(result: tuple[int, list[str]]) -> None:
        nonlocal attempted, failed
        n, probs = result
        attempted += n
        failed += min(len(probs), n)
        problems.extend(probs)

    tally(replay(ev, wl, no_span))  # warm-up: caches fill, lazy set-up finishes
    traced, untraced, stages, bounds = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_REPLAYS:
        speed.calibrate_if_stale()
        start = time.perf_counter()
        tally(replay(ev, wl, no_span))
        untraced.append(time.perf_counter() - start)
        mark = len(tr.spans)
        start = time.perf_counter()
        tally(replay(ev, wl, tr.span))
        traced.append(time.perf_counter() - start)
        bounds.append((mark, len(tr.spans)))
        stages.append(sum(duration(s) for s in tr.spans[mark:] if s["parent"] in roots(tr.spans[mark:])))
    replay_spans = list(tr.spans)
    speed.calibrate_if_stale()

    if isinstance(wl, Simulate):
        stage, stage_spans = wl, replay_spans
    else:  # a short simulate replay, so the convergence metrics exist for every workload
        q = round(random.Random(seed).uniform(0.6, 0.8), 6)
        stage = Simulate("frequency_faithful", q, REFERENCE_STEPS, 1, 0, children)
        mark = len(tr.spans)
        for _ in range(MIN_REPLAYS):
            tally(replay_simulate(ev, stage, tr.span))
        stage_spans = tr.spans[mark:]
    metrics = stage_metrics(ev, tr, stage, stage_spans)

    speed.calibrate_if_stale()
    child_metrics, n, probs = probe_children(tr, children)
    metrics.update(child_metrics)
    tally((n, probs))
    metrics.update(probe_layers(ev, tr, seed))
    metrics["rng.uniform_us"], probs = probe_rng(ev, tr, seed)
    tally((1, probs))
    metrics["cli.json_in_us_per_value"] = probe_json_in(ev, tr, seed)

    speed.calibrate_if_stale()
    # untraced child operations: one simulate or kernel-batch process, or one
    # pass over every CLI call, against the replay of the same work
    per_round = len(wl.calls) if name == "cli_calls" else 1
    walls = []
    for _ in range(2):
        ops = [wl.op() for _ in range(per_round)]
        walls.append(sum(op.wall_s for op in ops))
        for op in ops:
            tally((op.attempted, op.problems))
    attributed = min(stages) + per_round * metrics["cli.startup_ms"] / 1e3
    metrics["trace.unattributed_frac"] = 1.0 - attributed / min(walls)
    # adjacent replays share the machine's speed at that moment
    metrics["trace.overhead_frac"] = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    # one replay, the fastest, plus the fixed probes: the totals do not grow
    # with the number of replays that fit into --seconds
    lo, hi = bounds[traced.index(min(traced))]
    metrics.update(layer_totals(tr.spans[lo:hi] + tr.spans[len(replay_spans):]))
    speed.calibrate_if_stale()
    notes = problems[:20] + [f"replays: {len(traced)} traced, {len(untraced)} untraced", f"spans: {len(tr.spans)}"]
    return metrics, attempted, failed, notes, tr.spans
