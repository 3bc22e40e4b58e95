"""evcalc benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload simulate_dense --seed 1 --seconds 10 --trace 0

Run it from any directory; it works on the checkout that contains it and
writes only under that checkout's ``.bench_work`` and ``.bench_out``.  The
last line of standard output is the result object; the lines before it are
a stamp and a readable metric table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import REFERENCE_S, Speed
from workloads import ROOT, SRC, WORKLOADS

SETUP_EVERY_S = 1.0  # in the timed loop, set up again once this has passed since the last set-up
MIN_TIMED_OPS = 3  # timed operations per run, however short --seconds is
TIME_UNITS = ("s", "ms", "us")


def declared_metrics() -> dict:
    """name -> declaration, for every metric BENCHMARK.json lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def time_setup(name: str, seed: int, children: workloads.Children):
    """One set-up from a collected heap: the workload and its seconds."""
    gc.collect()
    start = time.perf_counter()
    wl = workloads.make(name, seed, children)
    return wl, time.perf_counter() - start


def median_by_kind(pairs) -> dict:
    """kind -> the median of the values seen for it."""
    seen: dict = {}
    for kind, value in pairs:
        seen.setdefault(kind, []).append(value)
    return {kind: statistics.median(values) for kind, values in seen.items()}


def summarize(ops: list, setups: list) -> dict:
    """End-to-end metrics from (result, factor) pairs of timed operations and
    from scaled set-up seconds; each kind's times are scaled by their factor,
    then taken at their median."""
    wall = median_by_kind((op.kind, op.wall_s * f) for op, f in ops)
    samples = [(s, f) for op, f in ops for s in op.samples]
    seconds = median_by_kind((s.kind, s.seconds * f) for s, f in samples)
    shape = {s.kind: s for s, _ in samples}
    latency = sorted(seconds[k] / shape[k].calls for k in seconds)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall.values()),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op, _ in ops),
        "ops_per_s": sum(shape[k].units for k in seconds) / sum(seconds.values()),
        "call_ms_p50": 1e3 * statistics.median(latency),
        "call_ms_p90": 1e3 * (latency[0] if len(latency) == 1 else statistics.quantiles(latency, n=10, method="inclusive")[8]),
    }


def measure(wl, seconds: float, speed: Speed, setup_again) -> tuple[dict, int, int, list[str]]:
    """A warm-up operation, then operations until ``seconds`` have passed.

    Each operation is bracketed by calibrations (speed.py).  Set-ups are
    spread over the same loop, one before an operation whenever
    SETUP_EVERY_S has passed since the last, and are bracketed alike, so
    ``setup_s`` is measured like every other time.  ``setup_again()``
    returns the seconds of one set-up whose workload is thrown away.
    """
    first = wl.op()
    ops, setups, raw_setups = [], [], []
    last_setup = -math.inf
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < MIN_TIMED_OPS:
        if time.perf_counter() - last_setup > SETUP_EVERY_S:
            raw, factor = speed.bracketed(setup_again)
            raw_setups.append(raw)
            setups.append(raw * factor)
            last_setup = time.perf_counter()
        ops.append(speed.bracketed(wl.op))
    done = [first] + [op for op, _ in ops]
    problems = [p for op in done for p in op.problems][:20]
    info = [
        f"timed operations: {len(ops)} of {len({op.kind for op, _ in ops})} kinds; "
        f"calls: {sum(len(op.samples) for op, _ in ops)} of {len({s.kind for op, _ in ops for s in op.samples})} kinds; "
        f"set-ups: {len(setups)}",
        f"unscaled: wall_s {statistics.median(median_by_kind((op.kind, op.wall_s) for op, _ in ops).values()):.6g} s, "
        f"setup_s {statistics.median(raw_setups):.6g} s",
    ]
    return summarize(ops, setups), sum(op.attempted for op in done), sum(op.failed for op in done), problems + info


def scaled(metrics: dict, declared: dict, factor: float) -> dict:
    """The traced run's times multiplied and rates divided by the speed factor."""
    out = {}
    for name, value in metrics.items():
        unit = declared[name]["unit"]
        out[name] = value * factor if unit in TIME_UNITS else value / factor if unit == "1/s" else value
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "evcalc").glob("*.py")))


def commit() -> str:
    """The checkout's commit from .git, or "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evcalc" / "cli.py").is_file():
        print(f"error: no evcalc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = declared_metrics()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    children = workloads.Children(work)
    speed = Speed()
    try:
        wl, _ = time_setup(args.workload, args.seed, children)  # not reported, like the warm-up operation
        if args.trace:
            import tracing

            metrics, attempted, failed, notes, spans = tracing.traced_run(
                args.workload, wl, args.seed, args.seconds, children, speed)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"spans_{args.workload}_seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
            metrics = scaled(metrics, declared, speed.factor())
        else:
            metrics, attempted, failed, notes = measure(
                wl, args.seconds, speed, lambda: time_setup(args.workload, args.seed, children)[1])
        cal = speed.calibrations
        notes.append(f"speed: {len(cal)} calibrations, {min(cal):.4g}-{max(cal):.4g} s against {REFERENCE_S} s")
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }
    print(json.dumps({"stamp": stamp}))
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        m = declared[name]
        print(f"{name:44s} {value:14.6g} {m['unit']:6s} ({m['better']} is better)")
    print(f"{'failed_frac':44s} {failed / max(attempted, 1):14.6g} {'frac':6s} ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
