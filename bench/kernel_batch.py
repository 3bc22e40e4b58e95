"""The kernels workload: a fixed batch of evcalc library calls, one process.

Usage (with the repository's ``src`` on PYTHONPATH):

    python bench/kernel_batch.py INPUTS_JSON RESULTS_JSON

Each call builds its argument values from raw floats, as a library caller
does, then calls the kernel, so value validation is part of the work.  One
untimed pass records every output for checking; PASSES timed passes follow,
one timed loop per kernel per pass.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

PASSES = 30

#: kernel -> (evcalc layer, output fields flattened for checking)
KERNELS = {
    "combine_interval": ("dempster", ("bel", "pl")),
    "combine_mass": ("dempster", ("m_h", "m_not_h", "m_theta")),
    "combine_lu": ("lower_upper", ("l", "u")),
    "belief_from_weights": ("evidence_scale", ("bel", "pl")),
    "weights_from_belief": ("evidence_scale", ("w_plus", "w_minus")),
    "lu_from_belpl": ("lower_upper", ("l", "u")),
    "belpl_from_lu": ("lower_upper", ("bel", "pl")),
    "interval_from_counts": ("lower_upper", ("l", "u")),
}


def call_table(ev) -> dict:
    """One callable per kernel, taking the raw floats of one input."""
    bi, fi = ev.BeliefInterval, ev.FrequencyInterval
    return {
        "combine_interval": lambda b1, p1, b2, p2: ev.combine_interval(bi(b1, p1), bi(b2, p2)),
        "combine_mass": lambda h1, n1, t1, h2, n2, t2: ev.combine_mass(
            ev.MassAssignment(h1, n1, t1), ev.MassAssignment(h2, n2, t2)
        ),
        "combine_lu": lambda l1, u1, l2, u2: ev.combine_lu(fi(l1, u1), fi(l2, u2)),
        "belief_from_weights": lambda wp, wm: ev.belief_from_weights(ev.EvidenceWeights.finite(wp, wm)),
        "weights_from_belief": lambda b, p: ev.weights_from_belief(bi(b, p)),
        "lu_from_belpl": lambda b, p: ev.lu_from_belpl(bi(b, p)),
        "belpl_from_lu": lambda l, u: ev.belpl_from_lu(fi(l, u)),
        "interval_from_counts": lambda wp, wt: ev.interval_from_counts(ev.EvidenceCounts(wp, wt)),
    }


def _no_span(*_args, **_kwargs):
    return nullcontext()


def run_batch(ev, inputs: dict, span=_no_span) -> tuple[dict, dict]:
    """Run the batch; returns (outputs of the untimed pass, loop seconds per kernel)."""
    table = call_table(ev)
    results = {}
    for name, (layer, fields) in KERNELS.items():
        fn = table[name]
        with span(name, layer, calls=len(inputs[name])):
            outs = [fn(*args) for args in inputs[name]]
        results[name] = [[getattr(o, f) for f in fields] for o in outs]
    loop_s = {name: [] for name in KERNELS}
    clock = time.perf_counter
    for _ in range(PASSES):
        for name, (layer, _fields) in KERNELS.items():
            fn, batch = table[name], inputs[name]
            with span(name, layer, calls=len(batch)):
                start = clock()
                for args in batch:
                    fn(*args)
                loop_s[name].append(clock() - start)
    return results, loop_s


def main(argv: list[str]) -> int:
    import evcalc

    inputs_path, results_path = argv
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    results, loop_s = run_batch(evcalc, inputs)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"results": results, "loop_s": loop_s}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
