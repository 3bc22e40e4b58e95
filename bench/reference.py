"""Independent references the benchmark checks evcalc's outputs against.

Nothing here imports evcalc.  The closed forms come from the formulas in the
project README, and the SplitMix64 copy uses the constants printed there, so
a defect in the library cannot hide inside its own reference.  Every check
returns a list of problems; an operation counts as failed when its list is
not empty.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1
CSV_HEADER = "t,t_plus,bel,pl,l,u,f"

#: Tolerances.  Lower/upper bounds are exact ratios printed with 12
#: significant digits; bel/pl use acceptance criterion 09's fold bound.
LU_TOL = 1e-12
BELPL_TOL = 1e-6
FREQ_TOL = 1e-11
KERNEL_TOL = 1e-12
CONJUGACY_TOL = 1e-9


def splitmix_uniforms(seed: int, n: int):
    """The first n uniforms in [0, 1) of SplitMix64 from ``seed``."""
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        yield (z >> 11) * 2.0 ** -53


def recorded_steps(steps: int, record_every: int) -> list[int]:
    """Row times a trajectory records: 0, every record_every-th step, the last."""
    ts = list(range(0, steps + 1, record_every))
    if ts[-1] != steps:
        ts.append(steps)
    return ts


def faithful_counts(q: float, steps: int, record_every: int) -> list[tuple[int, int]]:
    """(t, t_plus) rows of the frequency-faithful stream: t_plus = floor(q*t)."""
    return [(t, math.floor(q * t)) for t in recorded_steps(steps, record_every)]


def bernoulli_counts(seed: int, q: float, steps: int, record_every: int) -> list[tuple[int, int]]:
    """(t, t_plus) rows of the Bernoulli stream, counted from the SplitMix64 copy."""
    wanted = set(recorded_steps(steps, record_every))
    rows = [(0, 0)]
    t_plus = 0
    for t, u in enumerate(splitmix_uniforms(seed, steps), start=1):
        if u < q:
            t_plus += 1
        if t in wanted:
            rows.append((t, t_plus))
    return rows


def belief(w_plus: float, w_minus: float) -> tuple[float, float]:
    """(bel, pl) of finite weights: ((e^w+ - 1)/D, e^w+/D), D = e^w+ + e^w- - 1."""
    top = max(w_plus, w_minus)
    ep, em, z = math.exp(w_plus - top), math.exp(w_minus - top), math.exp(-top)
    d = ep + em - z
    return (ep - z) / d, ep / d


def lower_upper(w_plus: float, w_total: float) -> tuple[float, float]:
    """[w+/(w+1), (w+ + 1)/(w+1)]."""
    return w_plus / (w_total + 1.0), (w_plus + 1.0) / (w_total + 1.0)


def expected_rows(counts: list[tuple[int, int]]) -> list[tuple]:
    """Reference (t, t_plus, bel, pl, l, u, f) rows under unit weights."""
    rows = []
    for t, tp in counts:
        bel, pl = belief(float(tp), float(t - tp))
        l, u = lower_upper(float(tp), float(t))
        rows.append((t, tp, bel, pl, l, u, None if t == 0 else tp / t))
    return rows


def check_csv(text: str, expected: list[tuple]) -> list[str]:
    """Compare a simulate CSV with the reference rows, row by row."""
    lines = text.split("\n")
    problems = []
    if lines[0] != CSV_HEADER:
        problems.append(f"header {lines[0]!r}")
    if lines[-1] != "":
        problems.append("missing final newline")
    body = lines[1:-1]
    if len(body) != len(expected):
        problems.append(f"{len(body)} rows, expected {len(expected)}")
    for line, (t, tp, bel, pl, l, u, f) in zip(body, expected):
        try:
            ct, ctp, cbel, cpl, cl, cu, cf = line.split(",")
            ok = (
                int(ct) == t
                and int(ctp) == tp
                and abs(float(cbel) - bel) <= BELPL_TOL
                and abs(float(cpl) - pl) <= BELPL_TOL
                and abs(float(cl) - l) <= LU_TOL
                and abs(float(cu) - u) <= LU_TOL
                and (cf == "" if f is None else abs(float(cf) - f) <= FREQ_TOL)
            )
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"row t={t}: {line!r}")
            if len(problems) > 10:
                break
    return problems


# --- kernels ---------------------------------------------------------------


def dempster(m1: tuple, m2: tuple) -> tuple[float, float, float]:
    """Dempster's rule on binary-frame masses (m_h, m_not_h, m_theta)."""
    h1, n1, t1 = m1
    h2, n2, t2 = m2
    h = h1 * h2 + h1 * t2 + t1 * h2
    n = n1 * n2 + n1 * t2 + t1 * n2
    t = t1 * t2
    k = h + n + t
    return h / k, n / k, t / k


def conflict(b1: float, p1: float, b2: float, p2: float) -> float:
    return b1 * (1.0 - p2) + b2 * (1.0 - p1)


def _close(got, want, tol: float, relative: bool = False) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        scale = max(1.0, abs(w)) if relative else 1.0
        if not abs(g - w) <= tol * scale:
            return False
    return True


def check_kernels(inputs: dict, truth: dict, results: dict) -> tuple[int, list[str]]:
    """Check one result per input for every kernel; returns (calls, problems).

    ``results[name][i]`` is the kernel's output on ``inputs[name][i]`` as a
    flat list of floats.  combine_interval is checked against combine_mass
    on the same pairs, so the two forms of the rule must agree.
    """
    problems = []
    calls = 0

    def expect(name, i, ok):
        if not ok:
            problems.append(f"{name}[{i}]: {inputs[name][i]} -> {results[name][i]}")

    for name in inputs:
        if len(results.get(name, ())) != len(inputs[name]):
            problems.append(f"{name}: {len(results.get(name, ()))} results for {len(inputs[name])} inputs")
            return calls, problems
        calls += len(inputs[name])
    for i, (pair, got) in enumerate(zip(inputs["combine_mass"], results["combine_mass"])):
        ref = dempster(pair[:3], pair[3:])
        expect("combine_mass", i, _close(got, ref, KERNEL_TOL))
        via_interval = results["combine_interval"][i]
        expect("combine_interval", i, _close(via_interval, (got[0], 1.0 - got[1]), KERNEL_TOL))
    for i, got in enumerate(results["combine_lu"]):
        expect("combine_lu", i, _close(got, lower_upper(*truth["combine_lu"][i]), KERNEL_TOL))
    for i, got in enumerate(results["belief_from_weights"]):
        expect("belief_from_weights", i, _close(got, belief(*inputs["belief_from_weights"][i]), KERNEL_TOL))
    for i, got in enumerate(results["weights_from_belief"]):
        expect("weights_from_belief", i, _close(got, truth["weights_from_belief"][i], CONJUGACY_TOL, True))
    for i, got in enumerate(results["lu_from_belpl"]):
        wp, wm = truth["lu_from_belpl"][i]
        expect("lu_from_belpl", i, _close(got, lower_upper(wp, wp + wm), CONJUGACY_TOL))
    for i, got in enumerate(results["belpl_from_lu"]):
        wp, wt = truth["belpl_from_lu"][i]
        expect("belpl_from_lu", i, _close(got, belief(wp, wt - wp), CONJUGACY_TOL))
    for i, got in enumerate(results["interval_from_counts"]):
        expect("interval_from_counts", i, _close(got, lower_upper(*inputs["interval_from_counts"][i]), KERNEL_TOL))
    return calls, problems
