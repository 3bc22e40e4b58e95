"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single [acceptance] PASS/FAIL line (visible with -s or
on failure).  Randomized criteria draw from the pinned SplitMix64 generator
with a fixed seed, so every run checks the identical sample set.
"""

import math
import time

import pytest

from evcalc import (
    BeliefInterval,
    ConflictReport,
    EvidenceCounts,
    EvidenceWeights,
    FrequencyInterval,
    MassAssignment,
    SplitMix64,
    StreamSpec,
    UnitWeights,
    belief_from_weights,
    bernoulli_combine,
    combine_interval,
    combine_lu,
    combine_mass,
    combine_points,
    combine_with_point,
    interval_from_counts,
    lu_from_belpl,
    multiply_combine,
    run_dual_track,
    weights_from_belief,
)
from oracle import GeneralMass, combine_general

SEED = 2024
UNIT = UnitWeights()


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_mass(u) -> MassAssignment:
    a, b, c = u(), u(), u()
    total = a + b + c
    if total == 0.0:
        return MassAssignment.vacuous()
    return MassAssignment(a / total, b / total, c / total)


def test_criterion_01_defect_reproduction():
    started = time.perf_counter()
    traj = run_dual_track(StreamSpec(mode="frequency_faithful", steps=2000, q=0.7), UNIT)
    elapsed = time.perf_counter() - started
    final = traj.final
    ok = (
        final.ds_bel >= 0.999
        and final.ds_pl >= 0.999
        and abs(final.lu_l - 0.7) <= 0.001
        and abs(final.lu_u - 0.7) <= 0.001
        and elapsed < 1.0
    )
    report(
        "01 defect reproduction (q=0.7, 2000 faithful steps)",
        ok,
        f"bel={final.ds_bel:.6f} pl={final.ds_pl:.6f} |l-q|={abs(final.lu_l - 0.7):.2e} "
        f"|u-q|={abs(final.lu_u - 0.7):.2e} runtime={elapsed * 1000:.0f}ms",
    )


def test_criterion_02_preserved_chances():
    worst = 0.0
    for q in (0.0, 0.5, 1.0):
        traj = run_dual_track(StreamSpec(mode="frequency_faithful", steps=2000, q=q), UNIT)
        worst = max(worst, abs(traj.final.ds_bel - q))
    report("02 preserved chances (q in {0, 0.5, 1})", worst <= 1e-3, f"max |bel - q| = {worst:.2e}")


def test_criterion_03_delta_limit():
    traj = run_dual_track(StreamSpec(mode="delta_profile", steps=10_000, delta=2), UNIT)
    target = 1.0 / (1.0 + math.exp(2.0))  # 0.119202922...
    gap = abs(traj.final.ds_bel - target)
    report("03 delta limit (delta=2, 1e4 steps)", gap <= 1e-6, f"|bel - 1/(1+e^2)| = {gap:.2e}")


def test_criterion_04_rule_conjugacy():
    u = SplitMix64(SEED).uniform
    worst = 0.0
    for _ in range(10_000):
        x1 = belief_from_weights(EvidenceWeights.finite(8 * u(), 8 * u()))
        x2 = belief_from_weights(EvidenceWeights.finite(8 * u(), 8 * u()))
        lhs = lu_from_belpl(combine_interval(x1, x2))
        rhs = combine_lu(lu_from_belpl(x1), lu_from_belpl(x2))
        worst = max(worst, abs(lhs.l - rhs.l), abs(lhs.u - rhs.u))
    report("04 rule conjugacy (1e4 finite-weight pairs)", worst <= 1e-9, f"max deviation = {worst:.2e}")


def test_criterion_05_oracle_equivalence():
    u = SplitMix64(SEED).uniform
    worst = 0.0
    for _ in range(10_000):
        m1, m2 = random_mass(u), random_mass(u)
        direct = combine_mass(m1, m2)
        oracle = combine_general(GeneralMass.from_binary(m1), GeneralMass.from_binary(m2)).to_binary()
        worst = max(
            worst,
            abs(direct.m_h - oracle.m_h),
            abs(direct.m_not_h - oracle.m_not_h),
            abs(direct.m_theta - oracle.m_theta),
        )
    report("05 oracle equivalence (1e4 mass pairs)", worst <= 1e-12, f"max deviation = {worst:.2e}")


def test_criterion_06_weight_belief_inverse_pair():
    # Round trip w -> interval -> w with per-component relative error
    # (absolute at a zero component).  Rebuilding 1-pl and pl-bel from the
    # stored (bel, pl) pair would cancel near 1 and lose e^{max(w+, w-)} in
    # relative precision; an interval built from weights instead carries its
    # complement and width as computed, each to a few ulps relative, and
    # weights_from_belief reads w = log1p(part / width) from them.  The
    # worst error on this sample is about 2e-15, inside the stated bound.
    u = SplitMix64(SEED).uniform
    worst = 0.0
    for _ in range(10_000):
        w = EvidenceWeights.finite(20 * u(), 20 * u())
        back = weights_from_belief(belief_from_weights(w))
        for want, got in ((w.w_plus, back.w_plus), (w.w_minus, back.w_minus)):
            err = abs(got - want) / want if want else abs(got - want)
            worst = max(worst, err)
    report(
        "06 weight/belief inverse pair (uniform [0,20]^2)",
        worst <= 1e-9,
        f"max relative error = {worst:.2e}",
    )


def test_criterion_07_interval_rule_is_count_addition():
    u = SplitMix64(SEED).uniform
    worst = 0.0
    for _ in range(10_000):
        t1, t2 = 1000 * u(), 1000 * u()
        c1 = EvidenceCounts(t1 * u(), t1)
        c2 = EvidenceCounts(t2 * u(), t2)
        pooled = combine_lu(interval_from_counts(c1), interval_from_counts(c2))
        direct = interval_from_counts(c1 + c2)
        worst = max(worst, abs(pooled.l - direct.l), abs(pooled.u - direct.u))
    report("07 interval rule = count addition (1e4 pairs)", worst <= 1e-12, f"max deviation = {worst:.2e}")


def test_criterion_08_special_cases():
    u = SplitMix64(SEED).uniform
    worst_bernoulli = worst_multiplicative = 0.0
    for _ in range(10_000):
        s1, s2 = u(), u()
        pooled = combine_interval(BeliefInterval(s1, 1.0), BeliefInterval(s2, 1.0))
        worst_bernoulli = max(
            worst_bernoulli, abs(pooled.bel - bernoulli_combine(s1, s2)), abs(pooled.pl - 1.0)
        )
        b1, b2 = 0.001 + 0.998 * u(), 0.001 + 0.998 * u()
        bayes = combine_interval(BeliefInterval(b1, b1), BeliefInterval(b2, b2))
        worst_multiplicative = max(worst_multiplicative, abs(bayes.bel - multiply_combine(b1, b2)))
    ok = worst_bernoulli <= 1e-12 and worst_multiplicative <= 1e-12
    report(
        "08 Bernoulli and multiplicative special cases",
        ok,
        f"bernoulli dev = {worst_bernoulli:.2e}, multiplicative dev = {worst_multiplicative:.2e}",
    )


def test_criterion_09_track_agreement():
    worst = 0.0
    for spec in (
        StreamSpec(mode="frequency_faithful", steps=10_000, q=0.7),
        StreamSpec(mode="delta_profile", steps=10_000, delta=2),
    ):
        traj = run_dual_track(spec, UNIT)
        for row in traj.rows[1:]:
            direct = belief_from_weights(EvidenceWeights.finite(float(row.t_plus), float(row.t - row.t_plus)))
            worst = max(worst, abs(row.ds_bel - direct.bel), abs(row.ds_pl - direct.pl))
    report("09 fold vs direct weight map over 1e4 steps", worst <= 1e-6, f"max gap = {worst:.2e}")


def test_criterion_10_infinite_evidence_protocol():
    point = FrequencyInterval.point(0.51)
    interval = FrequencyInterval(0.2, 0.9)
    unchanged = combine_with_point(point, interval) == point
    deduplicated = combine_points(FrequencyInterval.point(0.5), FrequencyInterval.point(0.5)) == FrequencyInterval.point(0.5)
    reported = combine_points(point, FrequencyInterval.point(0.99)) == ConflictReport(0.51, 0.99)
    ok = unchanged and deduplicated and reported
    report(
        "10 infinite-evidence protocol",
        ok,
        f"point unchanged={unchanged}, duplicates removed={deduplicated}, conflict reported={reported}",
    )
