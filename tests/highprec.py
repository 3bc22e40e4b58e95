"""High-precision references for evcalc's float arithmetic.

oracle.py checks the combination rule's logic on a general frame in floats;
this module gives the values that the float kernels approximate, computed
with the standard library's decimal module at 61 significant digits (more
than 200 bits), so that a test can state an error in ulps or relative terms:

- belief(wp, wm): the closed form (bel, 1 - pl, pl - bel) of finite weights;
- weights(bel, pl): the finite weights (w+, w-) behind an interval bel < pl;
- counts(l, u): the counts (w+, w) behind a frequency interval l < u;
- dempster(m1, m2): Dempster's rule on two (m_h, m_not_h, m_theta) triples;
- chain(outcomes, s_plus, s_minus): that rule folded over simple supports,
  which is the closed form of the added weights;
- support(w): the simple support 1 - e^-w of a weight;
- logistic(d): the Bayesian point 1 / (1 + e^d) of a weight difference;
- lu_rule(f1, f2): the lower/upper rule on two (l, u) intervals;
- frequency(f): the frequency l / (l + 1 - u) of an (l, u) interval;
- ulps(got, exact): a float's error in units of the float spacing at exact.

Floats and ints convert exactly (Decimal(x) is the float's own binary
value); results are Decimals, and float() of one is correctly rounded.
Arithmetic of a test's own on them belongs inside `with context():`, since
decimal's default context keeps 28 digits.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

DIGITS = 61  # 61 * log2(10) > 202 bits

_ONE = Decimal(1)
_CONTEXT = Context(prec=DIGITS, Emin=-10**6, Emax=10**6)  # e^wp for wp up to about 2e6


def context():
    """A with-statement context for decimal arithmetic at DIGITS digits."""
    return localcontext(_CONTEXT)


def _expm1(w: Decimal) -> Decimal:
    """e^w - 1 to DIGITS digits, also for tiny w, where exp(w) - 1 cancels."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + max(0, -w.adjusted())
        return w.exp() - _ONE


def _log1p(x: Decimal) -> Decimal:
    """ln(1 + x) to DIGITS digits, also for tiny x, where 1 + x rounds x away."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + max(0, -x.adjusted())
        return (_ONE + x).ln()


def support(w) -> Decimal:
    """1 - e^-w, the support earned by evidence of weight w."""
    with context():
        return -_expm1(-Decimal(w))


def logistic(d) -> Decimal:
    """1 / (1 + e^d), the point that weights whose difference w- - w+ is d tend to."""
    with context():
        return _ONE / (_ONE + Decimal(d).exp())


def belief(wp, wm) -> tuple[Decimal, Decimal, Decimal]:
    """(bel, 1 - pl, pl - bel) of finite weights: (e^wp - 1, e^wm - 1, 1) / (e^wp + e^wm - 1)."""
    with context():
        ep1, em1 = _expm1(Decimal(wp)), _expm1(Decimal(wm))
        denom = ep1 + em1 + _ONE
        return ep1 / denom, em1 / denom, _ONE / denom


def weights(bel, pl) -> tuple[Decimal, Decimal]:
    """(w+, w-) = (ln(1 + bel / (pl - bel)), ln(1 + (1 - pl) / (pl - bel))), the inverse of belief()."""
    with context():
        bel, pl = Decimal(bel), Decimal(pl)
        width = pl - bel
        return _log1p(bel / width), _log1p((_ONE - pl) / width)


def counts(l, u) -> tuple[Decimal, Decimal]:
    """(w+, w) = (l / (u - l), (l + 1 - u) / (u - l)), the counts behind the interval (l, u)."""
    with context():
        l, u = Decimal(l), Decimal(u)
        width = u - l
        return l / width, (l + (_ONE - u)) / width  # not 1 - width, which cancels for small counts


def dempster(m1, m2) -> tuple[Decimal, Decimal, Decimal]:
    """Dempster's rule on mass triples (m_h, m_not_h, m_theta): the pooled triple over its sum."""
    with context():
        h1, n1, t1 = map(Decimal, m1)
        h2, n2, t2 = map(Decimal, m2)
        h, nh, th = h1 * h2 + h1 * t2 + t1 * h2, n1 * n2 + n1 * t2 + t1 * n2, t1 * t2
        total = h + nh + th
        return h / total, nh / total, th / total


def lu_rule(f1, f2) -> tuple[Decimal, Decimal]:
    """The lower/upper rule on intervals (l, u) of widths i = u - l:
    l = (l1*i2 + l2*i1) / (i1 + i2 - i1*i2) and u = l + i1*i2 / (same)."""
    with context():
        l1, u1 = map(Decimal, f1)
        l2, u2 = map(Decimal, f2)
        i1, i2 = u1 - l1, u2 - l2
        denom = i1 + i2 - i1 * i2
        l = (l1 * i2 + l2 * i1) / denom
        return l, l + i1 * i2 / denom


def frequency(f) -> Decimal:
    """l / (l + 1 - u), the frequency w+ / w behind the interval (l, u)."""
    with context():
        l, u = map(Decimal, f)
        return l / (l + (_ONE - u))  # 1 - u first: l + 1 would round a tiny l away


def chain(outcomes, s_plus: float, s_minus: float):
    """(bel, 1 - pl, pl - bel) after each outcome of Dempster's rule folded from
    the vacuous interval over the simple support s_plus for H (a positive
    outcome) or s_minus against H (a negative one).

    A support s has weight -ln(1 - s), so this is belief() of the added
    weights, with e^wp and e^wm kept as running products.
    """
    with context():
        e_plus, e_minus = _ONE / (_ONE - Decimal(s_plus)), _ONE / (_ONE - Decimal(s_minus))
    ep = em = _ONE
    for positive in outcomes:
        with context():
            if positive:
                ep *= e_plus
            else:
                em *= e_minus
            denom = ep + em - _ONE
            parts = (ep - _ONE) / denom, (em - _ONE) / denom, _ONE / denom
        yield parts


def ulps(got: float, exact: Decimal) -> float:
    """|got - exact| over the spacing of the floats around exact."""
    near = float(exact)
    # exact lies in near's binade unless it rounded up onto a power of two
    spacing = math.ulp(math.nextafter(near, 0.0) if abs(Decimal(near)) > abs(exact) else near)
    with context():
        return float(abs(Decimal(got) - exact) / Decimal(spacing))
