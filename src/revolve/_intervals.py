"""Interval arithmetic, written once for Python floats and numpy arrays:
the helpers of ``ExprAst.interval`` and ``defined_interval``, and of
``ExprAst.intervals`` and ``defined_intervals``, which take arrays of
interval ends.

An interval is a pair (lo, hi) with lo <= hi, possibly infinite (Moore,
Kearfott and Cloud, *Introduction to Interval Analysis*, SIAM 2009).  Each
helper returns an interval holding the scalar evaluator's result at every
choice of operand points where that returns.  Results round outward: one
step of nextafter for the correctly rounded + - * and /, two for the
library's functions and pow, which are faithful (within one ulp) but need
not be monotone to the last bit; a function's computed extreme of +-1 is
exact.  Operands are clipped to a function's domain first; a result the
helpers cannot bound (a pole, a divisor interval that holds 0, an
overflow) is (-inf, inf).  Past an infinite or NaN end there is no promise.

Each rule is written once (``_helpers``) over a namespace of primitives:
``_FLOATS``, built from math, or ``_arrays()``, built on first use from
numpy, which only then is imported.  A flag is a bool or a bool array:
``some`` says whether it holds anywhere, and a branch that no box takes is
skipped.  numpy's functions may part from math's by an ulp, so an array end
may lie an ulp inside the float one.
"""

from __future__ import annotations

import functools
import math
import operator
from math import inf, isnan, nan, nextafter
from types import SimpleNamespace

from .expr import _table

_WHOLE = (-inf, inf)

# Each function's domain, where it is not the whole line.
_DOMAINS = {"sqrt": (0.0, inf), "asin": (-1.0, 1.0), "acos": (-1.0, 1.0), "log": (0.0, inf)}


def _helpers(ns, defined: bool) -> dict:
    """The helpers over the primitives of ``ns``; if ``defined``, the
    defined-only ones."""
    pi = math.pi
    where, some, no, out, extremes = ns.where, ns.some, ns.no, ns.out, ns.extremes
    isfinite, isinf, floor, powers = ns.isfinite, ns.isinf, ns.floor, ns.powers

    def whole_where(bad, lo, hi):
        return (where(bad, -inf, lo), where(bad, inf, hi)) if some(bad) else (lo, hi)

    def mul(x, y):
        (a, b), (c, d) = x, y
        ps = [a * c, a * d, b * c, b * d]
        lo, hi = extremes(ps, 1)
        if some(lo != lo):  # 0 * inf is NaN; a real 0 times any real is 0
            lo, hi = extremes([where(p == p, p, 0.0) for p in ps], 1)
        return lo, hi

    def div(x, y):
        (a, b), (c, d) = x, y
        zero = no((c > 0.0) | (d < 0.0))  # the divisor can be 0, or is NaN
        if some(zero):  # the quotients there are not used
            c, d = where(zero, 1.0, c), where(zero, 1.0, d)
        lo, hi = extremes([a / c, a / d, b / c, b / d], 1)
        return whole_where(zero | (lo != lo), lo, hi)  # NaN: inf / inf

    def pow_points(ps, qs):
        """Enclosure of pow over points (p, q) where it takes its extremes."""
        values = powers(ps, qs)
        lo, hi = extremes(values, 2)
        if some(no(isfinite(hi - lo))):  # an end is not finite (or hi - lo overflows)
            # inf from finite operands (a pole, an overflow), NaN from others
            # (a negative base, a fractional power): pow fails there.
            fails = [(isinf(v) & isfinite(p) & isfinite(q))
                     | ((v != v) & (p == p) & (q == q)) for p, q, v in zip(ps, qs, values)]
            lo, hi = whole_where(functools.reduce(operator.or_, fails), lo, hi)
        return lo, hi

    def integer(c, d):
        if type(c) is float and type(d) is float:  # a float box, or a constant exponent
            return c == d and c.is_integer()
        return (c == d) & (floor(c) == c) & isfinite(c)

    def whole_power(a, b, c):  # x^n is monotone on each side of 0; any base has a value
        lo, hi = pow_points((a, b), (c, c))
        even = (c > 0.0) & (c % 2.0 == 0.0)
        if some(even):
            lo = where(even & (a < 0.0) & (0.0 < b), 0.0, lo)
        if some(c < 0.0):
            lo, hi = whole_where((c < 0.0) & (a <= 0.0) & (0.0 <= b), lo, hi)
        return lo, hi

    def base_at_least_0(a, b, c, d):
        # A negative base has values at the integers in y alone; a base >= 0
        # is monotone in each operand, so the extremes are at corners.
        lo, hi = where(0.0 > a, 0.0, a), where(0.0 > b, 0.0, b)
        return whole_where((a < 0.0) & (c != d), *pow_points((lo, lo, hi, hi), (c, d, c, d)))

    def ipow(x, y):
        (a, b), (c, d) = x, y
        whole = integer(c, d)
        if not some(no(whole)):
            return whole_power(a, b, c)
        if not some(whole):
            return base_at_least_0(a, b, c, d)
        return tuple(map(where, (whole, whole), whole_power(a, b, c), base_at_least_0(a, b, c, d)))

    def monotone(name, rising=True):
        fn, (low, high) = getattr(ns, name), _DOMAINS.get(name, _WHOLE)

        def enclose(x):
            a, b = x
            if low > -inf:
                a, b = where(low > a, low, a), where(low > b, low, b)
            if high < inf:
                a, b = where(high < a, high, a), where(high < b, high, b)
            if not rising:
                a, b = b, a
            fa, fb = fn(a), fn(b)
            if some(no(isfinite(fa) & isfinite(fb))):
                # Where the function fails (an overflow, log(0)), the side is unbounded.
                fa = where(isfinite(a) & no(isfinite(fa)), -inf, fa)
                fb = where(isfinite(b) & no(isfinite(fb)), inf, fb)
            return out(fa, fb, 2)

        return enclose

    def hits(a, b, phase, period):
        """Whether some phase + k*period may lie in [a, b]; when rounding
        leaves it unsure, or |a| + |b| overflows, it does."""
        slack = 1e-12 * (1.0 + abs(a) + abs(b))
        k = floor((b + slack - phase) / period)
        return (slack == inf) | (phase + k * period >= a - slack)

    def periodic(fn, peak):
        """sin or cos: 1 at peak + 2k*pi, -1 half a period on, monotone between."""
        trough, period = peak + pi, 2.0 * pi

        def enclose(x):
            a, b = x
            lo, hi = extremes((fn(a), fn(b)), 2)
            wide = no(b - a < period)
            return (where(wide | hits(a, b, trough, period), -1.0, lo),
                    where(wide | hits(a, b, peak, period), 1.0, hi))

        return enclose

    def itan(x):
        a, b = x
        pole = no(b - a < pi) | hits(a, b, 0.5 * pi, pi)  # a pole may lie inside
        return whole_where(pole, *out(ns.tan(a), ns.tan(b), 2))

    def iabs(x):
        a, b = x
        return (where(a >= 0.0, a, where(b <= 0.0, -b, 0.0)),
                where(a >= 0.0, b, where(b <= 0.0, -a, where(b > -a, b, -a))))

    helpers = {
        "const": lambda v: (v, v), "neg": lambda x: (-x[1], -x[0]),
        "+": lambda x, y: out(x[0] + y[0], x[1] + y[1], 1),
        "-": lambda x, y: out(x[0] - y[1], x[1] - y[0], 1),
        "*": mul, "/": div, "^": ipow, "sin": periodic(ns.sin, 0.5 * pi),
        "cos": periodic(ns.cos, 0.0), "tan": itan, "acos": monotone("acos", rising=False),
        "abs": iabs, **{name: monotone(name) for name in ("sqrt", "asin", "atan", "exp", "log")},
    }
    if not defined:
        return helpers

    def defined_only(name, helper, clipped=None):
        """``helper`` on operands (lo, hi, defined), giving (lo, hi, defined):
        false for an operand that is not, that the helper would clip (outside
        its domain, or where ``clipped``), or for a result that is not
        finite.  Where it is true, no operand was clipped, so the enclosure
        is the plain one."""
        low, high = _DOMAINS.get(name, _WHOLE)

        def enclose(*operands):
            pairs = [operand[:2] for operand in operands]
            (a, b), ok = pairs[0], functools.reduce(operator.and_, [o[2] for o in operands])
            ok = ok & (low <= a) & (a <= b) & (b <= high)  # false for NaN
            if clipped is not None:
                ok = ok & no(clipped(*pairs))
            lo, hi = helper(*pairs)
            return lo, hi, ok & (-inf < lo) & (lo <= hi) & (hi < inf)

        return enclose

    return {name: defined_only(name, helper) for name, helper in helpers.items()} | {
        "const": lambda v: (v, v, math.isfinite(v)),
        # A negative base to a power that is not one integer is clipped.
        "^": defined_only("^", ipow, lambda x, y: (x[0] < 0.0) & no(integer(*y)))}


def _nan_where_raises(fn):
    """``fn``, NaN where it raises, as numpy's functions are."""

    def call(v):
        try:
            return fn(v)
        except (ValueError, OverflowError):
            return nan

    return call


def _float_powers(ps, qs) -> list:
    """math.pow at each (p, q), NaN where it raises."""
    try:
        return list(map(math.pow, ps, qs))
    except (ValueError, OverflowError):
        return list(map(_nan_where_raises(lambda pq: math.pow(*pq)), zip(ps, qs)))


def _float_out(lo, hi, steps):
    if steps == 1:
        return nextafter(lo, -inf), nextafter(hi, inf)
    return nextafter(nextafter(lo, -inf), -inf), nextafter(nextafter(hi, inf), inf)


def _float_extremes(values, steps):
    """min and max rounded outward (``_float_out``, inline), NaN if any
    value is, as np.minimum and np.maximum give."""
    total = sum(values)  # NaN where a value is, or where inf meets -inf
    if total != total and any(map(isnan, values)):
        return nan, nan
    if steps == 1:
        return nextafter(min(values), -inf), nextafter(max(values), inf)
    return (nextafter(nextafter(min(values), -inf), -inf),
            nextafter(nextafter(max(values), inf), inf))


# The primitives on Python floats: a flag is a bool, and a function is
# math's, NaN where that raises.
_FLOATS = SimpleNamespace(
    where=lambda flag, a, b: a if flag else b, some=bool, no=operator.not_, out=_float_out,
    extremes=_float_extremes, isfinite=math.isfinite, isinf=math.isinf,
    floor=lambda v: v // 1.0 if v - v == 0.0 else v,  # a float; non-finite as it is
    powers=_float_powers,
    **{name: _nan_where_raises(getattr(math, name))
       for name in ("sqrt", "sin", "cos", "tan", "asin", "acos", "atan", "exp", "log")})


@functools.cache
def _arrays() -> SimpleNamespace:
    """The primitives on numpy arrays (on Python floats where a constant
    folds)."""
    import numpy as np

    def out(lo, hi, steps):
        for _ in range(steps):
            lo, hi = np.nextafter(lo, -inf), np.nextafter(hi, inf)
        return lo, hi

    # np.logical_not, not ~: on constants the comparisons are Python bools.
    return SimpleNamespace(
        where=np.where, some=lambda flags: flags if type(flags) is bool else bool(flags.any()),
        no=np.logical_not, out=out, isfinite=np.isfinite, isinf=np.isinf, floor=np.floor,
        extremes=lambda values, steps: out(functools.reduce(np.minimum, values),
                                           functools.reduce(np.maximum, values), steps),
        powers=lambda ps, qs: list(map(np.power, ps, qs)), sqrt=np.sqrt, sin=np.sin,
        cos=np.cos, tan=np.tan, asin=np.arcsin, acos=np.arccos, atan=np.arctan, exp=np.exp,
        log=np.log)


@functools.cache
def helpers(arrays: bool, defined: bool = False) -> dict:
    """The helpers over numpy arrays if ``arrays``, else over floats; the
    defined-only ones if ``defined``."""
    return _helpers(_arrays() if arrays else _FLOATS, defined)


@functools.cache
def table(arrays: bool, defined: bool) -> dict:
    """The compile table of ``helpers(arrays, defined)``."""
    return _table(helpers(arrays, defined))


def _down(v: float) -> float:
    return nextafter(v, -inf)


def _up(v: float) -> float:
    return nextafter(v, inf)


_ilift, _iadd, _isub, _imul, _icos, _isin = (
    helpers(False)[op] for op in ("const", "+", "-", "*", "cos", "sin"))
