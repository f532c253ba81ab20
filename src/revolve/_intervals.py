"""The array interval table: the helpers of ``ExprAst.intervals`` and
``ExprAst.defined_intervals``, imported on first use, so that a job that
evaluates no intervals over arrays does not compile it.

Each helper is its scalar twin's in ``revolve.expr`` (``_INTERVAL_HELPERS``),
case by case, on numpy arrays of interval ends, and rounds outward by
np.nextafter.  numpy's functions may part from math's by an ulp, so an end
may lie an ulp inside the scalar table's.  The defined-only table runs the
same helpers, and also tracks for each box whether the scalar defined-only
table would give None: where it would not, no operand was clipped, so the
enclosure is the defined-only one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import _INTERVAL_HELPERS, _WHOLE, _ilift, _table


@functools.cache
def table(defined: bool) -> dict:
    """The table of ``ExprAst.intervals`` (or, if ``defined``, of
    ``defined_intervals``), built on first use.  A branch that only a few
    boxes take is skipped where none does."""
    # np.logical_not, not ~: on constants the comparisons are Python bools.
    inf, where, no = math.inf, np.where, np.logical_not

    def some(flags) -> bool:
        return flags if type(flags) is bool else bool(flags.any())

    def out(lo, hi, steps):  # rounded outward
        for _ in range(steps):
            lo, hi = np.nextafter(lo, -inf), np.nextafter(hi, inf)
        return lo, hi

    def extremes(values, steps):
        return out(*(functools.reduce(f, values) for f in (np.minimum, np.maximum)), steps)

    def whole_where(bad, lo, hi):
        return (where(bad, -inf, lo), where(bad, inf, hi)) if some(bad) else (lo, hi)

    def mul(x, y):
        ps = [x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]]
        if some(np.isnan(functools.reduce(np.add, ps))):
            # 0 * inf is NaN; a real 0 times any real is 0.
            ps = [where(p == p, p, 0.0) for p in ps]
        return extremes(ps, 1)

    def div(x, y):
        (a, b), (c, d) = x, y
        qs = [np.divide(p, q) for p in (a, b) for q in (c, d)]  # floats when folding
        # The divisor can be 0, or is NaN, or a quotient is inf / inf.
        bad = no((c > 0.0) | (d < 0.0)) | np.isnan(functools.reduce(np.add, qs))
        return whole_where(bad, *extremes(qs, 1))

    def pow_points(pairs):
        values = [np.power(p, q) for p, q in pairs]
        lo, hi = extremes(values, 2)
        if some(no(np.isfinite(lo) & np.isfinite(hi))):
            # Where math.pow raises: inf from finite operands (a pole, an
            # overflow), NaN from others (a negative base, a fractional power).
            fails = [(np.isinf(v) & np.isfinite(p) & np.isfinite(q))
                     | ((v != v) & (p == p) & (q == q)) for (p, q), v in zip(pairs, values)]
            lo, hi = whole_where(functools.reduce(np.logical_or, fails), lo, hi)
        return lo, hi

    def integer(y):
        if type(y[0]) is float and type(y[1]) is float:  # a constant exponent
            return y[0] == y[1] and y[0].is_integer()
        return (y[0] == y[1]) & (np.floor(y[0]) == y[0]) & np.isfinite(y[0])

    def ipow(x, y):
        (a, b), (c, d) = x, y

        def whole_power():  # any base has a value
            lo, hi = pow_points(((a, c), (b, c)))
            even = (c > 0.0) & (c % 2.0 == 0.0)
            if some(even):
                lo = where(even & (a < 0.0) & (0.0 < b), 0.0, lo)
            if some(c < 0.0):
                lo, hi = whole_where((c < 0.0) & (a <= 0.0) & (0.0 <= b), lo, hi)
            return lo, hi

        def base_at_least_0():
            lo, hi = (where(0.0 > v, 0.0, v) for v in (a, b))
            return whole_where((a < 0.0) & (c != d),
                               *pow_points(((lo, c), (lo, d), (hi, c), (hi, d))))

        whole = integer(y)
        if np.ndim(whole) == 0:  # one exponent for every box
            return whole_power() if whole else base_at_least_0()
        return tuple(map(where, (whole, whole), whole_power(), base_at_least_0()))

    def monotone(fn, name, rising=True):
        low, high = _INTERVAL_HELPERS[name].domain

        def enclose(x):
            a, b = x
            if low > -inf:
                a, b = where(low > a, low, a), where(low > b, low, b)
            if high < inf:
                a, b = where(high < a, high, a), where(high < b, high, b)
            if not rising:
                a, b = b, a
            fa, fb = fn(a), fn(b)
            if some(no(np.isfinite(fa) & np.isfinite(fb))):
                # Where math raises (an overflow, log(0)), the side is unbounded.
                fa = where(np.isfinite(a) & no(np.isfinite(fa)), -inf, fa)
                fb = where(np.isfinite(b) & no(np.isfinite(fb)), inf, fb)
            return out(fa, fb, 2)

        return enclose

    def hits(a, b, phase, period):
        slack = 1e-12 * (1.0 + abs(a) + abs(b))
        k = np.floor((b + slack - phase) / period)
        return (slack == inf) | (phase + k * period >= a - slack)

    def periodic(fn, peak):
        def enclose(x):
            a, b = x
            lo, hi = extremes((fn(a), fn(b)), 2)
            wide = no(b - a < 2.0 * math.pi)
            return (where(wide | hits(a, b, peak + math.pi, 2.0 * math.pi), -1.0, lo),
                    where(wide | hits(a, b, peak, 2.0 * math.pi), 1.0, hi))

        return enclose

    def itan(x):
        a, b = x
        pole = no(b - a < math.pi) | hits(a, b, 0.5 * math.pi, math.pi)
        return whole_where(pole, *out(np.tan(a), np.tan(b), 2))

    def iabs(x):
        a, b = x
        return (where(a >= 0.0, a, where(b <= 0.0, -b, 0.0)),
                where(a >= 0.0, b, where(b <= 0.0, -a, where(b > -a, b, -a))))

    helpers = {
        "neg": lambda x: (-x[1], -x[0]),
        "+": lambda x, y: out(x[0] + y[0], x[1] + y[1], 1),
        "-": lambda x, y: out(x[0] - y[1], x[1] - y[0], 1),
        "*": mul, "/": div, "^": ipow,
        "sqrt": monotone(np.sqrt, "sqrt"), "sin": periodic(np.sin, 0.5 * math.pi),
        "cos": periodic(np.cos, 0.0), "tan": itan, "asin": monotone(np.arcsin, "asin"),
        "acos": monotone(np.arccos, "acos", rising=False), "atan": monotone(np.arctan, "atan"),
        "exp": monotone(np.exp, "exp"), "log": monotone(np.log, "log"), "abs": iabs,
    }
    if not defined:
        return _table(helpers | {"const": _ilift})

    def defined_only(name, helper, clipped=None):
        low, high = getattr(_INTERVAL_HELPERS[name], "domain", _WHOLE)

        def enclose(*operands):
            # An operand is (lo, hi, defined): its enclosure and where the
            # defined-only one is not None.
            (a, b, ok), *others = operands
            ok = ok & (a <= b)  # false for NaN
            if low > -inf:
                ok = ok & (low <= a)
            if high < inf:
                ok = ok & (b <= high)
            for other in others:
                ok = ok & other[2]
            pairs = [operand[:2] for operand in operands]
            if clipped is not None:
                ok = ok & no(clipped(*pairs))
            lo, hi = helper(*pairs)
            return lo, hi, ok & (-inf < lo) & (lo <= hi) & (hi < inf)

        return enclose

    twins = {name: defined_only(name, helper) for name, helper in helpers.items()}
    # A negative base to a power that is not one integer is clipped.
    twins["^"] = defined_only("^", ipow, lambda x, y: (x[0] < 0.0) & no(integer(y)))
    return _table(twins | {"const": lambda v: (v, v, math.isfinite(v))})
