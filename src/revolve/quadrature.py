"""Adaptive quadrature: 1D Gauss-Kronrod 7/15 with global bisection,
closed-form sections for area and first moments, and iterated 2D
integration of general integrands over regions.

The embedded pair gives each segment a local error estimate |K15 - G7|;
the segment with the worst estimate is bisected until the summed estimate
meets max(abs_tol, rel_tol * |integral|) or a segment reaches max_depth.
|K15 - G7| tracks the error of the *7-point* rule, so the reported estimate
is a deliberate overestimate of the error in the returned 15-point sum.
A tuple-valued integrand runs the same loop: its components share the
panels and the evaluations.  Two values differ, both picked once: the total
a component is held to, the integral of |f_k| for component k of a tuple
(|integral| for a float), and the scale its panel errors are ranked by,
the first pass's max(abs_tol, rel_tol * integral of |f_k|) (1 for a float).

Both 2D routes walk the region's pieces (``region.pieces``), leaf by leaf:
an outer interval, inner bounds, and the map of (u, v) to the plane.  Area and
first moments (A, Sx, Sy) have closed-form inner integrals on every piece
(``PieceIntegrand``), so they, and any integrand linear in (x, y) such as
the distance to an axis, need only a 1D pass over the outer coordinate;
every volume route takes that pass on each piece.  ``integrate_region``
keeps the iterated route for general integrands, which no volume route
uses: inner integral per outer node, with the inner tolerance tightened
10x so the outer estimate dominates the reported error.

Every route, about every axis, bisects a piece's interval from the same
ends, so the same panels come back.  A piece's integrand is its section or
the section's linear form (``PieceIntegrand``).  The first pass over a
panel keeps the sections (A, Sx, Sy) at its 15 nodes in the memo of the
piece's map and curve pair: at most _PANELS panels in each of the memos of
the last _MEMOS keys, and only panels whose sections all evaluated.  A
later pass over it, by any route, reads the kept sections or takes their
linear form scale * (a*Sx + b*Sy + c*A), node by node, which cannot raise.
A non-finite mass still goes to the guard below, which alone nudges and
words errors, so values, error estimates and counts are those of
evaluating afresh.  Of the 1678 panels of a timed pass of the benchmark's
quad_sweep workload (seed 4242), 73% are read from a memo, and 40% of the
411 of ``revolve compare`` over the 12 bundled fixtures.

All nodes are interior, so endpoint singularities like sqrt(1-x^2) at x=1
are never sampled directly; an integrand failure within 1e-9 of an endpoint
is retried once with a 1e-12 relative inward nudge, and a failure in the
interior is a hard IntegrandError.  Each panel is one guarded pass: its 15
nodes are evaluated in one loop and counted together, and the per-node
guard (``_domain_guard``, the one home of the nudge rule) runs only where a
node raised or a value is not finite, from the first such node on, without
evaluating any node twice.  Evaluation counts, nudges and error messages
are those of guarding every node.  An integral that overflows is refused.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator

from ._record import record
from .errors import DomainError, IntegrandError, QuadratureNoConvergence
from .geometry import Point
from .region import IDENTITY, POLAR, SWAP, Piece, Region, leaves, pieces, plane_point

__all__ = [
    "Tolerance",
    "QuadratureResult",
    "PieceIntegrand",
    "integrate_1d",
    "integrate_region",
    "sum_results",
]

# Kronrod-15 abscissae (positive half; index 7 is the center node) and
# weights, with the embedded Gauss-7 weights on the odd-index abscissae.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

_MAX_SUBDIVISIONS = 20000
_EDGE_FRACTION = 1e-9
_NUDGE_FRACTION = 1e-12


def check_count(name: str, value) -> None:
    """Refuse a count that is a bool or no integer (has no ``__index__``)."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name}: expected an integer, got {value!r}")


@record
class Tolerance:
    rel: float = 1e-10
    abs: float = 1e-12
    max_depth: int = 50

    def __post_init__(self):
        check_count("max_depth", self.max_depth)
        if not (self.rel > 0.0 and self.abs > 0.0):
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.rel) and math.isfinite(self.abs)):
            raise ValueError("tolerances must be finite")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def tightened(self) -> "Tolerance":
        """Ten times tighter: the inner tolerance of iterated integrals."""
        return Tolerance(self.rel * 0.1, self.abs * 0.1, self.max_depth)


@record
class QuadratureResult:
    """Value and error estimate: floats, or per-component tuples for a
    tuple-valued integrand."""

    value: float | tuple[float, ...]
    error_estimate: float | tuple[float, ...]
    evaluations: int


_ROUNDOFF = 50.0 * 2.220446049250313e-16  # 50 * double epsilon, per QUADPACK

# What a failing integrand may raise: a curve's DomainError or a math error.
_FAILURES = (DomainError, ValueError, ZeroDivisionError, OverflowError)
_UNTRIED = object()  # a node the panel's pass did not reach
# A heap entry's left end and rules (``integrate_1d``).
_LEFT, _RULES = operator.itemgetter(2), operator.itemgetter(4)

# Curve pairs whose panel memos are kept, and panels one memo keeps
# (``PieceIntegrand``).
_MEMOS = 16
_PANELS = 128


def _rule(half: float, samples):
    """Gauss-Kronrod 7/15 sums of one scalar component on a panel of
    half-width ``half``: (K15, error estimate, K15 of |f|).

    The 15 samples are the centre value followed by the symmetric pairs, low
    node first, in abscissa order.  The sums run in that order, pair sums
    first.  The estimate is |K15 - G7| floored at the round-off level of
    the weighted sum, so an exactly-integrated panel still reports the
    unavoidable floating-point uncertainty instead of zero.
    """
    fc, l1, h1, l2, h2, l3, h3, l4, h4, l5, h5, l6, h6, l7, h7 = samples
    w1, w2, w3, w4, w5, w6, w7 = _WGK
    s2, s4, s6 = l2 + h2, l4 + h4, l6 + h6
    resk = (_WGK_CENTER * fc + w1 * (l1 + h1) + w2 * s2 + w3 * (l3 + h3) + w4 * s4
            + w5 * (l5 + h5) + w6 * s6 + w7 * (l7 + h7))
    resabs = (_WGK_CENTER * abs(fc) + w1 * (abs(l1) + abs(h1)) + w2 * (abs(l2) + abs(h2))
              + w3 * (abs(l3) + abs(h3)) + w4 * (abs(l4) + abs(h4)) + w5 * (abs(l5) + abs(h5))
              + w6 * (abs(l6) + abs(h6)) + w7 * (abs(l7) + abs(h7)))
    # The Gauss-7 nodes are the even pairs of the Kronrod abscissae.
    g1, g2, g3 = _WG
    resg = _WG_CENTER * fc + g1 * s2 + g2 * s4 + g3 * s6
    err = abs(half * (resk - resg))
    scale = abs(half)
    floor = _ROUNDOFF * scale * resabs
    return half * resk, floor if floor > err else err, scale * resabs


def _rules(half: float, samples: list):
    """The rule of a panel's samples: one (K15, error, mass) triple, or a
    tuple of them, one per component, for tuple-valued samples."""
    if type(samples[0]) is tuple:
        return tuple([_rule(half, component) for component in zip(*samples)])
    return _rule(half, samples)


def _center_and_half(a: float, b: float) -> tuple[float, float]:
    """The centre and half-width of [a, b]; from the halved ends where
    a + b or b - a overflows, so the centre stays inside."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    if half == math.inf or abs(center) == math.inf:
        return 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
    return center, half


def _nodes(center: float, half: float) -> list:
    """The 15 Kronrod nodes of the panel of this centre and half-width: the
    centre, then each symmetric pair, low node first, in abscissa order."""
    x1, x2, x3, x4, x5, x6, x7 = _XGK
    d1, d2, d3, d4 = half * x1, half * x2, half * x3, half * x4
    d5, d6, d7 = half * x5, half * x6, half * x7
    return [center, center - d1, center + d1, center - d2, center + d2, center - d3, center + d3,
            center - d4, center + d4, center - d5, center + d5, center - d6, center + d6,
            center - d7, center + d7]


def _gk15(sample, guard, a: float, b: float, counter: list[int]):
    """One Gauss-Kronrod 7/15 application on [a, b]: ``_rules`` of the
    integrand's values at the 15 nodes (``_nodes``).

    ``sample(center, half, a, b)`` evaluates the nodes in one pass, in
    order, and stops at the first that raised, which it lists as None; they
    are counted.  A value that raised or is not finite leaves some mass
    non-finite (|f| sums to inf or NaN), and only then are the values
    settled by ``guard``, node by node in order from the first: it keeps
    the values the pass reached and evaluates only the nodes past the one
    that raised.
    """
    center, half = _center_and_half(a, b)
    values = sample(center, half, a, b)
    reached = len(values)
    counter[0] += reached
    if reached == 15:
        rules = _rules(half, values)
        if type(rules[0]) is tuple:
            finite = all([math.isfinite(rule[2]) for rule in rules])
        else:
            finite = math.isfinite(rules[2])
        if finite:
            return rules
    return _rules(half, [guard(x, values[k] if k < reached else _UNTRIED)
                         for k, x in enumerate(_nodes(center, half))])


def _sampler(f):
    """The ``sample`` of a plain integrand: ``f`` at each node."""

    def sample(center: float, half: float, a: float, b: float) -> list:
        values = []
        append = values.append
        try:
            for x in _nodes(center, half):
                append(f(x))
        except _FAILURES:
            append(None)
        return values

    return sample


@functools.lru_cache(maxsize=_MEMOS)
def _memo(cmap: str, near, far) -> dict:
    """The panel memo of a piece's map and curve pair: panel (a, b) -> the
    list of the sections (A, Sx, Sy) at its 15 nodes.  Pieces with the same
    key share it, as the sections depend on the nodes alone."""
    return {}


class PieceIntegrand:
    """The integrand of a piece of ``region.pieces``: its closed-form
    section (A, Sx, Sy) at u, the inner integrals of 1, x and y between
    near(u) and far(u), or, given ``coefficients`` (scale, a, b, c), the
    section's linear form scale * (a*Sx + b*Sy + c*A).  Over [u0, u1] they
    integrate to the piece's area and moments, and to its volume.

    ``integrate_1d`` samples it through ``sample``.  The first pass over a
    panel (a, b) keeps the sections of its 15 nodes, as the section
    function returned them, in the memo of the piece's map and curves
    (``_memo``).  A later pass over it, by this integrand or another of the
    same piece, reads the kept sections or takes their linear form, which
    cannot raise.  Only panels whose 15 sections all evaluated are kept,
    and only while the memo holds fewer than _PANELS of them: a kept panel
    takes about 2.2 KB (its list, the 15 tuples and their 45 floats, by
    tracemalloc), so the memos hold at most about 4.3 MiB.  The values are
    those of evaluating afresh, and so is everything integrate_1d derives
    from them.
    """

    __slots__ = ("section", "near", "far", "coefficients", "panels")

    def __init__(self, piece: Piece, coefficients: tuple[float, float, float, float] | None = None):
        near, far = piece.near, piece.far
        self.section, self.near, self.far = _SECTIONS[piece.map], near, far
        self.coefficients, self.panels = coefficients, _memo(piece.map, near, far)

    def __call__(self, u: float):
        return self._values((self.section(u, self.near(u), self.far(u)),))[0]

    def sample(self, center: float, half: float, a: float, b: float) -> list:
        """``_gk15``'s pass over the panel (a, b): the values at its nodes,
        up to the first that raised, which is None.  A kept panel's values
        need no node."""
        panels = self.panels
        sections = panels.get((a, b))
        if sections is not None:
            return self._values(sections)
        sections = []
        append = sections.append
        section, near, far = self.section, self.near, self.far
        try:
            for x in _nodes(center, half):
                append(section(x, near(x), far(x)))
        except _FAILURES:
            return self._values(sections) + [None]
        if len(panels) < _PANELS:
            panels[a, b] = sections
        return self._values(sections)

    def _values(self, sections) -> list:
        """The integrand at nodes of these sections: the sections, or
        their linear form."""
        if self.coefficients is None:
            return list(sections)
        scale, a, b, c = self.coefficients
        return [scale * (a * mx + b * my + c * m1) for m1, mx, my in sections]


def _finite(y) -> bool:
    if type(y) is tuple:
        return all(map(math.isfinite, y))
    return y is not None and math.isfinite(y)


def _domain_guard(f, lo: float, hi: float, counter: list[int]):
    """The guarded value of ``f`` at a node x of [lo, hi]: ``guard(x)``
    evaluates it, counted; ``guard(x, y)`` takes ``y`` as the value of a
    first evaluation already counted, None where that raised.

    DomainError (or a math error, or a non-finite value, in any component
    of a tuple) within 1e-9*(hi-lo) of either endpoint is retried once,
    nudged 1e-12*(hi-lo) into the interval; anywhere else it raises
    IntegrandError.
    """
    span = hi - lo
    if span == math.inf:  # the span overflows; its fractions need not
        edge = _EDGE_FRACTION * hi - _EDGE_FRACTION * lo
        nudge = _NUDGE_FRACTION * hi - _NUDGE_FRACTION * lo
    else:
        edge = _EDGE_FRACTION * span
        nudge = _NUDGE_FRACTION * span

    def attempt(x):
        counter[0] += 1
        try:
            return f(x)
        except _FAILURES:
            return None

    def guarded(x: float, y=_UNTRIED):
        if y is _UNTRIED:
            y = attempt(x)
        if _finite(y):
            return y
        if abs(x - lo) <= edge:
            y = attempt(x + nudge)
        elif abs(hi - x) <= edge:
            y = attempt(x - nudge)
        if not _finite(y):
            raise IntegrandError(f"integrand undefined at {x!r} inside [{lo!r}, {hi!r}]")
        return y

    return guarded


def _sum(values) -> float:
    """fsum of ``values``; where fsum overflows, their plain sum, an inf or
    nan that the caller refuses, not an OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        return sum(values)


def _fsum_components(values: list):
    if values and type(values[0]) is tuple:
        return tuple(_sum(component) for component in zip(*values))
    return _sum(values)


def _shown(components: list):
    """Per-component figures as a message shows them: a float's bare."""
    return components[0] if len(components) == 1 else tuple(components)


def _column(totals: list, k: int):
    """Column k of the running totals (0 value, 1 error), as shown."""
    return _shown([total[k] for total in totals])


def integrate_1d(f, lo: float, hi: float, tol: Tolerance | None = None) -> QuadratureResult:
    """Adaptive integral of ``f`` over [lo, hi] with an error estimate.

    ``f`` returns a float, or a tuple of floats for a vector integrand; the
    result's value and error estimate have the same shape.  One loop serves
    both: the components, one for a float, share one heap of panels and one
    set of evaluations.  Two values, picked once by the type of the first
    panel's values, tell the kinds apart.  Component k must meet
    max(abs, rel * H_k), where the total H_k it is held to is |integral|
    for a float and M_k, the integral of |f_k|, for a tuple: a component
    that cancels to ~0 by symmetry is held to its own size, not to an
    unreachable 1e-12.  The panel bisected next has the largest error over
    a scale: 1.0 for a float, the first pass's max(abs, rel * M_k) for
    component k of a tuple, even of one component.  An integral whose value
    or error estimate is not finite (it overflows) raises
    QuadratureNoConvergence, as soon as a running total of the adaptive
    loop is: a NaN or infinite total never meets the tolerance.
    """
    tol = tol or Tolerance()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")

    counter = [0]
    guard = _domain_guard(f, lo, hi, counter)
    sample = f.sample if type(f) is PieceIntegrand else _sampler(f)
    first = _gk15(sample, guard, lo, hi, counter)
    rel, floor, isfinite = tol.rel, tol.abs, math.isfinite
    # Rules are one (K15, error, mass) triple per component, a float's
    # wrapped as one.  x / 1.0 == x: a float's panels rank by their errors.
    vector = type(first[0]) is tuple
    if vector:
        scale = [max(floor, rel * m) for _, _, m in first]
    else:
        first, scale = (first,), (1.0,)
    # heap entries: (-priority, seq, a, b, rules, depth), the root's
    # priority unused as it is popped first; the running totals are one
    # [value, error, mass] per component.
    heap = [(0.0, 0, lo, hi, first, 0)]
    totals = list(map(list, first))
    # The root's tests, as in the pass below: e <= max(abs, rel * H_k).
    met = finite = True
    for v, e, m in first:
        h = m if vector else abs(v)
        met = met and (e <= floor or e <= rel * h)
        finite = finite and isfinite(v) and isfinite(e) and isfinite(h)
    seq, splits = 1, 0
    while not met:
        if not finite:
            raise _not_finite(_column(totals, 0), _column(totals, 1), lo, hi)
        _, _, a, b, rules0, depth = heapq.heappop(heap)
        mid = _center_and_half(a, b)[0]
        if depth >= tol.max_depth or not a < mid < b:
            budget = [max(floor, rel * (m if vector else abs(v))) for v, _, m in totals]
            raise QuadratureNoConvergence(
                f"error estimate {_column(totals, 1)!r} above tolerance {_shown(budget)!r} "
                f"after depth {depth} near [{a!r}, {b!r}]"
            )
        rules1 = _gk15(sample, guard, a, mid, counter)
        rules2 = _gk15(sample, guard, mid, b, counter)
        if not vector:
            rules1, rules2 = (rules1,), (rules2,)
        # One pass over the components: the totals, the next round's stop
        # and finiteness tests, and the children's priorities.  A running
        # max is builtin max's on finite errors; a NaN or infinite error
        # leaves a total non-finite, refused before its panel is popped.
        met = finite = True
        p1 = p2 = -math.inf
        for total, x, y, z, s in zip(totals, rules1, rules2, rules0, scale):
            v = total[0] = total[0] + ((x[0] + y[0]) - z[0])
            e = total[1] = total[1] + ((x[1] + y[1]) - z[1])
            m = total[2] = total[2] + ((x[2] + y[2]) - z[2])
            h = m if vector else abs(v)
            met = met and (e <= floor or e <= rel * h)
            finite = finite and isfinite(v) and isfinite(e) and isfinite(h)
            q1, q2 = x[1] / s, y[1] / s
            p1, p2 = q1 if q1 > p1 else p1, q2 if q2 > p2 else p2
        heapq.heappush(heap, (-p1, seq, a, mid, rules1, depth + 1))
        heapq.heappush(heap, (-p2, seq + 1, mid, b, rules2, depth + 1))
        seq += 2
        splits += 1
        if splits > _MAX_SUBDIVISIONS:
            raise QuadratureNoConvergence(
                f"exceeded {_MAX_SUBDIVISIONS} subdivisions with error {_column(totals, 1)!r}"
            )
    # Fixed reduction order (by left endpoint) keeps results
    # bit-reproducible regardless of the pop history above.
    heap.sort(key=_LEFT)
    values, errors = [], []
    for rules in zip(*map(_RULES, heap)):  # one component's panels
        v, e, _ = zip(*rules)
        values.append(_sum(v))
        errors.append(_sum(e))
    finite = all(map(isfinite, values + errors))
    value, err = (tuple(values), tuple(errors)) if vector else (values[0], errors[0])
    if not finite:
        # Finite values whose integral overflows: no number to report.
        raise _not_finite(value, err, lo, hi)
    return QuadratureResult(value, err, counter[0])


def _not_finite(value, err, lo: float, hi: float) -> QuadratureNoConvergence:
    return QuadratureNoConvergence(
        f"integral {value!r} with error estimate {err!r} over [{lo!r}, {hi!r}] is not finite"
    )


# ---------------------------------------------------------------------------
# Results over several pieces

def sum_results(results: list[QuadratureResult]) -> QuadratureResult:
    """The integral over a disjoint union of pieces: values and error
    estimates (scalar or per component) summed with fsum in the given
    order, evaluations counted."""
    return QuadratureResult(
        _fsum_components([r.value for r in results]),
        _fsum_components([r.error_estimate for r in results]),
        sum(r.evaluations for r in results),
    )


# ---------------------------------------------------------------------------
# Closed-form sections: the inner integrals of 1, x and y

_NO_SECTION = (0.0, 0.0, 0.0)


def _normal_section(transpose: bool):
    """The section g(u, lo, hi) of an IDENTITY or SWAP piece at outer
    coordinate u, the inner variable v running from lo to hi: (v-length,
    u * length, integral of v dv), reordered to (A, Sx, Sy) terms.
    ``transpose`` marks an inner x (SWAP), otherwise the inner variable is
    y."""

    def section(u: float, lo: float, hi: float) -> tuple[float, float, float]:
        if not hi > lo:
            return _NO_SECTION
        width = hi - lo
        outer = u * width
        inner = 0.5 * width * (hi + lo)
        return (width, inner, outer) if transpose else (width, outer, inner)

    return section


def _polar_section(theta: float, r: float, big: float) -> tuple[float, float, float]:
    """Section of a polar sector at angle theta, rho from r to R, rho-Jacobian
    included: ((R^2 - r^2)/2, (R^3 - r^3)/3 * cos theta, (R^3 - r^3)/3 * sin theta)."""
    if not big > r:
        return _NO_SECTION
    first = (big - r) * (big * big + big * r + r * r) / 3.0
    return (0.5 * (big - r) * (big + r), first * math.cos(theta), first * math.sin(theta))


# The closed-form section g(u, near, far) of a piece, by its map.
_SECTIONS = {IDENTITY: _normal_section(False), SWAP: _normal_section(True), POLAR: _polar_section}


# ---------------------------------------------------------------------------
# Iterated 2D integration of general integrands

def _iterated(piece: Piece, integrand, tol: Tolerance) -> QuadratureResult:
    """Outer integral over u of the inner integral, for v from near(u) to
    far(u), of the integrand at the piece's ``plane_point`` times the area
    element (v if polar).  Degenerate sections (far <= near) contribute 0."""
    cmap = piece.map
    inner_tol = tol.tightened()
    inner_evals = [0]

    def g(u: float, v: float) -> float:
        value = integrand(Point(*plane_point(cmap, u, v)))
        return value * v if cmap == POLAR else value

    def section(u: float) -> float:
        a = piece.near(u)
        b = piece.far(u)
        if not b > a:
            return 0.0
        res = integrate_1d(lambda v: g(u, v), a, b, inner_tol)
        inner_evals[0] += res.evaluations
        return res.value

    outer = integrate_1d(section, piece.u0, piece.u1, tol)
    return QuadratureResult(
        outer.value, outer.error_estimate, outer.evaluations + inner_evals[0]
    )


def integrate_region(region: Region, integrand, tol: Tolerance | None = None) -> QuadratureResult:
    """Double integral of ``integrand`` (a Point -> float function) over a
    region, iterated over each piece: inner-y for normal_x and polygon
    x-slabs (the shell arrangement), inner-x for normal_y (the disk
    arrangement), inner-rho with Jacobian rho for polar sectors.  Pieces
    are summed per leaf (``region.leaves``), then the leaves' sums in
    order, so a nested union is its flat union."""
    tol = tol or Tolerance()
    return sum_results([
        sum_results([_iterated(piece, integrand, tol) for piece in pieces(leaf)])
        for leaf in leaves(region)
    ])
