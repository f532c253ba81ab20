"""Adaptive quadrature: 1D Gauss-Kronrod 7/15 with global bisection,
closed-form sections for area and first moments, and iterated 2D
integration of general integrands over regions.

The embedded pair gives each segment a local error estimate |K15 - G7|;
the segment with the worst estimate is bisected until the summed estimate
meets max(abs_tol, rel_tol * |integral|) or a segment reaches max_depth.
|K15 - G7| tracks the error of the *7-point* rule, so the reported estimate
is a deliberate overestimate of the error in the returned 15-point sum.
A tuple-valued integrand is integrated in one pass: its components share
the panels and the evaluations, and component k meets
max(abs_tol, rel_tol * integral of |f_k|).

Both 2D routes walk the region's pieces (``region.pieces``), leaf by leaf:
an outer interval, inner bounds, and the map of (u, v) to the plane.  Area and
first moments (A, Sx, Sy) have closed-form inner integrals on every piece
(``moment_sections``), so they, and any integrand linear in (x, y) such as
the distance to an axis, need only a 1D pass over the outer coordinate;
every volume route takes that pass.  ``integrate_region`` keeps the
iterated route for general integrands, which no volume route uses: inner
integral per outer node, with the inner tolerance tightened 10x so the
outer estimate dominates the reported error.

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

from ._record import record
from .errors import DomainError, IntegrandError, QuadratureNoConvergence
from .geometry import Point
from .region import IDENTITY, POLAR, SWAP, Piece, Region, leaves, pieces

__all__ = [
    "Tolerance",
    "QuadratureResult",
    "PieceIntegrand",
    "integrate_1d",
    "integrate_region",
    "linear_sections",
    "moment_sections",
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


@record
class Tolerance:
    rel: float = 1e-10
    abs: float = 1e-12
    max_depth: int = 50

    def __post_init__(self):
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
        return tuple(_rule(half, component) for component in zip(*samples))
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
            finite = all(math.isfinite(rule[2]) for rule in rules)
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
    """The integrand of a piece: its closed-form section (A, Sx, Sy) at u
    between near(u) and far(u), or, given ``coefficients`` (scale, a, b,
    c), the section's linear form scale * (a*Sx + b*Sy + c*A).

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


def _fsum_components(values: list):
    if values and type(values[0]) is tuple:
        return tuple(math.fsum(component) for component in zip(*values))
    return math.fsum(values)


def _shown(components: tuple):
    return components[0] if len(components) == 1 else components


def integrate_1d(f, lo: float, hi: float, tol: Tolerance | None = None) -> QuadratureResult:
    """Adaptive integral of ``f`` over [lo, hi] with an error estimate.

    ``f`` returns a float, or a tuple of floats for a vector integrand;
    the result's value and error estimate have the same shape.  All
    components share one heap of panels, one set of evaluations and one
    error norm.  A scalar integral stops when its estimate meets
    max(abs, rel * |integral|).  Component k of a vector integral must meet
    max(abs, rel * M_k), where M_k is the integral of |f_k|: a component
    that cancels to ~0 by symmetry is then held relative to its own size,
    not to an unreachable 1e-12.  The panel bisected next is the one with
    the largest error relative to those scales.  An integral whose value or
    error estimate is not finite (it overflows) raises
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
    if type(first[0]) is tuple:
        value, err = _vector_pass(sample, guard, lo, hi, tol, counter, first)
        finite = all(map(math.isfinite, value + err))
    else:
        value, err = _scalar_pass(sample, guard, lo, hi, tol, counter, first)
        finite = math.isfinite(value) and math.isfinite(err)
    if not finite:
        # Finite values whose integral overflows: no number to report.
        raise _not_finite(value, err, lo, hi)
    return QuadratureResult(value, err, counter[0])


def _not_finite(value, err, lo: float, hi: float) -> QuadratureNoConvergence:
    return QuadratureNoConvergence(
        f"integral {value!r} with error estimate {err!r} over [{lo!r}, {hi!r}] is not finite"
    )


def _scalar_pass(sample, guard, lo: float, hi: float, tol: Tolerance, counter: list[int], first):
    """The adaptive loop of a scalar integrand from its first panel's rule:
    (value, error estimate).  The panel bisected next is the one with the
    largest error."""
    value, err, _ = first
    # heap entries: (-error, seq, a, b, value, error, depth)
    heap = [(-err, 0, lo, hi, value, err, 0)]
    seq = 1
    total_value, total_err = value, err
    splits = 0
    while True:
        budget = max(tol.abs, tol.rel * abs(total_value))
        if total_err <= budget:
            break
        if not (math.isfinite(total_value) and math.isfinite(total_err)):
            raise _not_finite(total_value, total_err, lo, hi)
        _, _, a, b, v0, e0, depth = heapq.heappop(heap)
        mid = _center_and_half(a, b)[0]
        if depth >= tol.max_depth or not a < mid < b:
            raise QuadratureNoConvergence(
                f"error estimate {total_err!r} above tolerance {budget!r} "
                f"after depth {depth} near [{a!r}, {b!r}]"
            )
        v1, e1, _ = _gk15(sample, guard, a, mid, counter)
        v2, e2, _ = _gk15(sample, guard, mid, b, counter)
        total_value = total_value + ((v1 + v2) - v0)
        total_err = total_err + ((e1 + e2) - e0)
        heapq.heappush(heap, (-e1, seq, a, mid, v1, e1, depth + 1))
        heapq.heappush(heap, (-e2, seq + 1, mid, b, v2, e2, depth + 1))
        seq += 2
        splits += 1
        if splits > _MAX_SUBDIVISIONS:
            raise QuadratureNoConvergence(
                f"exceeded {_MAX_SUBDIVISIONS} subdivisions with error {total_err!r}"
            )
    # Fixed reduction order (by left endpoint) keeps results
    # bit-reproducible regardless of the pop history above.
    heap.sort(key=lambda item: item[2])
    return math.fsum([item[4] for item in heap]), math.fsum([item[5] for item in heap])


def _vector_pass(sample, guard, lo: float, hi: float, tol: Tolerance, counter: list[int], first):
    """The adaptive loop of a tuple-valued integrand from its first panel's
    rules: per-component (values, error estimates).  Panels are bisected in
    order of error over a fixed per-component scale, the first pass's M_k
    budget."""

    def split(rules):
        return tuple(zip(*rules))

    value, err, mass = split(first)
    scale = tuple(max(tol.abs, tol.rel * m) for m in mass)

    def priority(e: tuple) -> float:
        return max(ek / sk for ek, sk in zip(e, scale))

    # heap entries: (-priority, seq, a, b, values, errors, masses, depth)
    heap = [(-priority(err), 0, lo, hi, value, err, mass, 0)]
    seq = 1
    total_value, total_err, total_mass = value, err, mass
    splits = 0
    while True:
        budget = tuple(max(tol.abs, tol.rel * m) for m in total_mass)
        if all(e <= b for e, b in zip(total_err, budget)):
            break
        if not all(map(math.isfinite, total_value + total_err + total_mass)):
            raise _not_finite(_shown(total_value), _shown(total_err), lo, hi)
        _, _, a, b, v0, e0, m0, depth = heapq.heappop(heap)
        mid = _center_and_half(a, b)[0]
        if depth >= tol.max_depth or not a < mid < b:
            raise QuadratureNoConvergence(
                f"error estimate {_shown(total_err)!r} above tolerance {_shown(budget)!r} "
                f"after depth {depth} near [{a!r}, {b!r}]"
            )
        v1, e1, m1 = split(_gk15(sample, guard, a, mid, counter))
        v2, e2, m2 = split(_gk15(sample, guard, mid, b, counter))
        total_value = tuple(t + ((x + y) - z) for t, x, y, z in zip(total_value, v1, v2, v0))
        total_err = tuple(t + ((x + y) - z) for t, x, y, z in zip(total_err, e1, e2, e0))
        total_mass = tuple(t + ((x + y) - z) for t, x, y, z in zip(total_mass, m1, m2, m0))
        heapq.heappush(heap, (-priority(e1), seq, a, mid, v1, e1, m1, depth + 1))
        heapq.heappush(heap, (-priority(e2), seq + 1, mid, b, v2, e2, m2, depth + 1))
        seq += 2
        splits += 1
        if splits > _MAX_SUBDIVISIONS:
            raise QuadratureNoConvergence(
                f"exceeded {_MAX_SUBDIVISIONS} subdivisions with error {_shown(total_err)!r}"
            )
    heap.sort(key=lambda item: item[2])
    return _fsum_components([item[4] for item in heap]), _fsum_components([item[5] for item in heap])


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


def linear_sections(region: Region, scale: float, a: float, b: float, c: float,
                    swap: bool = False) -> list:
    """The region's pieces (``region.pieces``, polygons cut into y-slabs
    when ``swap``) as (u0, u1, form), where form(u) is the inner integral
    of scale * (a*x + b*y + c) over the cross-section at u, in closed form:
    scale * (a*Sx + b*Sy + c*A) of ``moment_sections``' section.  Each form
    is a ``PieceIntegrand``."""
    return [(piece.u0, piece.u1, PieceIntegrand(piece, (scale, a, b, c)))
            for piece in pieces(region, swap)]


def moment_sections(region: Region) -> list:
    """The region's pieces as (u0, u1, section), where section(u) returns
    the closed-form inner integrals (of 1, x and y) over the cross-section
    at outer coordinate u: x for normal_x and polygon slabs, y for normal_y,
    theta for polar sectors.  Integrating a section over [u0, u1] gives the
    piece's area and first moments (A, Sx, Sy); any integrand linear in
    (x, y) is a fixed combination of them.  Each section is a
    ``PieceIntegrand``."""
    return [(piece.u0, piece.u1, PieceIntegrand(piece)) for piece in pieces(region)]


# ---------------------------------------------------------------------------
# Iterated 2D integration of general integrands

def _iterated(piece: Piece, integrand, tol: Tolerance) -> QuadratureResult:
    """Outer integral over u of the inner integral, for v between near(u)
    and far(u), of the integrand at the piece's (u, v) times the area
    element.  Degenerate sections (far <= near) contribute 0."""
    g = _in_plane(integrand, piece.map)
    inner_tol = tol.tightened()
    inner_evals = [0]

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


def _in_plane(integrand, cmap: str):
    """``integrand`` (of a Point) as a function of a piece's (u, v) under
    the map ``cmap``, times the map's area element."""
    if cmap == POLAR:
        return lambda th, r: integrand(Point(r * math.cos(th), r * math.sin(th))) * r
    if cmap == SWAP:
        return lambda u, v: integrand(Point(v, u))
    return lambda u, v: integrand(Point(u, v))


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
