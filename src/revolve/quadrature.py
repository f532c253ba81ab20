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
the distance to an axis, need only a 1D pass over the outer coordinate.
``integrate_region`` keeps the iterated route for general integrands:
inner integral per outer node, with the inner tolerance tightened 10x so
the outer estimate dominates the reported error.

All nodes are interior, so endpoint singularities like sqrt(1-x^2) at x=1
are never sampled directly; an integrand failure within 1e-9 of an endpoint
is retried once with a 1e-12 relative inward nudge, and a failure in the
interior is a hard IntegrandError.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import DomainError, IntegrandError, QuadratureNoConvergence
from .geometry import Point
from .region import POLAR, SWAP, Piece, Region, leaves, pieces

__all__ = [
    "Tolerance",
    "QuadratureResult",
    "integrate_1d",
    "integrate_region",
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error estimate: floats, or per-component tuples for a
    tuple-valued integrand."""

    value: float | tuple[float, ...]
    error_estimate: float | tuple[float, ...]
    evaluations: int


_ROUNDOFF = 50.0 * 2.220446049250313e-16  # 50 * double epsilon, per QUADPACK


def _rule(half: float, samples) -> tuple[float, float, float]:
    """Gauss-Kronrod 7/15 sums of one scalar component on a panel of
    half-width ``half``: (K15, error estimate, K15 of |f|).

    ``samples`` is the centre value followed by the symmetric pairs in
    abscissa order.  The estimate is |K15 - G7| floored at the round-off
    level of the weighted sum, so an exactly-integrated panel still reports
    the unavoidable floating-point uncertainty instead of zero.
    """
    fc = samples[0]
    lows = samples[1::2]
    highs = samples[2::2]
    resk = _WGK_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    for w, f1, f2 in zip(_WGK, lows, highs):
        resk += w * (f1 + f2)
        resabs += w * (abs(f1) + abs(f2))
    # The Gauss-7 nodes are the odd-index Kronrod abscissae.
    resg = _WG_CENTER * fc
    for w, f1, f2 in zip(_WG, lows[1::2], highs[1::2]):
        resg += w * (f1 + f2)
    err = abs(half * (resk - resg))
    return half * resk, max(err, _ROUNDOFF * abs(half) * resabs), abs(half) * resabs


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 application on [a, b].

    Returns (values, errors, masses, vector): per-component tuples of the
    K15 sum, its error estimate and the K15 sum of |f| (QUADPACK's resabs),
    and whether ``f`` returned a tuple.  A scalar ``f`` is one component.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    samples = [f(center)]
    for x in _XGK:
        dx = half * x
        samples.append(f(center - dx))
        samples.append(f(center + dx))
    if type(samples[0]) is not tuple:
        v, e, m = _rule(half, samples)
        return (v,), (e,), (m,), False
    rules = [_rule(half, component) for component in zip(*samples)]
    return (
        tuple(r[0] for r in rules),
        tuple(r[1] for r in rules),
        tuple(r[2] for r in rules),
        True,
    )


def _domain_guard(f, lo: float, hi: float, counter: list[int]):
    """Wrap an integrand: count calls, normalize failures.

    DomainError (or a non-finite value, in any component of a tuple) within
    1e-9*(hi-lo) of either endpoint is retried once, nudged 1e-12*(hi-lo)
    into the interval; anywhere else it raises IntegrandError.
    """
    span = hi - lo
    edge = _EDGE_FRACTION * span
    nudge = _NUDGE_FRACTION * span

    def attempt(x):
        counter[0] += 1
        try:
            y = f(x)
        except (DomainError, ValueError, ZeroDivisionError, OverflowError):
            return None
        if type(y) is tuple:
            return y if all(map(math.isfinite, y)) else None
        return y if math.isfinite(y) else None

    def guarded(x: float):
        y = attempt(x)
        if y is not None:
            return y
        if abs(x - lo) <= edge:
            y = attempt(x + nudge)
        elif abs(hi - x) <= edge:
            y = attempt(x - nudge)
        if y is None:
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
    the largest error relative to those scales.
    """
    tol = tol or Tolerance()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")

    counter = [0]
    wf = _domain_guard(f, lo, hi, counter)

    value, err, mass, vector = _gk15(wf, lo, hi)
    # Panels are bisected in order of error over a fixed per-component
    # scale: 1 for a scalar integral, the first pass's M_k budget for a
    # vector one.
    scale = tuple(max(tol.abs, tol.rel * m) for m in mass) if vector else (1.0,)

    def priority(e: tuple) -> float:
        return max(ek / sk for ek, sk in zip(e, scale))

    # heap entries: (-priority, seq, a, b, values, errors, masses, depth)
    heap = [(-priority(err), 0, lo, hi, value, err, mass, 0)]
    seq = 1
    total_value, total_err, total_mass = value, err, mass
    splits = 0
    while True:
        if vector:
            budget = tuple(max(tol.abs, tol.rel * m) for m in total_mass)
        else:
            budget = (max(tol.abs, tol.rel * abs(total_value[0])),)
        if all(e <= b for e, b in zip(total_err, budget)):
            break
        _, _, a, b, v0, e0, m0, depth = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if depth >= tol.max_depth or not a < mid < b:
            raise QuadratureNoConvergence(
                f"error estimate {_shown(total_err)!r} above tolerance {_shown(budget)!r} "
                f"after depth {depth} near [{a!r}, {b!r}]"
            )
        v1, e1, m1, _ = _gk15(wf, a, mid)
        v2, e2, m2, _ = _gk15(wf, mid, b)
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

    # Fixed reduction order (sorted by left endpoint) keeps results
    # bit-reproducible regardless of the pop history above.
    segments = sorted((item[2], item[4], item[5]) for item in heap)
    value = _fsum_components([s[1] for s in segments])
    err = _fsum_components([s[2] for s in segments])
    if vector:
        return QuadratureResult(value, err, counter[0])
    return QuadratureResult(value[0], err[0], counter[0])


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


def _normal_section(lower, upper, transpose: bool):
    """Section of an IDENTITY or SWAP piece at outer coordinate u, the inner
    variable v running from lower(u) to upper(u): (v-length, u * length,
    integral of v dv), reordered to (A, Sx, Sy) terms.  ``transpose`` marks
    an inner x (SWAP), otherwise the inner variable is y."""

    def section(u: float) -> tuple[float, float, float]:
        lo = lower(u)
        hi = upper(u)
        if not hi > lo:
            return _NO_SECTION
        width = hi - lo
        outer = u * width
        inner = 0.5 * width * (hi + lo)
        return (width, inner, outer) if transpose else (width, outer, inner)

    return section


def _polar_section(rho_min, rho_max):
    """Section of a polar sector at angle theta, rho-Jacobian included:
    ((R^2 - r^2)/2, (R^3 - r^3)/3 * cos theta, (R^3 - r^3)/3 * sin theta)."""

    def section(theta: float) -> tuple[float, float, float]:
        r = rho_min(theta)
        big = rho_max(theta)
        if not big > r:
            return _NO_SECTION
        first = (big - r) * (big * big + big * r + r * r) / 3.0
        return (0.5 * (big - r) * (big + r), first * math.cos(theta), first * math.sin(theta))

    return section


def _section(piece: Piece):
    """The closed-form section function of a piece, by its map."""
    if piece.map == POLAR:
        return _polar_section(piece.near, piece.far)
    return _normal_section(piece.near, piece.far, piece.map == SWAP)


def moment_sections(region: Region) -> list:
    """The region's pieces as (u0, u1, section), where section(u) returns
    the closed-form inner integrals (of 1, x and y) over the cross-section
    at outer coordinate u: x for normal_x and polygon slabs, y for normal_y,
    theta for polar sectors.  Integrating a section over [u0, u1] gives the
    piece's area and first moments (A, Sx, Sy); any integrand linear in
    (x, y) is a fixed combination of them."""
    return [(piece.u0, piece.u1, _section(piece)) for piece in pieces(region)]


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
