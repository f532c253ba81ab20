"""Plane regions that can be revolved: normal domains, polar sectors,
polygons, and disjoint unions.

A region is a list of leaves (``leaves``, nested unions flattened): polygons
and curve leaves.  A curve leaf (NormalX, NormalY, PolarSector) is
near(u) <= v <= far(u) for u in [u_min, u_max], carried to the plane by its
map; its fields are (u_min, u_max, near, far) under its own names, which
the validator's messages and the config document use.  The three share one
validator, one mask and one boundary sample.

This module is the scalar side, which every job runs, and imports no numpy;
containment, the sampled box and the cell grid are ``revolve._cells``.

Construction probes every boundary curve at the interval endpoints plus 33
interior points (the points of ``np.linspace``, computed without numpy);
curves must evaluate there and the ordering invariants (near <= far, and
rho_min >= 0 for a sector) must hold at every probe.  The probe values are
cached per (curve, interval), so a region seen again is not probed again.
A polygon's simplicity test and its slabs read each edge's x-range once:
edges sorted by their left ends are tested in pairs only where their
x-ranges overlap, and then only where their y-ranges overlap too, and an
edge joins just the slabs between its ends' cuts, found by bisection.  On n
vertices that is about n log n, and more only where the x-ranges overlap in
many pairs or the slabs hold many pieces.

Every region is also a list of pieces (``pieces``): an outer interval
[u0, u1], inner bounds near(u) <= v <= far(u), and the map that carries
(u, v) to the plane.  The quadrature and the routes work on leaves and
pieces, not on the variants.  A curve leaf's near and far are its curves'
compiled evaluators, which a curve parsed again shares (``parse_expr`` is
cached); a polygon's slabs are cached for the last few polygons, by value,
so a polygon parsed again has the same near and far functions too.  The
quadrature keeps its sections per map and (near, far) pair.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import operator
from typing import Callable, ClassVar, NamedTuple

from ._record import record
from .errors import AxisIntersectsRegion, DomainError, ExprSyntaxError, InvalidRegionError
# eval_array is not called here: ``_cells`` looks it up here when it runs,
# where bench/spans.py replaces it to count the calls.
from .expr import (
    ExprAst, _down, _iadd, _icos, _ilift, _imul, _isub, _up, eval_array, eval_expr, parse_expr,
)
from .geometry import Axis, Point, axis_form

__all__ = [
    "curve",
    "NormalX",
    "NormalY",
    "PolarSector",
    "Polygon",
    "UnionRegion",
    "Region",
    "leaves",
    "shoelace",
    "Piece",
    "pieces",
    "contains",
    "contains_mask",
    "bounding_box",
    "axis_side_check",
]

TWO_PI = 2.0 * math.pi

# Interior probe count used by construction-time invariant checks.
DEFAULT_INTERIOR_PROBES = 33

# Absolute slack for "touching" comparisons (side checks, ordering).
_TOUCH_TOL = 1e-9

# Curve boxes one side check may bound before it falls back to the cloud.
_SIDE_BOXES = 512

# Distinct (curve, interval) pairs whose probe values are kept.
_PROBE_CACHE_SIZE = 256

# Polygons whose slabs, as pieces, are kept (each slab direction apart).
_SLAB_CACHE_SIZE = 4

# Maps from a piece's (outer u, inner v) to the plane (``plane_point``).
IDENTITY = "identity"  # (x, y) = (u, v)
SWAP = "swap"          # (x, y) = (v, u)
POLAR = "polar"        # (x, y) = (v cos u, v sin u), area element v du dv


def plane_point(cmap: str, u, v, cos=math.cos, sin=math.sin, mul=operator.mul):
    """The point (x, y) of (u, v) under the map ``cmap``: of floats, of
    numpy arrays given np.cos and np.sin, or enclosures of x and y over the
    boxes u and v given _icos, _isin and _imul (or their array twins in
    ``revolve._intervals``, over arrays of boxes)."""
    if cmap == POLAR:
        return mul(v, cos(u)), mul(v, sin(u))
    return (v, u) if cmap == SWAP else (u, v)


# A boundary curve is its parsed expression: curve("sqrt(1-x^2)", "x").
curve = parse_expr


def _probe_points(lo: float, hi: float) -> list[float]:
    """``np.linspace(lo, hi, DEFAULT_INTERIOR_PROBES + 2)`` bit for bit where
    the span is finite: lo plus i times the step, or i/n times the span
    where the step underflows to 0, and hi itself last.  Where the span
    overflows (np.linspace gives NaN and inf there), lo plus i times hi/n,
    less i times lo/n: every term, and so every probe, is finite."""
    n = DEFAULT_INTERIOR_PROBES + 1
    span = hi - lo
    step = span / n
    if not math.isfinite(span):
        points = [lo + i * (hi / n) - i * (lo / n) for i in range(n)]
    elif step == 0.0:
        points = [i / n * span + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    return points + [hi]


@functools.lru_cache(maxsize=_PROBE_CACHE_SIZE)
def _probe_values(c: ExprAst, lo: float, hi: float) -> tuple[float, ...]:
    """``c`` at the probe points of [lo, hi]; the DomainError of the first
    point where it does not evaluate carries that point as ``at``."""
    values = []
    for t in _probe_points(lo, hi):
        try:
            values.append(eval_expr(c, t))
        except DomainError as exc:
            exc.at = t
            raise
    return tuple(values)


def _probe_curve(c: ExprAst, lo: float, hi: float, what: str, var: str) -> tuple[float, ...]:
    """``c`` at the probe points; a curve in a variable but ``var`` must be constant."""
    try:
        if c.variable not in (None, var):
            parse_expr(c.text, None)
        return _probe_values(c, lo, hi)
    except ExprSyntaxError:
        raise InvalidRegionError(f"{what} {c.text!r} is in {c.variable}, not {var}") from None
    except DomainError as exc:
        raise InvalidRegionError(
            f"{what} {c.text!r} is undefined at {c.variable}={exc.at!r}"
        ) from exc


# ---------------------------------------------------------------------------
# Region variants

class _CurveLeaf:
    """Region between two curves of one coordinate u: near(u) <= v <= far(u)
    for u in [u_min, u_max].  NormalX has (x, y) = (u, v); NormalY is its
    transpose, (x, y) = (v, u); PolarSector has (x, y) = (v cos u, v sin u).
    Each subclass's fields are (u_min, u_max, near, far), named for it."""

    _var: ClassVar[str]  # the outer coordinate, "x", "y" or "theta"
    map: ClassVar[str]

    @property
    def span(self) -> tuple[float, float, ExprAst, ExprAst]:
        """(u_min, u_max, near, far): the fields in order."""
        return tuple(getattr(self, name) for name in self._fields)

    def __post_init__(self):
        v, (min_name, max_name, near_name, far_name) = self._var, self._fields
        for bound in (min_name, max_name):
            object.__setattr__(self, bound, float(getattr(self, bound)))
        u_min, u_max, near, far = self.span
        if not (math.isfinite(u_min) and math.isfinite(u_max)):
            raise InvalidRegionError(f"{v} bounds must be finite")
        if not u_min < u_max:
            raise InvalidRegionError(f"{min_name} {u_min!r} must be < {max_name} {u_max!r}")
        polar = self.map == POLAR
        if polar and u_max - u_min > TWO_PI + 1e-12:
            raise InvalidRegionError(
                f"theta_max - theta_min must be in (0, 2*pi], got {u_max - u_min!r}"
            )
        lo = _probe_curve(near, u_min, u_max, f"{near_name} curve", v)
        hi = _probe_curve(far, u_min, u_max, f"{far_name} curve", v)
        for t, a, b in zip(_probe_points(u_min, u_max), lo, hi):
            if polar and a < -_TOUCH_TOL:
                raise InvalidRegionError(f"{near_name} < 0 at {v}={t!r} ({a!r})")
            if a > b + _TOUCH_TOL:
                raise InvalidRegionError(
                    f"{near_name} > {far_name} at {v}={t!r} ({a!r} > {b!r})"
                )


@record
class NormalX(_CurveLeaf):
    """Region between y = lower(x) and y = upper(x) for x in [x_min, x_max]."""

    x_min: float
    x_max: float
    lower: ExprAst
    upper: ExprAst

    _var = "x"
    map = IDENTITY


@record
class NormalY(_CurveLeaf):
    """Region between x = left(y) and x = right(y) for y in [y_min, y_max]."""

    y_min: float
    y_max: float
    left: ExprAst
    right: ExprAst

    _var = "y"
    map = SWAP


@record
class PolarSector(_CurveLeaf):
    """Region rho_min(theta) <= rho <= rho_max(theta), theta_min <= theta <= theta_max,
    with 0 < theta_max - theta_min <= 2*pi and rho_min >= 0."""

    theta_min: float
    theta_max: float
    rho_min: ExprAst
    rho_max: ExprAst

    _var = "theta"
    map = POLAR


@record
class Polygon:
    """Simple polygon, vertices in counterclockwise order."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise InvalidRegionError("polygon needs at least 3 vertices")
        if shoelace(verts)[0] <= 0.0:
            raise InvalidRegionError("polygon must be counterclockwise (positive area)")
        if not _is_simple(verts):
            raise InvalidRegionError("polygon edges self-intersect")

    @functools.cached_property
    def _exact(self) -> tuple:
        """The type and sign of each coordinate: what equal polygons can
        still differ in (0 == -0.0 == 0.0), and their slabs' bounds with
        them."""
        return tuple((type(c), math.copysign(1.0, c)) for v in self.vertices for c in (v.x, v.y))


@record
class UnionRegion:
    """Disjoint union of regions.  Interior-disjointness is a caller
    contract and is not checked."""

    parts: tuple["Region", ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise InvalidRegionError("union needs at least one part")


Region = NormalX | NormalY | PolarSector | Polygon | UnionRegion


def leaves(region: Region) -> list[Region]:
    """The region's curve leaves and polygons in order, nested unions
    flattened: a union is the union of its leaves."""
    if isinstance(region, UnionRegion):
        return [leaf for part in region.parts for leaf in leaves(part)]
    return [region]


# ---------------------------------------------------------------------------
# Polygon helpers

def shoelace(verts: tuple[Point, ...]) -> tuple[float, float, float]:
    """Area and first moments (A, Sx, Sy) of the polygon with these
    vertices; the area is positive when they run counterclockwise."""
    a = sx = sy = 0.0
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        cross = p.x * q.y - q.x * p.y
        a += cross
        sx += (p.x + q.x) * cross
        sy += (p.y + q.y) * cross
    return 0.5 * a, sx / 6.0, sy / 6.0


def _orient(p: Point, q: Point, r: Point) -> float:
    return (q.x - p.x) * (r.y - p.y) - (r.x - p.x) * (q.y - p.y)


def _in_box(p: Point, a: Point, b: Point) -> bool:
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _segments_meet(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the closed segments ab and cd share a point."""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 * o2 < 0.0 and o3 * o4 < 0.0:
        return True
    return ((o1 == 0.0 and _in_box(c, a, b)) or (o2 == 0.0 and _in_box(d, a, b))
            or (o3 == 0.0 and _in_box(a, c, d)) or (o4 == 0.0 and _in_box(b, c, d)))


def _is_simple(verts: tuple[Point, ...]) -> bool:
    """No two edges meet, except neighbours at their shared vertex; a
    neighbour may run straight on, but not fold back along the edge.  Two
    edges whose closed x-ranges or closed y-ranges are disjoint cannot
    meet, so each edge is tested only against those that start, in order
    of their left ends, no further right than it ends, and of those only
    against the ones whose y-ranges meet its own."""
    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i, (a, b) in enumerate(edges):
        c = edges[(i + 1) % n][1]
        forward = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
        if _orient(a, b, c) == 0.0 and forward < 0.0:
            return False
    spans = sorted((min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y), i)
                   for i, (a, b) in enumerate(edges))
    lefts = [span[0] for span in spans]
    for k, (_, right, bottom, top, i) in enumerate(spans):
        for _, _, low, high, j in spans[k + 1:bisect.bisect_right(lefts, right)]:
            if (low <= top and bottom <= high and (i - j) % n not in (1, n - 1)
                    and _segments_meet(*edges[i], *edges[j])):
                return False
    return True


def _edge_interp(p: Point, q: Point):
    slope = (q.y - p.y) / (q.x - p.x)
    return lambda x: p.y + slope * (x - p.x)


def _slabs(verts) -> list:
    """Cut the simple polygon with these vertices at every vertex abscissa
    into x-slabs, each bounded below and above by a linear edge section:
    a list of (x_lo, x_hi, lower_fn, upper_fn).  An edge covers the slabs
    between its end abscissas, which are cuts; a slab's edges, in edge
    order, are sorted by their value at its midpoint."""
    cuts = sorted({v.x for v in verts})
    covering = [[] for _ in cuts[1:]]
    for p, q in zip(verts, [*verts[1:], verts[0]]):
        lo, hi = sorted((p.x, q.x))
        for s in range(bisect.bisect_left(cuts, lo), bisect.bisect_left(cuts, hi)):
            covering[s].append((p, q))
    slabs = []
    for xa, xb, edges in zip(cuts, cuts[1:], covering):
        mid = 0.5 * (xa + xb)
        fns = sorted((_edge_interp(p, q) for p, q in edges), key=lambda f: f(mid))
        if len(fns) % 2:
            raise InvalidRegionError(f"polygon slab [{xa!r}, {xb!r}] has an odd edge count")
        slabs += [(xa, xb, lower, upper) for lower, upper in zip(fns[::2], fns[1::2])]
    return slabs


# ---------------------------------------------------------------------------
# Pieces

class Piece(NamedTuple):
    """near(u) <= v <= far(u) for u in [u0, u1], carried to the plane by
    ``map`` (IDENTITY, SWAP or POLAR)."""

    u0: float
    u1: float
    near: Callable[[float], float]
    far: Callable[[float], float]
    map: str


def pieces(region: Region, swap: bool = False) -> list[Piece]:
    """The region as a list of pieces, leaf by leaf: one for a curve leaf,
    whose near and far are its curves' compiled scalar evaluators, and one
    per slab for a polygon (x-slabs, or y-slabs with map SWAP when
    ``swap``), cached (``_polygon_pieces``)."""
    out = []
    for leaf in leaves(region):
        if isinstance(leaf, Polygon):
            out += _polygon_pieces(leaf, swap, leaf._exact)
        else:
            u0, u1, near, far = leaf.span
            out.append(Piece(u0, u1, near.scalar, far.scalar, leaf.map))
    return out


@functools.lru_cache(maxsize=_SLAB_CACHE_SIZE)
def _polygon_pieces(polygon: Polygon, swap: bool, exact: tuple) -> tuple[Piece, ...]:
    """The slabs of a polygon as pieces.  Polygons compare by value, so an
    equal polygon built again reads the same slab functions; ``exact``
    (``Polygon._exact``) keeps apart equal polygons whose slabs differ."""
    # y-slabs are the x-slabs of the mirror image in y = x, listed counterclockwise.
    verts = [Point(v.y, v.x) for v in reversed(polygon.vertices)] if swap else polygon.vertices
    return tuple(Piece(*slab, SWAP if swap else IDENTITY) for slab in _slabs(verts))


# ---------------------------------------------------------------------------
# Containment

def contains(region: Region, p: Point) -> bool:
    """True iff ``p`` lies in the closed region: ``contains_mask`` at one
    point."""
    return bool(contains_mask(region, [p.x], [p.y])[0])


def contains_mask(region: Region, xs, ys, _codes=None):
    """Vectorized containment in the closed region over coordinate arrays:
    in any of its leaves, exact.  Points where a boundary curve cannot be
    evaluated are outside.  ``revolve._cells.mask``; ``_codes`` is its ``codes``."""
    from . import _cells

    return _cells.mask(region, xs, ys, _codes)


# ---------------------------------------------------------------------------
# The exterior-axis check and the bounding box
#
# Both guards want the extremes of a linear form over the closed region: of
# the axis form for the side check, of x and of y for the box.  A curve
# leaf's map is linear in v for each u, so the form takes them on its near
# and far curves (the straight end segments join their endpoints); a
# polygon takes them at its vertices, which are exact.
#
# The side check is certified.  Along each curve it bounds the form over
# boxes of u by interval arithmetic, best box first, and splits a box whose
# bound does not settle the side, after evaluating the form at its
# midpoint as a witness.  Curve end points and polygon vertices are
# witnesses too.  A witness beyond the touching slack on the wrong side
# refutes a side; after _SIDE_BOXES boxes, or at a box too narrow to
# split, it falls back to the sampled cloud.  The box is read off that
# cloud (``revolve._cells``), so a spike between two samples escapes it.

def _distance_at(axis: Axis, cmap: str, c: ExprAst, u: float) -> float | None:
    """The signed distance of the point of curve ``c`` at ``u`` under the
    map ``cmap``, or None where the curve does not evaluate."""
    try:
        v = eval_expr(c, u)
    except DomainError:
        return None
    return axis_form(axis, *plane_point(cmap, u, v))


def _distance_bounds(axis: Axis, cmap: str, c: ExprAst, box: tuple[float, float]):
    """An enclosure of the signed distance along curve ``c`` for u in
    ``box``: the axis form by interval arithmetic, v*r*cos(u - phi) + c for
    a sector; unbounded where the curve's enclosure is."""
    v = c.interval(box)
    if not -math.inf < v[0] <= v[1] < math.inf:
        return (-math.inf, math.inf)  # the curve is not bounded there (or NaN)
    if cmap == POLAR:
        # a*cos(u) + b*sin(u) is r*cos(u - phi): u appears once.
        r, phi = math.hypot(axis.a, axis.b), math.atan2(axis.b, axis.a)
        shifted = _isub(box, (_down(_down(phi)), _up(_up(phi))))
        return _iadd(_imul(v, _imul((_down(r), _up(r)), _icos(shifted))), _ilift(axis.c))
    return axis_form(axis, *plane_point(cmap, box, v), _iadd, _imul, _ilift)


def _side_holds(axis: Axis, arcs: list, side: int, seen: list[float],
                budget: int) -> tuple[bool | None, int]:
    """Whether side * distance >= -_TOUCH_TOL along every arc (cmap, curve,
    u0, u1), and the boxes left of ``budget``: True when bounds settle it,
    False when a witness (appended to ``seen``) refutes it, None when the
    budget runs out or a box too narrow to split stays unsettled."""
    heap = []

    def push(arc, lo: float, hi: float) -> None:
        nonlocal budget
        budget -= 1
        d_lo, d_hi = _distance_bounds(axis, arc[0], arc[1], (lo, hi))
        worst = d_lo if side > 0 else -d_hi
        if worst < -_TOUCH_TOL:
            # The worst bound first; the count left breaks ties, newest first.
            heapq.heappush(heap, (worst, budget, arc, lo, hi))

    for arc in arcs:
        push(arc, arc[2], arc[3])
    while heap:
        if budget <= 0:
            return None, budget
        _, _, arc, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the box cannot split: its halves are itself
            return None, budget
        d = _distance_at(axis, arc[0], arc[1], mid)
        if d is not None:
            seen.append(d)
            if side * d < -_TOUCH_TOL:
                return False, budget
        push(arc, lo, mid)
        push(arc, mid, hi)
    return True, budget


def _side_of(d_min: float, d_max: float) -> int:
    """The side of signed distances that span [d_min, d_max]: +1 or -1
    within the touching slack, else AxisIntersectsRegion."""
    if d_min >= -_TOUCH_TOL:
        return 1
    if d_max <= _TOUCH_TOL:
        return -1
    raise AxisIntersectsRegion(
        f"axis meets the region: signed distances span [{d_min!r}, {d_max!r}]"
    )


@functools.lru_cache(maxsize=256)
def axis_side_check(region: Region, axis: Axis) -> int:
    """Which side of ``axis`` the region lies on: +1 or -1.

    Touching the axis (within 1e-9) is allowed.  The side is certified by
    bounds on the signed distance along every boundary curve; a region
    with points beyond 1e-9 on both sides raises AxisIntersectsRegion,
    giving the span of the signed distances at the points evaluated.
    When the bounds take more than _SIDE_BOXES boxes, or leave a box too
    narrow to split unsettled, the verdict is the sampled one: the
    extremes of the signed distance over the sampled cloud.

    Regions and axes are frozen and compare by value, so the side is cached
    per equal (region, axis).  A refusal is not cached: it is worked out
    again, to the same message, on every call.
    """
    seen: list[float] = []
    arcs = []
    for leaf in leaves(region):
        if isinstance(leaf, Polygon):
            seen += [axis_form(axis, v.x, v.y) for v in leaf.vertices]
            continue
        u0, u1, near, far = leaf.span
        for c in (near, far):
            arcs.append((leaf.map, c, u0, u1))
            seen += [d for d in (_distance_at(axis, leaf.map, c, u) for u in (u0, u1))
                     if d is not None]
    budget = _SIDE_BOXES
    for side in (1, -1):
        if any(side * d < -_TOUCH_TOL for d in seen):
            continue
        holds, budget = _side_holds(axis, arcs, side, seen, budget)
        if holds is None:
            from . import _cells

            bounding_box(region)  # refuses a region with no sample points
            return _side_of(*_cells.cloud_distances(region, axis))
        if holds:
            return side
    return _side_of(min(seen), max(seen))  # witnesses on both sides: raises


def bounding_box(region: Region) -> tuple[float, float, float, float]:
    """Axis-aligned box (x_lo, x_hi, y_lo, y_hi) of the sampled boundary
    cloud (``revolve._cells``): exact for polygons, padded by 1e-9 relative
    around curve samples."""
    from . import _cells

    box = _cells.sampled_box(region)
    if box is None:
        raise InvalidRegionError("region produced no sample points")
    return box
