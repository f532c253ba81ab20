"""Plane regions that can be revolved: normal domains, polar sectors,
polygons, and disjoint unions.

A region is a list of leaves (``leaves``, nested unions flattened): polygons
and curve leaves.  A curve leaf (NormalX, NormalY, PolarSector) is
near(u) <= v <= far(u) for u in [u_min, u_max], carried to the plane by its
map; its fields are (u_min, u_max, near, far) under its own names, which
the validator's messages and the config document use.  The three share one
validator, one mask and one boundary sample.

Construction probes every boundary curve at the interval endpoints plus 33
interior points (the points of ``np.linspace``, computed without numpy);
curves must evaluate there and the ordering invariants (near <= far, and
rho_min >= 0 for a sector) must hold at every probe.  The probe values are
cached per (curve, interval), so a region seen again is not probed again.
A polygon's simplicity test and its slabs read each edge's x-range once:
edges sorted by their left ends are tested in pairs only where their
x-ranges overlap, and an edge joins just the slabs between its ends' cuts,
found by bisection.  On n vertices that is about n log n, and more only
where the x-ranges overlap in many pairs or the slabs hold many pieces.
Boundary points count as inside: the region is closed, and containment is
exact on polygon edges and at a sector's apex.  A containment call on more
than _GRID_POINTS points reads a grid of _GRID x _GRID cells over the
bounding box (``_cell_grid``, cached per region): inside, outside, or
boundary where a box covering the boundary meets the cell.  The exact tests
run only on the points in boundary cells or off the grid; the mask is
theirs bit for bit.  Monte Carlo names each point's cell by the top byte of
each of its two random words (``word_codes``), and the lookup is skipped.

Every region is also a list of pieces (``pieces``): an outer interval
[u0, u1], inner bounds near(u) <= v <= far(u), and the map that carries
(u, v) to the plane.  The quadrature and the routes work on leaves and
pieces, not on the variants.  A curve leaf's near and far are its curves'
compiled evaluators, which a curve parsed again shares (``parse_expr`` is
cached); a polygon's slabs are cached for the last few polygons, by value,
so a polygon parsed again has the same near and far functions too.  The
quadrature keeps its sections per map and (near, far) pair.

The exterior-axis check (``axis_side_check``) is certified: it bounds the
signed distance along each boundary curve by interval arithmetic
(``ExprAst.interval``), and falls back to sampling only when a fixed box
budget runs out; its verdict is cached per (region, axis).  The bounding
box, which Monte Carlo and ``revolve sample`` use, is sampled; only the box
is cached per region, and the sampled cloud is built again where the
fallback needs it.  numpy is imported only by containment and the sampled
cloud.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import operator
import sys
from typing import Callable, ClassVar, NamedTuple

from ._record import record
from .errors import AxisIntersectsRegion, DomainError, InvalidRegionError
from .expr import (
    ExprAst, _down, _iadd, _icos, _imul, _isub, _up, eval_array, eval_expr, parse_expr,
)
from .geometry import Axis, Point

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
    "word_codes",
    "bounding_box",
    "axis_side_check",
]

TWO_PI = 2.0 * math.pi

# Interior probe count used by construction-time invariant checks.
DEFAULT_INTERIOR_PROBES = 33

# Absolute slack for "touching" comparisons (side checks, ordering).
_TOUCH_TOL = 1e-9

# Relative slack of the on-edge test for polygons: a distance of _EDGE_TOL
# times the coordinates' size, across and along the edge (_polygon_mask).
_EDGE_TOL = 1e-12

# Samples per boundary curve in the sampled cloud; odd, so the midpoint of
# the outer interval is one of them.
_CLOUD_SAMPLES = 1025
_BOX_PAD = 1e-9

# Curve boxes one side check may bound before it falls back to the cloud.
_SIDE_BOXES = 512

# Distinct (curve, interval) pairs whose probe values are kept.
_PROBE_CACHE_SIZE = 256

# Polygons whose slabs, as pieces, are kept (each slab direction apart).
_SLAB_CACHE_SIZE = 4

# The cell grid (``_cell_grid``) has _GRID x _GRID cells over the bounding
# box: 2^8, so that Monte Carlo reads a point's cell off the top byte of
# each of its two random words.
_GRID = 256

# contains_mask on more points than this reads the cell grid.
_GRID_POINTS = 2**14

# _cell_codes builds the cell index of this many points at a time.
_SLICE = 2**14

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


def _probe_curve(c: ExprAst, lo: float, hi: float, what: str) -> tuple[float, ...]:
    try:
        return _probe_values(c, lo, hi)
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
        lo = _probe_curve(near, u_min, u_max, f"{near_name} curve")
        hi = _probe_curve(far, u_min, u_max, f"{far_name} curve")
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
    edges whose closed x-ranges are disjoint cannot meet, so each edge is
    tested only against those that start, in order of their left ends, no
    further right than it ends."""
    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i, (a, b) in enumerate(edges):
        c = edges[(i + 1) % n][1]
        forward = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
        if _orient(a, b, c) == 0.0 and forward < 0.0:
            return False
    spans = sorted((min(a.x, b.x), max(a.x, b.x), i) for i, (a, b) in enumerate(edges))
    lefts = [left for left, _, _ in spans]
    for k, (_, right, i) in enumerate(spans):
        for _, _, j in spans[k + 1:bisect.bisect_right(lefts, right)]:
            if (i - j) % n not in (1, n - 1) and _segments_meet(*edges[i], *edges[j]):
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


def _curve_mask(leaf: _CurveLeaf, xs, ys):
    """u_min <= u <= u_max and near(u) <= v <= far(u) at each point's (u, v):
    for a sector, its angle in [theta_min, theta_min + 2*pi) and its radius.
    The apex has no angle; it is inside iff rho_min <= 0 at a construction probe."""
    import numpy as np

    u_min, u_max, near, far = leaf.span
    if leaf.map == POLAR:
        us = u_min + np.mod(np.arctan2(ys, xs) - u_min, TWO_PI)
        vs = np.hypot(xs, ys)
    else:
        us, vs = (ys, xs) if leaf.map == SWAP else (xs, ys)
    # One curve sample alive at a time: they are full-length arrays.
    mask = (us >= u_min) & (us <= u_max)
    mask &= vs >= eval_array(near, us)
    mask &= vs <= eval_array(far, us)
    if leaf.map == POLAR:
        apex = vs == 0.0
        if apex.any():
            # np.where, not item assignment: the mask of 0-d input is a scalar.
            at_apex = any(v <= 0.0 for v in _probe_values(near, u_min, u_max))
            mask = np.where(apex, at_apex, mask)
    return mask


def _polygon_mask(poly: Polygon, xs, ys):
    """Nonzero winding number, or on an edge pq: within 1e-12 * (sx*|n_x| +
    sy*|n_y|) of its line, n the unit normal, and within 1e-12 * (sx*|t_x| +
    sy*|t_y|) of the segment along it, t the unit direction, where sx =
    max(1, |x| of the point, p and q) and sy likewise: the slack of each
    coordinate's round-off, seen across and along the edge.  The edge test
    runs only on the points within the slack of the edge's line at the
    largest scales present.  A point with a coordinate that is not finite
    is outside.  An edge whose squared length or slack is not finite raises
    InvalidRegionError: an infinite slack would put every point on it."""
    import numpy as np

    shape = xs.shape
    xs, ys = xs.ravel(), ys.ravel()
    wn = np.zeros(xs.shape, dtype=np.int64)
    on_edge = []
    # The largest finite point coordinate: the others are outside, and an
    # infinite one would make every slack infinite.
    finite = np.isfinite(xs) & np.isfinite(ys)
    reach_x = reach_y = 1.0
    if finite.any():
        reach_x = max(reach_x, float(np.abs(xs[finite]).max()))
        reach_y = max(reach_y, float(np.abs(ys[finite]).max()))
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        edge_sx, edge_sy = max(1.0, abs(p.x), abs(q.x)), max(1.0, abs(p.y), abs(q.y))
        # |cross| is |pq| times the distance to the line, dot |pq| times the
        # distance along it from p.
        tx, ty = _EDGE_TOL * abs(q.x - p.x), _EDGE_TOL * abs(q.y - p.y)
        bound = tx * max(edge_sy, reach_y) + max(edge_sx, reach_x) * ty
        try:
            length2 = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
        except OverflowError:
            length2 = math.inf
        if not (math.isfinite(bound) and math.isfinite(length2)):
            raise InvalidRegionError(
                f"polygon edge ({p.x!r}, {p.y!r}) to ({q.x!r}, {q.y!r}) is too near the "
                "float range to test containment: its squared length or on-edge slack "
                "is not finite")
        is_left = (q.x - p.x) * (ys - p.y) - (xs - p.x) * (q.y - p.y)
        # An edge crosses a point's row upward only if p.y < q.y, downward
        # only if p.y > q.y, and a horizontal one neither way.
        if p.y < q.y:
            wn += (p.y <= ys) & (q.y > ys) & (is_left > 0.0)
        elif p.y > q.y:
            wn -= (p.y > ys) & (q.y <= ys) & (is_left < 0.0)
        # is_left is not needed signed any more: |cross| in place.
        close = np.abs(is_left, out=is_left) <= bound
        if close.any():
            near = np.flatnonzero(close)
            px, py = xs[near], ys[near]
            sx, sy = np.maximum(edge_sx, np.abs(px)), np.maximum(edge_sy, np.abs(py))
            across = tx * sy + sx * ty
            along = sx * tx + sy * ty
            dot = (px - p.x) * (q.x - p.x) + (py - p.y) * (q.y - p.y)
            hit = (is_left[near] <= across) & (dot >= -along) & (dot <= length2 + along)
            on_edge.append(near[hit])
    mask = wn != 0
    mask &= finite
    for idx in on_edge:
        mask[idx] = True
    return mask.reshape(shape)


def _exact_mask(region: Region, xs, ys):
    """The exact tests: in any of the region's leaves.  An infinite
    coordinate makes NaN there, silently: such points are outside."""
    import numpy as np

    with np.errstate(invalid="ignore"):
        return functools.reduce(np.logical_or, (
            (_polygon_mask if isinstance(leaf, Polygon) else _curve_mask)(leaf, xs, ys)
            for leaf in leaves(region)
        ))


def contains_mask(region: Region, xs, ys, _codes=None):
    """Vectorized containment in the closed region over coordinate arrays:
    in any of its leaves.  Points where a boundary curve cannot be
    evaluated are outside.

    A call on more than _GRID_POINTS points reads the region's cell grid
    (``_cell_grid``), and runs the exact tests only on the points
    in boundary cells or off the grid; the mask is the exact one bit for
    bit.  ``_codes``, Monte Carlo's, is each point's code as ``word_codes``
    fills it (one per point, in the order of ``xs.ravel()``), read in place
    of the lookup.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if _codes is not None:
        if _codes.shape != (xs.size,) or xs.shape != ys.shape:
            raise ValueError("contains_mask: _codes needs one code per point")
        return _codes_mask(region, _codes, xs.ravel(), ys.ravel()).reshape(xs.shape)
    if xs.size > _GRID_POINTS and xs.shape == ys.shape:
        grid = _cell_grid(region)
        if grid is not None:
            return _grid_mask(region, grid, xs, ys).reshape(xs.shape)
    return _exact_mask(region, xs, ys)


# ---------------------------------------------------------------------------
# The exterior-axis check and the bounding box
#
# Both guards want the extremes of a linear form over the closed region: of
# a*x + b*y + c for the side check, of x and of y for the box.  A curve
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
# cloud: each curve at _CLOUD_SAMPLES points, so a spike between two
# samples escapes it.

def _distance_at(axis: Axis, cmap: str, c: ExprAst, u: float) -> float | None:
    """The signed distance of the point of curve ``c`` at ``u`` under the
    map ``cmap``, or None where the curve does not evaluate."""
    try:
        v = eval_expr(c, u)
    except DomainError:
        return None
    x, y = plane_point(cmap, u, v)
    return axis.a * x + axis.b * y + axis.c


def _distance_bounds(axis: Axis, cmap: str, c: ExprAst, box: tuple[float, float]):
    """An enclosure of the signed distance along curve ``c`` for u in
    ``box``: a*x + b*y + c by interval arithmetic, v*r*cos(u - phi) + c for
    a sector; unbounded where the curve's enclosure is."""
    v = c.interval(box)
    if not -math.inf < v[0] <= v[1] < math.inf:
        return (-math.inf, math.inf)  # the curve is not bounded there (or NaN)
    k = (axis.c, axis.c)
    if cmap == POLAR:
        # a*cos(u) + b*sin(u) is r*cos(u - phi): u appears once.
        r, phi = math.hypot(axis.a, axis.b), math.atan2(axis.b, axis.a)
        shifted = _isub(box, (_down(_down(phi)), _up(_up(phi))))
        return _iadd(_imul(v, _imul((_down(r), _up(r)), _icos(shifted))), k)
    a, b = (axis.a, axis.a), (axis.b, axis.b)
    x, y = plane_point(cmap, box, v)
    return _iadd(_iadd(_imul(a, x), _imul(b, y)), k)


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
    narrow to split unsettled, the verdict is the sampled one of
    ``_sampled_side``.

    Regions and axes are frozen and compare by value, so the side is cached
    per equal (region, axis).  A refusal is not cached: it is worked out
    again, to the same message, on every call.
    """
    seen: list[float] = []
    arcs = []
    for leaf in leaves(region):
        if isinstance(leaf, Polygon):
            seen += [axis.a * v.x + axis.b * v.y + axis.c for v in leaf.vertices]
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
            return _sampled_side(region, axis)
        if holds:
            return side
    return _side_of(min(seen), max(seen))  # witnesses on both sides: raises


def _pad_interval(lo: float, hi: float) -> tuple[float, float]:
    return (
        lo - _BOX_PAD * max(1.0, abs(lo)),
        hi + _BOX_PAD * max(1.0, abs(hi)),
    )


def _leaf_cloud(leaf: Region):
    """(xs, ys, exact) of one leaf: a polygon's vertices, which are exact,
    or a curve leaf's near and far curves at _CLOUD_SAMPLES points of its
    outer interval (the ends included), carried to the plane, without the
    points where a curve is NaN."""
    import numpy as np

    if isinstance(leaf, Polygon):
        return (np.array([v.x for v in leaf.vertices], dtype=np.float64),
                np.array([v.y for v in leaf.vertices], dtype=np.float64), True)
    u0, u1, near, far = leaf.span
    if math.isfinite(u1 - u0):
        ts = np.linspace(u0, u1, _CLOUD_SAMPLES)
    else:  # np.linspace gives NaN and inf; weights keep each point finite
        k = np.arange(_CLOUD_SAMPLES) / (_CLOUD_SAMPLES - 1)
        ts = u0 - k * u0 + k * u1
    us, vs = np.concatenate([ts, ts]), np.concatenate([eval_array(near, ts), eval_array(far, ts)])
    keep = ~np.isnan(vs)
    return (*plane_point(leaf.map, us[keep], vs[keep], np.cos, np.sin), False)


# Up to 64 regions' boxes.
@functools.lru_cache(maxsize=64)
def _sampled_box(region: Region) -> tuple[float, float, float, float] | None:
    """The min and max of x and of y over each leaf's cloud (``_leaf_cloud``),
    padded by 1e-9 relative on curve leaves; None when no leaf has points.
    The box depends on the region alone; regions are frozen and compare by
    value, so equal regions built separately share one entry."""
    boxes = []
    for lx, ly, exact in map(_leaf_cloud, leaves(region)):
        if lx.size:
            box = (float(lx.min()), float(lx.max()), float(ly.min()), float(ly.max()))
            boxes.append(box if exact else (*_pad_interval(*box[:2]), *_pad_interval(*box[2:])))
    if not boxes:
        return None
    x_lo, x_hi, y_lo, y_hi = zip(*boxes)
    return min(x_lo), max(x_hi), min(y_lo), max(y_hi)


def bounding_box(region: Region) -> tuple[float, float, float, float]:
    """Axis-aligned box (x_lo, x_hi, y_lo, y_hi) of the sampled boundary
    cloud: exact for polygons, padded by 1e-9 relative around curve
    samples."""
    box = _sampled_box(region)
    if box is None:
        raise InvalidRegionError("region produced no sample points")
    return box


def _sampled_side(region: Region, axis: Axis) -> int:
    """The side check over the sampled cloud: the extremes of the signed
    distance at its points.  The leaf clouds are built again on each call."""
    import numpy as np

    bounding_box(region)
    dists = np.concatenate([axis.a * xs + axis.b * ys + axis.c
                            for xs, ys, _ in map(_leaf_cloud, leaves(region))])
    return _side_of(float(dists.min()), float(dists.max()))


# ---------------------------------------------------------------------------
# The cell grid
#
# contains_mask's verdict can change only across the boundary.  The grid
# (built by ``revolve._cells``) marks as boundary every cell that a box
# covering part of the boundary meets, each box widened by a margin far
# above the round-off of the exact tests; every other cell is inside or
# outside throughout, and so are the points that rounding of a cell index
# can bring in.  The margin, 1e-9 times the grid's largest coordinate, is
# also what lets Monte Carlo name a point's cell without the lookup
# (``word_codes``): a point computed from its fraction of the box lies
# within a few ulps of the cell that the fraction names.

_OUTSIDE, _INSIDE, _BOUNDARY = 0, 1, 2


class _CellGrid(NamedTuple):
    x0: float  # the left and lower edges of the border cells
    y0: float
    sx: float  # cells per unit of x and of y
    sy: float
    codes: np.ndarray  # (_GRID + 2)^2 read-only uint8 codes, row (y) major; the border is _BOUNDARY


# Up to 64 regions' grids, of (_GRID + 2)^2 bytes each.
@functools.lru_cache(maxsize=64)
def _cell_grid(region: Region) -> _CellGrid | None:
    """The region's cells over its bounding box, each _INSIDE, _OUTSIDE or
    _BOUNDARY; None where the box has no points or a cell width that is 0
    or not finite.  Cached by value, as ``_sampled_box`` is.  Built by
    ``revolve._cells``, which is compiled only where a grid is built."""
    from ._cells import build

    return build(region)


def _cell_index(values, origin: float, scale: float):
    """The column (or row) of the border-padded grid of each coordinate:
    (values - origin) * scale, clamped to the border cells (NaN to the
    first) where any lies off the grid, and truncated."""
    import numpy as np

    t = np.subtract(values, origin)
    t *= scale
    if not (0.0 <= t.min() and t.max() <= _GRID + 1):  # NaN fails both
        np.fmax(t, 0.0, out=t)
        np.fmin(t, _GRID + 1, out=t)
    return t.astype(np.int32)


def _cell_codes(grid: _CellGrid, xs, ys):
    """The code of each point's cell in ``grid``: row times (_GRID + 2)
    plus column indexes the codes.  The index is built _SLICE points at a
    time, so its temporaries do not grow with the points."""
    import numpy as np

    codes = np.empty(xs.size, dtype=np.uint8)
    with np.errstate(over="ignore"):  # a far coordinate scales to inf, which _cell_index clamps
        for lo in range(0, xs.size, _SLICE):
            part = slice(lo, lo + _SLICE)
            index = _cell_index(ys[part], grid.y0, grid.sy)
            index *= _GRID + 2
            index += _cell_index(xs[part], grid.x0, grid.sx)
            grid.codes.take(index, out=codes[part])
    return codes


def word_codes(region: Region, points: int):
    """Monte Carlo's reading of the region's cell grid, in calls of at most
    ``points`` points: None where ``contains_mask`` on that many points
    reads no grid (at most _GRID_POINTS of them, or the region has none);
    else ``fill(words, out)``.  ``words`` is a block of raw uint64 words, x
    and y interleaved, of either byte order: the point's coordinates are
    x = x_lo + (t * 2^-53) * (x_hi - x_lo), t its x word shifted right by
    11, and y likewise over the bounding box.  ``fill`` writes each point's
    code into ``out`` (a uint8 per point, which ``contains_mask`` reads as
    ``_codes``) and leaves ``words`` as they are.  The cell of the
    fractions u and v is row floor(v*_GRID), column floor(u*_GRID): the top
    bytes of the words.  A point rounded from those products lies within a
    few ulps of the box's coordinates of that cell, far inside the grid's
    margin."""
    import numpy as np

    grid = _cell_grid(region) if points > _GRID_POINTS else None
    if grid is None:
        return None
    assert _GRID == 256, "a cell is named by the top byte of each word"
    table = grid.codes.reshape(_GRID + 2, _GRID + 2)[1:-1, 1:-1].ravel()

    def fill(words, out):
        # The byte that holds a word's top 8 bits: the last of its 8 bytes
        # in little-endian order.
        little = words.dtype.isnative == (sys.byteorder == "little")
        top = words.view(np.uint8)[7 if little else 0::8]
        # row * _GRID + column: a little-endian uint16 whose high byte is
        # the y word's top byte and whose low byte is the x word's.
        index = np.empty(out.size, dtype="<u2")
        halves = index.view(np.uint8)
        halves[0::2], halves[1::2] = top[0::2], top[1::2]
        table.take(index, out=out)

    return fill


def _grid_mask(region: Region, grid: _CellGrid, xs, ys):
    """Containment read off ``grid``, the points' cells found from their
    coordinates (``_cell_codes``)."""
    xs, ys = xs.ravel(), ys.ravel()
    return _codes_mask(region, _cell_codes(grid, xs, ys), xs, ys)


def _codes_mask(region: Region, codes, xs, ys):
    """Containment from each point's cell code, with the exact tests on the
    points of boundary cells (off the grid, NaN and infinite ones are in
    the border, whose cells are boundary).  Its only arrays as long as the
    points are the codes and the mask, a byte per point each."""
    import numpy as np

    mask = codes == _INSIDE
    edge = np.flatnonzero(codes == _BOUNDARY)
    if edge.size:
        mask[edge] = _exact_mask(region, xs[edge], ys[edge])
    return mask
