"""Plane regions that can be revolved: normal domains, polar sectors,
polygons, and disjoint unions.

Construction probes every boundary curve at the interval endpoints plus 33
interior points (configurable); curves must evaluate there and the ordering
invariants (lower <= upper, 0 <= rho_min <= rho_max, ...) must hold at every
probe.  Boundary points count as inside: the region is closed, and
containment is exact on polygon edges and at a sector's apex.

Every region is also a list of pieces (``pieces``): an outer interval
[u0, u1], inner bounds near(u) <= v <= far(u), and the map that carries
(u, v) to the plane.  The quadrature and the shell, disk and polar routes
work on pieces, not on the variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import AxisIntersectsRegion, DomainError, InvalidRegionError
from .expr import ExprAst, eval_array, eval_expr, parse_expr
from .geometry import Axis, Point, signed_distance

__all__ = [
    "Curve",
    "curve",
    "NormalX",
    "NormalY",
    "PolarSector",
    "Polygon",
    "UnionRegion",
    "Region",
    "Piece",
    "pieces",
    "plane_map",
    "polygon_slabs",
    "contains",
    "contains_mask",
    "bounding_box",
    "boundary_points",
    "axis_side_check",
]

TWO_PI = 2.0 * math.pi

# Interior probe count used by construction-time invariant checks.
DEFAULT_INTERIOR_PROBES = 33

# Absolute slack for "touching" comparisons (side checks, ordering).
_TOUCH_TOL = 1e-9

# Relative slack (times scale^2) of the on-edge test for polygons.
_EDGE_TOL = 1e-12

_BOX_SAMPLES = 1025
_BOX_PAD = 1e-9

# Maps from a piece's (outer u, inner v) to the plane.
IDENTITY = "identity"  # (x, y) = (u, v)
SWAP = "swap"          # (x, y) = (v, u)
POLAR = "polar"        # (x, y) = (v cos u, v sin u), area element v du dv


@dataclass(frozen=True)
class Curve:
    """A boundary curve y = f(t) given by a parsed expression."""

    ast: ExprAst

    @property
    def variable(self) -> str:
        return self.ast.variable

    @property
    def text(self) -> str:
        return self.ast.text

    def __call__(self, t: float) -> float:
        return eval_expr(self.ast, t)

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; out-of-domain points come back NaN."""
        return eval_array(self.ast, ts)


def curve(text: str, variable: str) -> Curve:
    return Curve(parse_expr(text, variable))


def _probe_points(lo: float, hi: float, interior: int) -> np.ndarray:
    return np.linspace(lo, hi, interior + 2)


def _probe_curve(c: Curve, lo: float, hi: float, interior: int, what: str) -> list[float]:
    values = []
    for t in _probe_points(lo, hi, interior):
        try:
            values.append(c(float(t)))
        except DomainError as exc:
            raise InvalidRegionError(
                f"{what} {c.text!r} is undefined at {c.variable}={float(t)!r}"
            ) from exc
    return values


# ---------------------------------------------------------------------------
# Region variants

class _NormalDomain:
    """Region between two curves of one coordinate u: near(u) <= v <= far(u)
    for u in [u_min, u_max].  NormalX has (x, y) = (u, v); NormalY is its
    transpose, (x, y) = (v, u).  Each subclass names its fields."""

    _var: ClassVar[str]                # the outer coordinate, "x" or "y"
    _curves: ClassVar[tuple[str, str]]  # field names of near and far
    map: ClassVar[str]

    @property
    def span(self) -> tuple[float, float, Curve, Curve]:
        """(u_min, u_max, near, far)."""
        near, far = self._curves
        return (getattr(self, self._var + "_min"), getattr(self, self._var + "_max"),
                getattr(self, near), getattr(self, far))

    def __post_init__(self):
        v, (near_name, far_name) = self._var, self._curves
        for bound in (v + "_min", v + "_max"):
            object.__setattr__(self, bound, float(getattr(self, bound)))
        u_min, u_max, near, far = self.span
        if not (math.isfinite(u_min) and math.isfinite(u_max)):
            raise InvalidRegionError(f"{v} bounds must be finite")
        if not u_min < u_max:
            raise InvalidRegionError(f"{v}_min {u_min!r} must be < {v}_max {u_max!r}")
        lo = _probe_curve(near, u_min, u_max, self.probes, f"{near_name} curve")
        hi = _probe_curve(far, u_min, u_max, self.probes, f"{far_name} curve")
        for t, a, b in zip(_probe_points(u_min, u_max, self.probes), lo, hi):
            if a > b + _TOUCH_TOL:
                raise InvalidRegionError(
                    f"{near_name} > {far_name} at {v}={float(t)!r} ({a!r} > {b!r})"
                )


@dataclass(frozen=True)
class NormalX(_NormalDomain):
    """Region between y = lower(x) and y = upper(x) for x in [x_min, x_max]."""

    x_min: float
    x_max: float
    lower: Curve
    upper: Curve
    probes: int = field(default=DEFAULT_INTERIOR_PROBES, compare=False)

    _var = "x"
    _curves = ("lower", "upper")
    map = IDENTITY


@dataclass(frozen=True)
class NormalY(_NormalDomain):
    """Region between x = left(y) and x = right(y) for y in [y_min, y_max]."""

    y_min: float
    y_max: float
    left: Curve
    right: Curve
    probes: int = field(default=DEFAULT_INTERIOR_PROBES, compare=False)

    _var = "y"
    _curves = ("left", "right")
    map = SWAP


@dataclass(frozen=True)
class PolarSector:
    """Region rho_min(theta) <= rho <= rho_max(theta), theta_min <= theta <= theta_max."""

    theta_min: float
    theta_max: float
    rho_min: Curve
    rho_max: Curve
    probes: int = field(default=DEFAULT_INTERIOR_PROBES, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "theta_min", float(self.theta_min))
        object.__setattr__(self, "theta_max", float(self.theta_max))
        width = self.theta_max - self.theta_min
        if not (math.isfinite(self.theta_min) and math.isfinite(self.theta_max)):
            raise InvalidRegionError("theta bounds must be finite")
        if not 0.0 < width <= TWO_PI + 1e-12:
            raise InvalidRegionError(
                f"theta_max - theta_min must be in (0, 2*pi], got {width!r}"
            )
        rmin = _probe_curve(self.rho_min, self.theta_min, self.theta_max, self.probes, "rho_min")
        rmax = _probe_curve(self.rho_max, self.theta_min, self.theta_max, self.probes, "rho_max")
        for t, a, b in zip(_probe_points(self.theta_min, self.theta_max, self.probes), rmin, rmax):
            if a < -_TOUCH_TOL:
                raise InvalidRegionError(f"rho_min < 0 at theta={float(t)!r} ({a!r})")
            if a > b + _TOUCH_TOL:
                raise InvalidRegionError(f"rho_min > rho_max at theta={float(t)!r}")


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, vertices in counterclockwise order."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise InvalidRegionError("polygon needs at least 3 vertices")
        if _shoelace_area(verts) <= 0.0:
            raise InvalidRegionError("polygon must be counterclockwise (positive area)")
        if not _is_simple(verts):
            raise InvalidRegionError("polygon edges self-intersect")


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# Polygon helpers

def _shoelace_area(verts: tuple[Point, ...]) -> float:
    acc = 0.0
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        acc += p.x * q.y - q.x * p.y
    return 0.5 * acc


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
    neighbour may run straight on, but not fold back along the edge."""
    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i, (a, b) in enumerate(edges):
        c = edges[(i + 1) % n][1]
        forward = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
        if _orient(a, b, c) == 0.0 and forward < 0.0:
            return False
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # the closing edge is edge 0's other neighbour
            if _segments_meet(a, b, *edges[j]):
                return False
    return True


def _edge_interp(p: Point, q: Point):
    slope = (q.y - p.y) / (q.x - p.x)
    return lambda x: p.y + slope * (x - p.x)


def _slabs(verts) -> list:
    """x-slabs of the polygon with these vertices; see polygon_slabs."""
    n = len(verts)
    cuts = sorted({v.x for v in verts})
    slabs = []
    for xa, xb in zip(cuts, cuts[1:]):
        mid = 0.5 * (xa + xb)
        covering = []
        for i in range(n):
            p, q = verts[i], verts[(i + 1) % n]
            if p.x == q.x:
                continue
            if min(p.x, q.x) <= xa and max(p.x, q.x) >= xb:
                covering.append((_edge_interp(p, q)(mid), p, q))
        covering.sort(key=lambda item: item[0])
        if len(covering) % 2:
            raise InvalidRegionError(
                f"polygon slab [{xa!r}, {xb!r}] has an odd edge count"
            )
        for j in range(0, len(covering), 2):
            slabs.append(
                (
                    xa,
                    xb,
                    _edge_interp(covering[j][1], covering[j][2]),
                    _edge_interp(covering[j + 1][1], covering[j + 1][2]),
                )
            )
    return slabs


def polygon_slabs(poly: Polygon):
    """Cut a simple polygon at every vertex abscissa into x-slabs, each
    bounded below/above by linear edge sections.

    Returns a list of (x_lo, x_hi, lower_fn, upper_fn).
    """
    return _slabs(poly.vertices)


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


def plane_map(cmap: str) -> Callable[[float, float], Point]:
    """The function (u, v) -> Point of the map ``cmap``."""
    if cmap == POLAR:
        return lambda u, v: Point(v * math.cos(u), v * math.sin(u))
    if cmap == SWAP:
        return lambda u, v: Point(v, u)
    return Point


def pieces(region: Region, swap: bool = False) -> list[Piece]:
    """The region as a list of pieces: one for a normal domain or a sector,
    one per slab for a polygon (x-slabs, or y-slabs with map SWAP when
    ``swap``), and the parts' pieces in order for a union."""
    if isinstance(region, _NormalDomain):
        return [Piece(*region.span, region.map)]
    if isinstance(region, PolarSector):
        return [Piece(region.theta_min, region.theta_max, region.rho_min, region.rho_max, POLAR)]
    if isinstance(region, Polygon):
        if swap:
            # The x-slabs of the mirror image in y = x, listed counterclockwise.
            mirrored = [Point(v.y, v.x) for v in reversed(region.vertices)]
            return [Piece(*slab, SWAP) for slab in _slabs(mirrored)]
        return [Piece(*slab, IDENTITY) for slab in polygon_slabs(region)]
    if isinstance(region, UnionRegion):
        return [piece for part in region.parts for piece in pieces(part, swap)]
    raise TypeError(f"not a region: {region!r}")


# ---------------------------------------------------------------------------
# Containment

def contains(region: Region, p: Point) -> bool:
    """True iff ``p`` lies in the closed region: ``contains_mask`` at one
    point."""
    return bool(contains_mask(region, np.array([p.x]), np.array([p.y]))[0])


def _normal_mask(region: _NormalDomain, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    u_min, u_max, near, far = region.span
    us, vs = (ys, xs) if region.map == SWAP else (xs, ys)
    lo = near.sample(us)
    hi = far.sample(us)
    return (us >= u_min) & (us <= u_max) & (vs >= lo) & (vs <= hi)


def _sector_mask(region: PolarSector, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    rho = np.hypot(xs, ys)
    theta = np.arctan2(ys, xs)
    rel = np.mod(theta - region.theta_min, TWO_PI)
    tn = region.theta_min + rel
    rmin = region.rho_min.sample(tn)
    rmax = region.rho_max.sample(tn)
    mask = (tn <= region.theta_max) & (rho >= rmin) & (rho <= rmax)
    apex = rho == 0.0
    if apex.any():
        # The apex has no angle: it belongs to the sector iff rho_min
        # reaches zero at one of the construction probes.
        mask[apex] = any(
            region.rho_min(float(t)) <= 0.0
            for t in _probe_points(region.theta_min, region.theta_max, region.probes)
        )
    return mask


def _polygon_mask(poly: Polygon, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Nonzero winding number, or on an edge: |cross| <= 1e-12 * scale^2 and
    the projection within the edge, with scale = max(1, |coordinates| of the
    edge and the point).  The edge test runs only on the points within the
    slack of the edge's line at the largest scale present."""
    shape = xs.shape
    xs, ys = xs.ravel(), ys.ravel()
    wn = np.zeros(xs.shape, dtype=np.int64)
    on_edge = []
    # The largest point coordinate, NaN points ignored (they are outside).
    reach = 1.0
    if xs.size:
        reach = max(reach, -np.fmin.reduce(xs), np.fmax.reduce(xs),
                    -np.fmin.reduce(ys), np.fmax.reduce(ys))
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        is_left = (q.x - p.x) * (ys - p.y) - (xs - p.x) * (q.y - p.y)
        wn += (p.y <= ys) & (q.y > ys) & (is_left > 0.0)
        wn -= (p.y > ys) & (q.y <= ys) & (is_left < 0.0)
        edge_scale = max(1.0, abs(p.x), abs(p.y), abs(q.x), abs(q.y))
        top = max(edge_scale, reach)
        bound = _EDGE_TOL * top * top
        # is_left is not needed signed any more: |cross| in place.
        close = np.abs(is_left, out=is_left) <= bound
        if close.any():
            near = np.flatnonzero(close)
            px, py = xs[near], ys[near]
            scale = np.maximum(edge_scale, np.maximum(np.abs(px), np.abs(py)))
            slack = _EDGE_TOL * scale * scale
            dot = (px - p.x) * (q.x - p.x) + (py - p.y) * (q.y - p.y)
            length2 = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
            hit = (is_left[near] <= slack) & (dot >= -slack) & (dot <= length2 + slack)
            on_edge.append(near[hit])
    mask = wn != 0
    for idx in on_edge:
        mask[idx] = True
    return mask.reshape(shape)


def contains_mask(region: Region, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized containment in the closed region over coordinate arrays.
    Points where a boundary curve cannot be evaluated are outside."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if isinstance(region, _NormalDomain):
        return _normal_mask(region, xs, ys)
    if isinstance(region, PolarSector):
        return _sector_mask(region, xs, ys)
    if isinstance(region, Polygon):
        return _polygon_mask(region, xs, ys)
    if isinstance(region, UnionRegion):
        mask = contains_mask(region.parts[0], xs, ys)
        for part in region.parts[1:]:
            mask = mask | contains_mask(part, xs, ys)
        return mask
    raise TypeError(f"not a region: {region!r}")


# ---------------------------------------------------------------------------
# Bounding boxes

def _pad_interval(lo: float, hi: float) -> tuple[float, float]:
    return (
        lo - _BOX_PAD * max(1.0, abs(lo)),
        hi + _BOX_PAD * max(1.0, abs(hi)),
    )


def bounding_box(region: Region) -> tuple[float, float, float, float]:
    """Conservative axis-aligned box (x_lo, x_hi, y_lo, y_hi).

    Curve-bounded variants probe 1025 parameter points and pad by 1e-9
    relative; polygons are exact.
    """
    if isinstance(region, _NormalDomain):
        u_min, u_max, near, far = region.span
        ts = np.linspace(u_min, u_max, _BOX_SAMPLES)
        u_box = _pad_interval(u_min, u_max)
        v_box = _pad_interval(float(np.nanmin(near.sample(ts))), float(np.nanmax(far.sample(ts))))
        return (*v_box, *u_box) if region.map == SWAP else (*u_box, *v_box)
    if isinstance(region, PolarSector):
        ts = np.linspace(region.theta_min, region.theta_max, _BOX_SAMPLES)
        cos_t, sin_t = np.cos(ts), np.sin(ts)
        xs, ys = [], []
        for r in (region.rho_min.sample(ts), region.rho_max.sample(ts)):
            xs.append(r * cos_t)
            ys.append(r * sin_t)
        x_all = np.concatenate(xs)
        y_all = np.concatenate(ys)
        return (
            *_pad_interval(float(np.nanmin(x_all)), float(np.nanmax(x_all))),
            *_pad_interval(float(np.nanmin(y_all)), float(np.nanmax(y_all))),
        )
    if isinstance(region, Polygon):
        xs = [v.x for v in region.vertices]
        ys = [v.y for v in region.vertices]
        return (min(xs), max(xs), min(ys), max(ys))
    if isinstance(region, UnionRegion):
        boxes = [bounding_box(part) for part in region.parts]
        return (
            min(b[0] for b in boxes),
            max(b[1] for b in boxes),
            min(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )
    raise TypeError(f"not a region: {region!r}")


# ---------------------------------------------------------------------------
# Boundary sampling and the exterior-axis check

def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def boundary_points(region: Region, n: int = 256) -> list[Point]:
    """About ``n`` points spread over the region boundary.  Points whose
    curve evaluation fails are skipped."""
    pts: list[Point] = []
    if isinstance(region, (_NormalDomain, PolarSector)):
        [(lo, hi, near, far, cmap)] = pieces(region)
        to_plane = plane_map(cmap)
        k = max(2, n // 4)
        ts = np.linspace(lo, hi, k)
        for c in (near, far):
            for t, v in zip(ts, c.sample(ts)):
                if math.isfinite(v):
                    pts.append(to_plane(float(t), float(v)))
        for t_end in (lo, hi):
            try:
                va, vb = near(t_end), far(t_end)
            except DomainError:
                continue
            for s in np.linspace(0.0, 1.0, k):
                pts.append(to_plane(t_end, _lerp(va, vb, float(s))))
        return pts
    if isinstance(region, Polygon):
        verts = region.vertices
        m = len(verts)
        lengths = []
        for i in range(m):
            p, q = verts[i], verts[(i + 1) % m]
            lengths.append(math.hypot(q.x - p.x, q.y - p.y))
        perimeter = sum(lengths) or 1.0
        for i in range(m):
            p, q = verts[i], verts[(i + 1) % m]
            k = max(2, round(n * lengths[i] / perimeter))
            for s in np.linspace(0.0, 1.0, k, endpoint=False):
                pts.append(Point(_lerp(p.x, q.x, float(s)), _lerp(p.y, q.y, float(s))))
        return pts
    if isinstance(region, UnionRegion):
        per_part = max(16, n // len(region.parts))
        for part in region.parts:
            pts.extend(boundary_points(part, per_part))
        return pts
    raise TypeError(f"not a region: {region!r}")


def axis_side_check(region: Region, axis: Axis, grid: int = 64, boundary: int = 256) -> int:
    """Which side of ``axis`` the region lies on: +1 or -1.

    Samples signed distance on a grid of contained points plus boundary
    probes.  Touching the axis (within 1e-9) is allowed; strictly mixed
    signs raise AxisIntersectsRegion.
    """
    x_lo, x_hi, y_lo, y_hi = bounding_box(region)
    gx, gy = np.meshgrid(np.linspace(x_lo, x_hi, grid), np.linspace(y_lo, y_hi, grid))
    gx, gy = gx.ravel(), gy.ravel()
    mask = contains_mask(region, gx, gy)
    dists = axis.a * gx[mask] + axis.b * gy[mask] + axis.c
    samples = list(dists)
    samples.extend(signed_distance(axis, p) for p in boundary_points(region, boundary))
    if not samples:
        raise InvalidRegionError("region produced no sample points")
    d_min, d_max = min(samples), max(samples)
    if d_min >= -_TOUCH_TOL:
        return 1
    if d_max <= _TOUCH_TOL:
        return -1
    raise AxisIntersectsRegion(
        f"axis meets the region: signed distances span [{d_min!r}, {d_max!r}]"
    )
