"""A region's array side: point containment, the sampled box and the cell
grid, on numpy arrays.  ``region`` imports it inside the calls that need it
(``contains_mask``, ``bounding_box`` and the side check's fallback), and
Monte Carlo for ``word_points``, so a job that does none of these compiles
neither it nor numpy.  The sampled box is cached per region, and the cloud
it is read off is built again where the side check falls back to it.

A mask of more than _GRID_POINTS points reads a grid of _GRID x _GRID
cells over the sampled box (``_cell_grid``, cached per region), and runs
the exact tests only on the points in boundary cells or off the grid; the
mask is theirs bit for bit.  The verdict can change only across the
boundary: polygon edges, a curve leaf's near and far curves and its
straight ends, a sector's apex, and where a curve is undefined.  The build
covers each of them by boxes of about _PIECE cells, widened by a margin far
above the round-off of the exact tests and the polygon edge slack, and
marks every cell that a box meets.  No boundary lies within the margin of
an unmarked cell, so the exact mask is constant there.  Unmarked cells side
by side share an edge that no boundary meets, so the mask is constant along
each run of them in a row: the run takes the exact mask's verdict at its
first cell's centre.  A curve box is bounded by the defined-only enclosure;
where the curve may be undefined, the box spans the clipped enclosures of
both curves of its leaf.  The boxes of all curves are bounded and cut a
generation at a time, by the array interval evaluators
(``ExprAst.defined_intervals``), and every box and segment piece is marked
in one pass (``_mark``).
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from . import region as _region  # for region.eval_array, which bench/spans.py counts
from .errors import InvalidRegionError
from .expr import _up
from .geometry import axis_form
from .region import IDENTITY, POLAR, SWAP, Polygon, Region, _probe_values, leaves, plane_point

# Relative slack of the on-edge test for polygons: a distance of _EDGE_TOL
# times the coordinates' size, across and along the edge (_polygon_mask).
_EDGE_TOL = 1e-12

# Samples per boundary curve in the sampled cloud; odd, so the midpoint of
# the outer interval is one of them.
_CLOUD_SAMPLES = 1025
_BOX_PAD = 1e-9

# The cell grid (``_cell_grid``) has _GRID x _GRID cells over the bounding
# box: 2^8, so that Monte Carlo reads a point's cell off the top byte of
# each of its two random words.
_GRID = 256

# A mask on more points than this reads the cell grid.
_GRID_POINTS = 2**14

# _cell_codes builds the cell index of this many points at a time.
_SLICE = 2**14

# Curve boxes one grid may bound; the boxes left are marked as they stand.
_GRID_BOXES = 2048

# The size, in cells, of the pieces that a boundary is cut into, and the
# most pieces one box or segment is cut into at a time.
_PIECE = 1.5
_CUTS = 2 * _GRID

# Margin of every marked box, relative to the grid's largest coordinate (at
# least 1): far above the array evaluator's departures from the scalar one.
_GRID_MARGIN = 1e-9

_OUTSIDE, _INSIDE, _BOUNDARY = 0, 1, 2


# ---------------------------------------------------------------------------
# Containment

def mask(region: Region, xs, ys, codes=None):
    """``region.contains_mask`` over coordinate arrays.  A call on more than
    _GRID_POINTS points reads the region's cell grid; ``codes``, Monte
    Carlo's, is each point's code as ``word_points`` fills it (one per point,
    in the order of ``xs.ravel()``), read in place of the lookup."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if codes is not None:
        if codes.shape != (xs.size,) or xs.shape != ys.shape:
            raise ValueError("contains_mask: _codes needs one code per point")
    elif xs.size > _GRID_POINTS and xs.shape == ys.shape:
        grid = _cell_grid(region)
        codes = None if grid is None else _cell_codes(grid, xs.ravel(), ys.ravel())
    if codes is None:
        return _exact_mask(region, xs, ys)
    # The exact tests on the points of boundary cells only (off the grid,
    # NaN and infinite ones are in the border, whose cells are boundary);
    # the only arrays as long as the points are a byte per point each.
    inside = codes == _INSIDE
    edge = np.flatnonzero(codes == _BOUNDARY)
    if edge.size:
        inside[edge] = _exact_mask(region, xs.ravel()[edge], ys.ravel()[edge])
    return inside.reshape(xs.shape)


def _exact_mask(region: Region, xs, ys):
    """The exact tests: in any of the region's leaves.  An infinite
    coordinate makes NaN there, silently: such points are outside."""
    with np.errstate(invalid="ignore"):
        return functools.reduce(np.logical_or, (
            (_polygon_mask if isinstance(leaf, Polygon) else _curve_mask)(leaf, xs, ys)
            for leaf in leaves(region)
        ))


def _curve_mask(leaf, xs, ys):
    """u_min <= u <= u_max and near(u) <= v <= far(u) at each point's (u, v):
    for a sector, its angle in [theta_min, theta_min + 2*pi) and its radius.
    The apex has no angle; it is inside iff rho_min <= 0 at a construction probe."""
    u_min, u_max, near, far = leaf.span
    if leaf.map == POLAR:
        us = u_min + np.mod(np.arctan2(ys, xs) - u_min, math.tau)
        vs = np.hypot(xs, ys)
    else:
        us, vs = (ys, xs) if leaf.map == SWAP else (xs, ys)
    # One curve sample alive at a time: they are full-length arrays.
    mask = (us >= u_min) & (us <= u_max)
    mask &= vs >= _region.eval_array(near, us)
    mask &= vs <= _region.eval_array(far, us)
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


# ---------------------------------------------------------------------------
# The sampled box

def _pad_interval(lo: float, hi: float) -> tuple[float, float]:
    return lo - _BOX_PAD * max(1.0, abs(lo)), hi + _BOX_PAD * max(1.0, abs(hi))


def _leaf_cloud(leaf: Region):
    """(xs, ys, exact) of one leaf: a polygon's vertices, which are exact,
    or a curve leaf's near and far curves at _CLOUD_SAMPLES points of its
    outer interval (the ends included), carried to the plane, without the
    points where a curve is NaN."""
    if isinstance(leaf, Polygon):
        return (np.array([v.x for v in leaf.vertices], dtype=np.float64),
                np.array([v.y for v in leaf.vertices], dtype=np.float64), True)
    u0, u1, near, far = leaf.span
    if math.isfinite(u1 - u0):
        ts = np.linspace(u0, u1, _CLOUD_SAMPLES)
    else:  # np.linspace gives NaN and inf; weights keep each point finite
        k = np.arange(_CLOUD_SAMPLES) / (_CLOUD_SAMPLES - 1)
        ts = u0 - k * u0 + k * u1
    evaluate = _region.eval_array
    us, vs = np.concatenate([ts, ts]), np.concatenate([evaluate(near, ts), evaluate(far, ts)])
    keep = ~np.isnan(vs)
    return (*plane_point(leaf.map, us[keep], vs[keep], np.cos, np.sin), False)


# Up to 64 regions' boxes.
@functools.lru_cache(maxsize=64)
def sampled_box(region: Region) -> tuple[float, float, float, float] | None:
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


def cloud_distances(region: Region, axis) -> tuple[float, float]:
    """The least and the greatest signed distance from ``axis`` over the
    sampled cloud, built again on each call: the side check's fallback."""
    dists = np.concatenate([axis_form(axis, xs, ys)
                            for xs, ys, _ in map(_leaf_cloud, leaves(region))])
    return float(dists.min()), float(dists.max())


# ---------------------------------------------------------------------------
# The cell grid

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
    or not finite.  Cached by value, as ``sampled_box`` is."""
    box = sampled_box(region)
    if box is None:
        return None
    x_lo, x_hi, y_lo, y_hi = box
    cell_x, cell_y = (x_hi - x_lo) / _GRID, (y_hi - y_lo) / _GRID
    if not all(0.0 < w < math.inf and 1.0 / w < math.inf for w in (cell_x, cell_y)):
        return None
    sx, sy = 1.0 / cell_x, 1.0 / cell_y
    reach = max(1.0, *map(abs, box))
    margin = _GRID_MARGIN * reach
    radius = _up(max(math.hypot(x, y) for x in (x_lo, x_hi) for y in (y_lo, y_hi)))

    # Straight segments: polygon edges and the ends of curve leaves.
    segments = []  # (ax, ay, bx, by, margin) arrays
    boxes = []  # (x lo, x hi, y lo, y hi, margin) arrays, marked as they are
    curves = []
    for leaf in leaves(region):
        if isinstance(leaf, Polygon):
            p = np.array([(v.x, v.y) for v in leaf.vertices], dtype=np.float64).T
            q = np.roll(p, -1, axis=1)
            # The on-edge test reaches at most 2 * _EDGE_TOL * top off the
            # edge, across it and along it.
            top = np.maximum(reach, np.abs(np.concatenate([p, q])).max(axis=0))
            segments.append((*p, *q, margin + 4.0 * _EDGE_TOL * top))
            continue
        u0, u1, near, far = leaf.span
        # A sector's angle is rounded in proportion to its size.
        m = margin * max(1.0, abs(u0), abs(u1)) if leaf.map == POLAR else margin
        near_at, far_at = _probe_values(near, u0, u1), _probe_values(far, u0, u1)
        for i, u in ((0, u0), (-1, u1)):
            segments.append(np.array([*plane_point(leaf.map, u, near_at[i]),
                                      *plane_point(leaf.map, u, far_at[i]), m])[:, None])
        if leaf.map == POLAR:
            boxes.append(np.array([0.0, 0.0, 0.0, 0.0, m])[:, None])
        curves.append((leaf.map, near, far, u0, u1, m))

    with np.errstate(over="ignore", invalid="ignore"):
        if segments:
            boxes.append(_segment_boxes(*(np.concatenate(part) for part in zip(*segments)), sx, sy))
        boxes += _curve_boxes(curves, sx, sy, radius)
        marked = _mark(boxes, x_lo, y_lo, sx, sy)

    # The flat cells alternate between stretches of marked ones, the first
    # and last in the border, and runs of unmarked ones, each in one row.
    ends = np.flatnonzero(marked[1:] != marked[:-1]) + 1
    first, past = ends[0::2], ends[1::2]
    rows, cols = np.divmod(first, _GRID + 2)  # of the border-padded grid
    values = np.full(ends.size + 1, _BOUNDARY, dtype=np.uint8)
    if first.size:  # each run as its first cell's centre: True is _INSIDE, False _OUTSIDE
        centres = x_lo + (cols - 0.5) * cell_x, y_lo + (rows - 0.5) * cell_y
        values[1::2] = _exact_mask(region, *centres)
    bounds = np.concatenate([[0], ends, [marked.size]])
    codes = np.repeat(values, bounds[1:] - bounds[:-1])
    codes.flags.writeable = False
    return _CellGrid(x_lo - cell_x, y_lo - cell_y, sx, sy, codes)


def _curve_boxes(curves: list, sx: float, sy: float, radius: float) -> list:
    """The boxes that cover the near and far curves of the curve leaves
    (cmap, near, far, u0, u1, margin), as (x lo, x hi, y lo, y hi, margin)
    arrays.  Each curve is an arc, and an arc's box is cut in proportion to
    its size, in cells, into pieces of about _PIECE cells, a generation of
    every arc's boxes at a time, while the _GRID_BOXES budget lasts.  Where
    a curve may be undefined, the points of the region lie between the
    clipped enclosures of both curves of its leaf: the box spans them, and
    is cut only until it is that narrow along u."""
    from ._intervals import table

    cos, sin, mul = (table(False)[op][0] for op in ("cos", "sin", "*"))
    # Arc 2i is the near curve of leaf i, arc 2i + 1 its far curve.
    margins = np.repeat([leaf[5] for leaf in curves], 2)
    u_scales = np.repeat([{IDENTITY: sx, SWAP: sy, POLAR: radius * max(sx, sy)}[leaf[0]]
                          for leaf in curves], 2)
    boxes = []
    budget = _GRID_BOXES - 2 * len(curves)
    # The boxes of a generation, grouped by arc in arc order.
    arc = np.arange(2 * len(curves))
    lo, hi = (np.repeat([leaf[k] for leaf in curves], 2) for k in (3, 4))
    while lo.size:
        bounds = []
        # The boxes before each arc: a leaf's are [i, mid) near, [mid, j) far.
        starts = (arc < np.arange(2 * len(curves) + 1)[:, None]).sum(axis=1)
        for (cmap, near, far, *_), i, mid, j in zip(curves, *(starts[k::2] for k in (0, 1, 2))):
            if i == j:
                continue
            u, m = (lo[i:j], hi[i:j]), mid - i
            # Each curve over both arcs' boxes: an arc's own enclosure, and
            # the other's where a box of the other arc may be undefined.
            (n0, n1, near_ok), (f0, f1, far_ok) = (c.defined_intervals(u) for c in (near, far))
            v = [np.concatenate([n[:m], f[m:]]) for n, f in ((n0, f0), (n1, f1))]
            undefined = ~np.concatenate([near_ok[:m], far_ok[m:]])
            if undefined.any():
                bounded = (n0 <= n1) & (f0 <= f1)
                v[0] = np.where(undefined, np.where(bounded, np.minimum(n0, f0), -math.inf), v[0])
                v[1] = np.where(undefined, np.where(bounded, np.maximum(n1, f1), math.inf), v[1])
            (bx0, bx1), (by0, by1) = plane_point(cmap, u, v, cos, sin, mul)
            bounds.append((bx0, bx1, by0, by1, undefined))
        x0, x1, y0, y1, undefined = (bounds[0] if len(bounds) == 1 else
                                     [np.concatenate(part) for part in zip(*bounds)])
        size = np.maximum((x1 - x0) * sx, (y1 - y0) * sy)
        if undefined.any():
            size = np.where(undefined, np.minimum(size, (hi - lo) * u_scales[arc]), size)
        # One budget, spent box by box in the generations' order.
        cuts, budget = _spend(np.ceil(np.fmin(_CUTS, size / _PIECE)), budget)  # NaN reads as large
        keep = cuts < 2.0
        boxes.append((x0[keep], x1[keep], y0[keep], y1[keep], margins[arc[keep]]))
        parent = np.flatnonzero(~keep)
        box, i, n = _pieces(cuts[parent])
        parent = parent[box]
        arc, lo, hi = arc[parent], lo[parent], hi[parent]
        lo, hi = lo + (hi - lo) * (i / n), np.where(i + 1 == n, hi, lo + (hi - lo) * ((i + 1) / n))
    return boxes


def _cell_range(lo, hi, origin: float, scale: float, margin):
    """The cells, of ``scale`` per unit from ``origin``, that each [lo, hi]
    widened by ``margin`` meets, as int32 arrays of the first and the past
    last; all of them where a bound is NaN."""
    t0, t1 = (lo - margin - origin) * scale, (hi + margin - origin) * scale
    first, past = np.floor(np.clip(t0, 0.0, _GRID)), np.floor(np.clip(t1, -1.0, _GRID - 1)) + 1.0
    nan = ~(t0 <= t1)
    if nan.any():
        first[nan], past[nan] = 0.0, _GRID
    return first.astype(np.int32), past.astype(np.int32)


def _mark(boxes, x_lo: float, y_lo: float, sx: float, sy: float):
    """The cells of the border-padded grid, (_GRID + 2)^2 row major, as a
    flat bool array: True in the border and where any of ``boxes`` meets a
    cell.  Each box is arrays (x lo, x hi, y lo, y hi, margin).  The boxes
    over at most 3 x 3 cells, nearly all of them, mark their cells by flat
    index in one pass; each larger one marks its slice."""
    bx0, bx1, by0, by1, m = (np.concatenate(part) for part in zip(*boxes))
    (r0, r1), (c0, c1) = _cell_range(by0, by1, y_lo, sy, m), _cell_range(bx0, bx1, x_lo, sx, m)
    side = _GRID + 2
    marked = np.ones((side, side), dtype=bool)
    marked[1:-1, 1:-1] = False
    h, w = r1 - r0, c1 - c0
    small = (h <= 3) & (w <= 3)
    for i in np.flatnonzero(~small):
        marked[r0[i] + 1:r1[i] + 1, c0[i] + 1:c1[i] + 1] = True
    small &= (h > 0) & (w > 0)
    r0, c0, h, w = r0[small] + 1, c0[small] + 1, h[small], w[small]
    step = np.arange(3, dtype=np.int32)[:, None]
    # Past a box's height or width, its first row or column again.
    rows = np.where(step < h, r0 + step, r0) * side
    cols = np.where(step < w, c0 + step, c0)
    marked = marked.ravel()
    marked[(rows[:, None] + cols).astype(np.intp).ravel()] = True
    return marked


def _pieces(counts):
    """Cut each of len(counts) items into its count of pieces: each
    piece's item, its number among the item's pieces, and its item's
    count, as arrays."""
    counts = counts.astype(np.int64)
    item = np.repeat(np.arange(counts.size), counts)
    return item, np.arange(item.size) - (np.cumsum(counts) - counts)[item], counts[item]


def _segment_boxes(ax, ay, bx, by, m, sx: float, sy: float):
    """The boxes of the straight segments from (ax, ay) to (bx, by), arrays,
    in pieces of about _PIECE cells: (x lo, x hi, y lo, y hi, margin)."""
    dx, dy = bx - ax, by - ay
    steps = np.maximum(np.abs(dx) * sx, np.abs(dy) * sy) / _PIECE
    seg, i, k = _pieces(np.maximum(1.0, np.ceil(np.fmin(_CUTS, steps))))  # NaN reads as large
    px = [ax[seg] + dx[seg] * (j / k) for j in (i, i + 1)]
    py = [ay[seg] + dy[seg] * (j / k) for j in (i, i + 1)]
    return np.minimum(*px), np.maximum(*px), np.minimum(*py), np.maximum(*py), m[seg]


def _spend(want, budget: int):
    """Each box's cut count, and the budget left: a box is cut into
    ``want`` pieces (at least 2) while the budget lasts, in order, and
    into what is left of it at the first box past it, if at least 2; a
    count below 2 leaves the box uncut."""
    spent = np.cumsum(np.where(want >= 2.0, want, 0.0))
    if spent[-1] <= budget:
        return want, budget - int(spent[-1])
    j = np.flatnonzero(spent > budget)[0]
    want[j] = budget - (spent[j] - want[j])
    want[j + 1:] = 0.0
    return want, 0 if want[j] >= 2.0 else int(want[j])


def _cell_index(values, origin: float, scale: float):
    """The column (or row) of the border-padded grid of each coordinate:
    (values - origin) * scale, clamped to the border cells (NaN to the
    first) where any lies off the grid, and truncated."""
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
    codes = np.empty(xs.size, dtype=np.uint8)
    with np.errstate(over="ignore"):  # a far coordinate scales to inf, which _cell_index clamps
        for lo in range(0, xs.size, _SLICE):
            part = slice(lo, lo + _SLICE)
            index = _cell_index(ys[part], grid.y0, grid.sy)
            index *= _GRID + 2
            index += _cell_index(xs[part], grid.x0, grid.sx)
            grid.codes.take(index, out=codes[part])
    return codes


def word_points(region: Region, points: int, box: tuple[float, float, float, float]):
    """Monte Carlo's points over ``box``, the region's bounding box, in calls
    of at most ``points``: ``(fill, coded)``.  ``fill(bits, xs, ys, codes)``
    draws 2 * len(xs) raw words by ``bits.random_raw``, x and y interleaved,
    in either byte order, and writes x = x_lo + (t * 2^-53) * (x_hi - x_lo),
    t the x word shifted right by 11, and y likewise.  ``coded`` is whether
    a mask of that many points reads a cell grid; then ``fill`` writes each
    point's code into ``codes`` too (a uint8 per point, read as ``_codes``)."""
    grid = _cell_grid(region) if points > _GRID_POINTS else None
    table = None if grid is None else grid.codes.reshape(_GRID + 2, _GRID + 2)[1:-1, 1:-1].ravel()
    x_lo, x_hi, y_lo, y_hi = box

    def fill(bits, xs, ys, codes):
        words = bits.random_raw(2 * xs.size)  # no view outlives the call
        if table is not None:
            # The cell of the fractions u and v is row floor(v*_GRID), column
            # floor(u*_GRID): the words' top bytes, the last of 8 in little-
            # endian order.  A point rounded from the products below lies
            # within a few ulps of the box's edges of that cell, far inside
            # the grid's margin.
            little = words.dtype.isnative == (sys.byteorder == "little")
            top = words.view(np.uint8)[7 if little else 0::8]
            # row * _GRID + column: a little-endian uint16, y's top byte high.
            index = np.empty(xs.size, dtype="<u2")
            halves = index.view(np.uint8)
            halves[0::2], halves[1::2] = top[0::2], top[1::2]
            table.take(index, out=codes)
        words >>= 11  # t: below 2^53, so its int64 view is exact
        t = words.view(words.dtype.byteorder + "i8")
        for out, part, lo, hi in ((xs, t[0::2], x_lo, x_hi), (ys, t[1::2], y_lo, y_hi)):
            np.copyto(out, part)  # converts exactly, and fast
            out *= 2.0**-53  # u, exactly
            out *= hi - lo
            out += lo

    assert _GRID == 256, "a cell is named by the top byte of each word"
    return fill, table is not None
