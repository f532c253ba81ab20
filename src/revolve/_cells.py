"""The cell grid's build: ``region._cell_grid`` imports it where a grid is
first built, so a job that reads no grid does not compile it.

contains_mask's verdict can change only across the boundary: polygon
edges, a curve leaf's near and far curves and its straight ends, a
sector's apex, and where a curve is undefined.  ``build`` covers each of
them by boxes of about _PIECE cells, widened by a margin far above the
round-off of the exact tests and the polygon edge slack, and marks every
cell that a box meets.  No boundary lies within the margin of an unmarked
cell, so the exact mask is constant there.  Unmarked cells side by side
share an edge that no boundary meets, so the mask is constant along each
run of them in a row: the run takes the exact mask's verdict at its first
cell's centre.  A curve box is bounded by the defined-only enclosure;
where the curve may be undefined, the box spans the clipped enclosures of
both curves of its leaf.  The boxes of all curves are bounded and cut a
generation at a time, by the array interval evaluators
(``ExprAst.defined_intervals``), and every box and segment piece is marked
in one pass (``_mark``).
"""

from __future__ import annotations

import math

import numpy as np

from ._intervals import table
from .expr import _up
from .region import (
    _BOUNDARY, _EDGE_TOL, _GRID, IDENTITY, POLAR, SWAP, Polygon, Region, _CellGrid, _exact_mask,
    _probe_values, _sampled_box, leaves, plane_point,
)

# Curve boxes one grid may bound; the boxes left are marked as they stand.
_GRID_BOXES = 2048

# The size, in cells, of the pieces that a boundary is cut into, and the
# most pieces one box or segment is cut into at a time.
_PIECE = 1.5
_CUTS = 2 * _GRID

# Margin of every marked box, relative to the grid's largest coordinate (at
# least 1): far above the array evaluator's departures from the scalar one.
_GRID_MARGIN = 1e-9


def build(region: Region) -> _CellGrid | None:
    """The region's cells over its bounding box, each _INSIDE, _OUTSIDE or
    _BOUNDARY; None where the box has no points or a cell width that is 0
    or not finite (``region._cell_grid``, which caches it)."""
    box = _sampled_box(region)
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
