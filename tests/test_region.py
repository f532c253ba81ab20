import math
import random

import numpy as np
import pytest

import revolve as rv
from revolve.errors import AxisIntersectsRegion, InvalidRegionError
from revolve import _cells, region as region_module
from revolve.config import load_job, parse_job, region_doc
from revolve._intervals import _icos, _imul, _isin
from revolve.region import IDENTITY, POLAR, SWAP, leaves, pieces, plane_point

from conftest import FIXTURES
from helpers import (
    AXIS_OY,
    cone_triangle,
    random_polygon_vertices,
    ref_axis_side_check,
    ref_cell_index,
    ref_is_simple,
    ref_slabs,
    regular_polygon,
    sector_disk_union,
    sector_polar,
    straddling_disk_x,
    torus_normal_x,
    unit_square_polygon,
)


def quarter_disk():
    return rv.PolarSector(0.0, math.pi / 2, rv.curve("0", "theta"), rv.curve("1", "theta"))


def _scalar_polygon_contains(poly, x, y):
    """Reference rule for polygon containment, one point at a time: on an
    edge or a nonzero winding number.  On an edge ab: the distance to its
    line within 1e-12 * (sx*|n_x| + sy*|n_y|), n the unit normal, and the
    projection within the edge up to 1e-12 * (sx*|t_x| + sy*|t_y|) along
    it, t the unit direction, where sx is the largest |x| of a, b and the
    point, at least 1, and sy likewise."""
    wn = 0
    verts = poly.vertices
    for a, b in zip(verts, verts[1:] + verts[:1]):
        sx = max(1.0, abs(a.x), abs(b.x), abs(x))
        sy = max(1.0, abs(a.y), abs(b.y), abs(y))
        tx, ty = 1e-12 * abs(b.x - a.x), 1e-12 * abs(b.y - a.y)
        cross = (b.x - a.x) * (y - a.y) - (x - a.x) * (b.y - a.y)
        dot = (x - a.x) * (b.x - a.x) + (y - a.y) * (b.y - a.y)
        along = sx * tx + sy * ty
        if (abs(cross) <= tx * sy + sx * ty
                and -along <= dot <= (b.x - a.x) ** 2 + (b.y - a.y) ** 2 + along):
            return True
        if a.y <= y < b.y and cross > 0.0:
            wn += 1
        elif b.y <= y < a.y and cross < 0.0:
            wn -= 1
    return wn != 0


class TestContains:
    def test_quarter_disk(self):
        region = quarter_disk()
        assert rv.contains(region, rv.Point(0.5, 0.5))
        assert not rv.contains(region, rv.Point(1.1, 0.0))

    def test_sector_outside_radius(self):
        # (0.9, -0.9) is at angle -pi/4 (inside) but rho ~ 1.27 (outside)
        assert not rv.contains(sector_polar(), rv.Point(0.9, -0.9))
        assert rv.contains(sector_polar(), rv.Point(0.7, -0.7))

    def test_origin_in_sector_with_zero_inner_radius(self):
        assert rv.contains(sector_polar(), rv.Point(0.0, 0.0))
        annulus = rv.PolarSector(0.0, math.pi, rv.curve("1", "theta"), rv.curve("2", "theta"))
        assert not rv.contains(annulus, rv.Point(0.0, 0.0))

    def test_sector_crossing_angle_seam(self):
        region = rv.PolarSector(3 * math.pi / 4, 5 * math.pi / 4,
                                rv.curve("0", "theta"), rv.curve("1", "theta"))
        assert rv.contains(region, rv.Point(-0.5, 0.0))
        assert rv.contains(region, rv.Point(-0.5, -0.01))  # atan2 jumps at pi
        assert not rv.contains(region, rv.Point(0.5, 0.0))

    def test_normal_x_boundaries_inside(self):
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1-x", "x"))
        assert rv.contains(region, rv.Point(0.0, 0.0))
        assert rv.contains(region, rv.Point(0.5, 0.5))
        assert not rv.contains(region, rv.Point(0.5, 0.51))
        assert not rv.contains(region, rv.Point(-0.01, 0.0))

    def test_polygon_boundary_inside(self):
        square = unit_square_polygon()
        assert rv.contains(square, rv.Point(1.5, 0.0))  # edge midpoint
        assert rv.contains(square, rv.Point(1.0, 0.0))  # vertex
        assert rv.contains(square, rv.Point(1.5, 0.5))
        assert not rv.contains(square, rv.Point(0.999, 0.5))

    def test_concave_polygon(self):
        ell = rv.Polygon((rv.Point(0, 0), rv.Point(2, 0), rv.Point(2, 1),
                          rv.Point(1, 1), rv.Point(1, 2), rv.Point(0, 2)))
        assert rv.contains(ell, rv.Point(0.5, 1.5))
        assert rv.contains(ell, rv.Point(1.5, 0.5))
        assert not rv.contains(ell, rv.Point(1.5, 1.5))

    def test_polygon_point_at_an_infinite_coordinate_is_outside(self):
        # The on-edge slack scales with the point's coordinates; an infinite
        # one must not make it infinite.
        triangle = rv.Polygon((rv.Point(2, -3), rv.Point(5, -2), rv.Point(2, -1)))
        bad = [(math.inf, -2.0), (-math.inf, -2.0), (3.0, math.inf), (3.0, -math.inf),
               (math.inf, math.inf), (math.nan, -2.0)]
        xs, ys = (np.array(v) for v in zip(*bad, (3.0, -2.0)))
        assert rv.contains_mask(triangle, xs, ys).tolist() == [False] * len(bad) + [True]
        # More than _GRID_POINTS points: the grid sends them to the exact
        # test.
        rng = np.random.default_rng(3)
        n = _cells._GRID_POINTS
        xs = np.concatenate([np.resize(xs, 600), rng.uniform(1.5, 5.5, n)])
        ys = np.concatenate([np.resize(ys, 600), rng.uniform(-3.5, -0.5, n)])
        assert xs.size > _cells._GRID_POINTS
        mask = rv.contains_mask(triangle, xs, ys)
        assert not mask[:600][np.resize([True] * len(bad) + [False], 600)].any()
        assert mask[:600][np.resize([False] * len(bad) + [True], 600)].all()
        assert (mask == _cells._exact_mask(triangle, xs, ys)).all()

    def test_union_is_disjunction(self):
        union = rv.UnionRegion((unit_square_polygon(), cone_triangle()))
        assert rv.contains(union, rv.Point(0.2, 0.2))
        assert rv.contains(union, rv.Point(1.5, 0.5))
        assert not rv.contains(union, rv.Point(0.9, 0.9))

    @pytest.mark.parametrize("region, inside", [
        (quarter_disk(), lambda x, y: x >= 0 and y >= 0 and x * x + y * y <= 1),
        (unit_square_polygon(), lambda x, y: 1 <= x <= 2 and 0 <= y <= 1),
        (torus_normal_x(), lambda x, y: (x - 2) ** 2 + y * y <= 1),
        (rv.NormalY(-1.0, 1.0, rv.curve("y^2", "y"), rv.curve("2", "y")),
         lambda x, y: -1 <= y <= 1 and y * y <= x <= 2),
        (rv.UnionRegion((cone_triangle(), unit_square_polygon())),
         lambda x, y: (x >= 0 and y >= 0 and x + y <= 1) or (1 <= x <= 2 and 0 <= y <= 1)),
    ], ids=["quarter_disk", "square", "torus", "normal_y", "union"])
    def test_mask_matches_construction(self, region, inside):
        # A quarter-step grid over the box and beyond: it holds the corners,
        # edge points and curve points whose answer is exact by construction.
        ticks = np.arange(-8, 17) / 4.0
        xs, ys = (g.ravel() for g in np.meshgrid(ticks, ticks - 2.0))
        want = [bool(inside(x, y)) for x, y in zip(xs, ys)]
        assert list(rv.contains_mask(region, xs, ys)) == want
        assert [rv.contains(region, rv.Point(x, y)) for x, y in zip(xs, ys)] == want

    def test_mask_is_closed_on_polygon_edges(self):
        square = unit_square_polygon()  # [1, 2] x [0, 1]
        t = np.linspace(0.0, 1.0, 9)
        right = rv.contains_mask(square, np.full(9, 2.0), t)
        top = rv.contains_mask(square, 1.0 + t, np.full(9, 1.0))
        assert right.all() and top.all()
        outside = rv.contains_mask(square, np.full(9, 2.0 + 1e-9), t)
        assert not outside.any()

    def test_mask_on_edges_at_large_scale(self):
        big = rv.Polygon((rv.Point(1e6, 0), rv.Point(3e6, 1e6), rv.Point(1e6, 2e6)))
        t = np.linspace(0.0, 1.0, 7)
        xs, ys = 1e6 + 2e6 * t, 1e6 * t  # the lower edge
        assert rv.contains_mask(big, xs, ys).all()
        assert not rv.contains_mask(big, xs[1:-1], ys[1:-1] - 1.0).any()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 37.0, 1e6])
    def test_polygon_mask_matches_scalar_reference(self, scale):
        rng = np.random.default_rng(int(scale * 1000) % 9973)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=9))
        radii = rng.uniform(0.5, 1.5, size=9)
        poly = rv.Polygon(tuple(rv.Point(scale * (3 + r * math.cos(a)), scale * (r * math.sin(a) - 2))
                                for r, a in zip(radii, angles)))
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(poly)
        pts = list(zip(rng.uniform(x_lo, x_hi, 500), rng.uniform(y_lo, y_hi, 500)))
        verts = poly.vertices
        for p, q in zip(verts, verts[1:] + verts[:1]):
            length = math.hypot(q.x - p.x, q.y - p.y)
            nx, ny = (p.y - q.y) / length, (q.x - p.x) / length
            for t in (-1e-13, 0.0, 0.37, 0.5, 1.0, 1.0 + 1e-13, 1.0 + 1e-9):
                for off in (0.0, 5e-13, -5e-13, 1e-12, -1e-9, 1e-9):
                    pts.append((p.x + (q.x - p.x) * t + off * scale * nx,
                                p.y + (q.y - p.y) * t + off * scale * ny))
        xs, ys = np.array(pts).T
        want = [_scalar_polygon_contains(poly, x, y) for x, y in pts]
        assert list(rv.contains_mask(poly, xs, ys)) == want

    def test_mask_holds_the_sector_apex(self):
        apex = np.zeros(1), np.zeros(1)
        wedge = rv.PolarSector(math.pi / 2, math.pi, rv.curve("0", "theta"), rv.curve("1", "theta"))
        assert rv.contains_mask(wedge, *apex)[0]
        annulus = rv.PolarSector(math.pi / 2, math.pi, rv.curve("1", "theta"), rv.curve("2", "theta"))
        assert not rv.contains_mask(annulus, *apex)[0]

    def test_mask_of_scalar_coordinates(self):
        # 0-d input gives a 0-d mask, the apex included.
        sector = rv.PolarSector(0, 1, rv.curve("0", "theta"), rv.curve("1", "theta"))
        assert rv.contains_mask(sector, 0.0, 0.0)
        for x, y in ((0.0, 0.0), (0.5, 0.2), (-0.5, 0.2)):
            assert bool(rv.contains_mask(sector, x, y)) == rv.contains(sector, rv.Point(x, y))


    @pytest.mark.parametrize("vertices", [
        [[0, 0], [1e155, 0], [1e155, 1], [0, 1]],  # the squared edge length overflows
        [[1e200, 0], [1.0000000001e200, 0], [1e200, 1]],  # so does a thin triangle's
    ])
    # The exact tests, and the cell grid.
    @pytest.mark.parametrize("count", [3, 5000, _cells._GRID_POINTS + 1])
    def test_polygon_near_float_range_is_refused(self, vertices, count):
        # An infinite slack would put every point on an edge.
        poly = rv.Polygon(tuple(rv.Point(x, y) for x, y in vertices))
        xs = np.linspace(vertices[0][0], vertices[1][0], count)
        with pytest.raises(InvalidRegionError, match="too near the float range"):
            rv.contains_mask(poly, xs, np.full(count, 0.5))

    def test_polygon_far_out_but_in_range_is_tested(self):
        poly = rv.Polygon((rv.Point(0, 0), rv.Point(1e150, 0), rv.Point(1e150, 1),
                           rv.Point(0, 1)))
        assert rv.contains(poly, rv.Point(5e149, 0.5))

    # The exact tests, on one point and on many, and the cell grid.
    @pytest.mark.parametrize("count", [1, 5000, _cells._GRID_POINTS + 1])
    def test_on_edge_slack_is_a_distance_from_the_edge(self, count):
        # The slack is 1e-12 of the coordinates' size across the edge: the
        # y of a long flat edge, the x of a short upright one.
        rect = rv.Polygon((rv.Point(0, 0), rv.Point(1e150, 0), rv.Point(1e150, 1),
                           rv.Point(0, 1)))
        triangle = rv.Polygon((rv.Point(0, 0), rv.Point(1e10, 0), rv.Point(1e10, 1)))
        cases = [
            (rect, (3e150, 0.5), False), (rect, (5e149, 7.0), False), (rect, (5e149, 1.0), True),
            (rect, (1e150, 0.5), True), (rect, (5e149, 0.0), True), (rect, (0.0, 1.0), True),
            (triangle, (5e9, 0.505), False), (triangle, (5e9, 0.5 + 1e-9), False),
            (triangle, (5e9, 0.5), True), (triangle, (1e10, 0.25), True),
            (triangle, (2.5e9, 0.25), True), (triangle, (1e10 + 1e-3, 0.5), True),
            (triangle, (1e10 + 0.1, 0.5), False),
        ]
        for region, (x, y), inside in cases:
            assert rv.contains(region, rv.Point(x, y)) is inside, (x, y)
            mask = rv.contains_mask(region, np.full(count, x), np.full(count, y))
            assert mask.all() if inside else not mask.any(), (x, y)


def _star(n, scale=1.0, seed=3):
    """A polygon star-shaped about (3, -2) * scale, of n vertices."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
    radii = rng.uniform(0.5, 1.5, size=n)
    return rv.Polygon(tuple(rv.Point(scale * (3 + r * math.cos(a)), scale * (r * math.sin(a) - 2))
                            for r, a in zip(radii, angles)))


def _gap_region():
    # upper is undefined on a column about 1.7e-4 wide, between two probes.
    return rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                      rv.curve("2 + sqrt(1 - 2*exp(-((x-0.5001)/0.0001)^2))", "x"))


def _spike_region():
    return rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                      rv.curve("1 + 3*exp(-((x-0.50048828125)/0.0002)^2)", "x"))


def _full_sector():
    return rv.PolarSector(-1.0, -1.0 + 2.0 * math.pi, rv.curve("0", "theta"),
                          rv.curve("1 + 0.3*cos(3*theta) + 0.1*theta", "theta"))


def _short_edge_tip():
    # A triangle whose tip is an edge 1e-7 long, 3e-6 below a row of cells.
    # The on-edge slack is a distance, about 1e-12 off any edge whatever its
    # length.  The square sets the box to [0.2, 0.8] x [0.1, 1].
    top = 0.1 + 13 * 0.9 / 64 - 3e-6
    tip = rv.Polygon((rv.Point(0.2, 0.1), rv.Point(0.8, 0.1), rv.Point(0.5, top),
                      rv.Point(0.5 - 1e-7, top)))
    square = rv.Polygon((rv.Point(0.7, 0.9), rv.Point(0.8, 0.9), rv.Point(0.8, 1.0),
                         rv.Point(0.7, 1.0)))
    return rv.UnionRegion((tip, square))


_GRID_REGIONS = {
    "quarter_disk": quarter_disk,
    "sector_polar": sector_polar,
    "sector_disk_union": sector_disk_union,
    "full_sector": _full_sector,
    "annulus": lambda: rv.PolarSector(1.8125, 4.0625, rv.curve("0.625", "theta"),
                                      rv.curve("1.3125", "theta")),
    "torus_x": torus_normal_x,
    "disk_y": lambda: rv.NormalY(-3.0, -0.75, rv.curve("2.1875 - sqrt(1.265625-(y+1.875)^2)", "y"),
                                 rv.curve("2.1875 + sqrt(1.265625-(y+1.875)^2)", "y")),
    "oscillating": lambda: rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                                      rv.curve("1 + 0.5*sin(1537*pi*x)^64", "x")),
    "spike": _spike_region,
    "gap": _gap_region,
    "square": unit_square_polygon,
    "star10": lambda: _star(10),
    "star_tiny": lambda: _star(9, 1e-3),
    "star_large": lambda: _star(9, 1e6),
    "short_edge_tip": _short_edge_tip,
    "concave_union": lambda: rv.UnionRegion((cone_triangle(), unit_square_polygon(), _star(7, 0.3))),
}


def _grid_matches_exact(region, xs, ys):
    """The grid's mask, asserted equal to the exact tests' bit for bit."""
    xs, ys = np.asarray(xs, dtype=np.float64).ravel(), np.asarray(ys, dtype=np.float64).ravel()
    grid = _cells._cell_grid(region)
    assert grid is not None
    got = _cells.mask(region, xs, ys, _cells._cell_codes(grid, xs, ys))
    want = _cells._exact_mask(region, xs, ys)
    assert got.dtype == want.dtype == np.bool_
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, list(zip(xs[bad][:5].tolist(), ys[bad][:5].tolist()))
    return got


def _cell_edge_words():
    """Raw 64-bit words at every cell edge j * 2^56 of the top byte, and 1
    and 2 either side of it (wrapping below 0)."""
    edges = np.arange(_cells._GRID, dtype=np.uint64) << np.uint64(56)
    return np.concatenate([edges + np.uint64(d) for d in (0, 1, 2)]
                          + [edges - np.uint64(d) for d in (1, 2)])


def _random_words(rng, n):
    return rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)


class _Stream:
    """Philox's ``random_raw`` over given words: copies of the next ``n``,
    in their own byte order."""

    def __init__(self, words):
        self.words, self.at = words, 0

    def random_raw(self, n):
        self.at += n
        return self.words[self.at - n:self.at].copy()


def _fill_words(region, wx, wy, order="=u8", points=None):
    """The points and codes that ``word_points``' fill writes from the x
    words ``wx`` and y words ``wy``, interleaved in the byte order
    ``order``, over the region's bounding box: (xs, ys, codes, box), codes
    None where a call of ``points`` points (more than _GRID_POINTS by
    default) reads no grid."""
    box = rv.bounding_box(region)
    fill, coded = _cells.word_points(region, points or _cells._GRID_POINTS + 1, box)
    words = np.empty(2 * wx.size, dtype=order)
    words[0::2], words[1::2] = wx, wy
    xs, ys = np.empty(wx.size), np.empty(wx.size)
    codes = np.empty(wx.size, dtype=np.uint8) if coded else None
    fill(_Stream(words), xs, ys, codes)
    return xs, ys, codes, box


def _word_coordinates(words, lo: float, hi: float):
    """lo + (t * 2^-53) * (hi - lo), t the words shifted right by 11."""
    return lo + ((words >> 11) * 2.0**-53) * (hi - lo)


def _nudged(values, ulps):
    """``values`` moved by each of ``ulps`` units in the last place."""
    out = []
    for k in ulps:
        v = np.array(values, dtype=np.float64)
        for _ in range(abs(k)):
            v = np.nextafter(v, math.copysign(math.inf, k))
        out.append(v)
    return np.concatenate(out)


class TestCellGrid:
    """contains_mask reads a grid of cells on large calls and runs the exact
    tests on boundary cells only; its masks are the exact tests' bit for
    bit."""

    @pytest.mark.parametrize("name", sorted(_GRID_REGIONS))
    def test_random_points_over_and_around_the_box(self, name):
        region = _GRID_REGIONS[name]()
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
        rng = np.random.default_rng(len(name))
        w, h = x_hi - x_lo, y_hi - y_lo
        xs = rng.uniform(x_lo - 0.05 * w, x_hi + 0.05 * w, 20000)
        ys = rng.uniform(y_lo - 0.05 * h, y_hi + 0.05 * h, 20000)
        got = _grid_matches_exact(region, xs, ys)
        assert (rv.contains_mask(region, xs, ys) == got).all()
        assert 0 < got.sum() < got.size

    def test_nan_bound_meets_every_cell(self):
        first, past = _cells._cell_range(np.array([math.nan, 0.5]), np.array([1.0, math.nan]),
                                         0.0, 1.0, 0.0)
        assert first.tolist() == [0, 0] and past.tolist() == [_cells._GRID] * 2

    @pytest.mark.parametrize("name", ["square", "star10", "star_tiny", "star_large", "concave_union",
                                      "short_edge_tip"])
    def test_points_at_polygon_edges_and_vertices(self, name):
        region = _GRID_REGIONS[name]()
        pts = []
        for poly in leaves(region):
            verts = poly.vertices
            for p, q in zip(verts, verts[1:] + verts[:1]):
                length = math.hypot(q.x - p.x, q.y - p.y)
                nx, ny = (p.y - q.y) / length, (q.x - p.x) / length
                # The on-edge slack across the edge.
                sx, sy = max(1.0, abs(p.x), abs(q.x)), max(1.0, abs(p.y), abs(q.y))
                slack = 1e-12 * (sx * abs(nx) + sy * abs(ny))
                for t in (0.0, 1e-13, 0.25, 0.5, 0.8, 1.0, 1.0 + 1e-13, -1e-9, 1.0 + 1e-9):
                    for off in (0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 2.0, -2.0, 1e3, -1e3):
                        pts.append((p.x + (q.x - p.x) * t + off * slack * nx,
                                    p.y + (q.y - p.y) * t + off * slack * ny))
        xs, ys = np.array(pts).T
        ulps = (0, 1, -1, 3, -3)
        _grid_matches_exact(region, _nudged(xs, ulps).repeat(len(ulps)),
                            np.tile(_nudged(ys, ulps).reshape(len(ulps), -1), len(ulps)).ravel())

    @pytest.mark.parametrize("name", ["quarter_disk", "sector_polar", "full_sector", "annulus",
                                      "torus_x", "disk_y", "oscillating", "spike", "gap"])
    def test_points_near_curve_values(self, name):
        region = _GRID_REGIONS[name]()
        rng = np.random.default_rng(7)
        xs, ys = [], []
        for leaf in leaves(region):
            u0, u1, near, far = leaf.span
            us = np.concatenate([[u0, u1], rng.uniform(u0, u1, 3000)])
            us = _nudged(us, (0, 1, -1))
            for c in (near, far):
                vs = rv.eval_array(c, us)
                for dv in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6):
                    for k in (0, 1, -1):
                        v = _nudged(vs + dv, (k,))
                        if leaf.map == POLAR:
                            xs.append(v * np.cos(us)), ys.append(v * np.sin(us))
                        elif leaf.map == SWAP:
                            xs.append(v), ys.append(us)
                        else:
                            xs.append(us), ys.append(v)
        _grid_matches_exact(region, np.concatenate(xs), np.concatenate(ys))

    def test_sector_apex_and_the_theta_min_ray_of_a_full_turn(self):
        region = _full_sector()
        radii = np.linspace(0.0, 1.6, 801)
        thetas = _nudged(np.full(radii.size, -1.0), (0, 1, -1, 2, -2, 8, -8))
        rs = np.tile(radii, 7)
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12, -1e-12])
        apex_x, apex_y = (g.ravel() for g in np.meshgrid(tiny, tiny))
        got = _grid_matches_exact(region, np.concatenate([rs * np.cos(thetas), apex_x]),
                                  np.concatenate([rs * np.sin(thetas), apex_y]))
        assert got[-apex_x.size:][0]  # the apex: rho_min is 0

    @pytest.mark.parametrize("name", ["star10", "full_sector", "torus_x", "concave_union"])
    def test_nan_and_infinite_coordinates(self, name):
        region = _GRID_REGIONS[name]()
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
        rng = np.random.default_rng(5)
        xs = rng.uniform(x_lo, x_hi, 6000)
        ys = rng.uniform(y_lo, y_hi, 6000)
        bad = np.array([math.nan, math.inf, -math.inf])
        xs[:3000:3], ys[1:3000:3] = np.resize(bad, 1000), np.resize(bad[::-1], 1000)
        got = _grid_matches_exact(region, xs, ys)
        assert not got[~(np.isfinite(xs) & np.isfinite(ys))].any()
        assert got[3000:].any()

    def test_a_far_coordinate_reads_the_grid_without_a_warning(self):
        # More than _GRID_POINTS points take the grid; x = 1e308 scales past
        # the float range to inf, which the lookup clamps to the border
        # column.  Under the suite's filterwarnings = error a RuntimeWarning
        # fails the test.
        region = unit_square_polygon()
        rng = np.random.default_rng(3)
        n = _cells._GRID_POINTS + 1
        xs, ys = rng.uniform(0.5, 2.5, n), rng.uniform(-0.5, 1.5, n)
        xs[17] = 1e308
        got = rv.contains_mask(region, xs, ys)
        assert (got == _cells._exact_mask(region, xs, ys)).all()
        assert not got[17] and 0 < got.sum() < got.size

    @pytest.mark.parametrize("name", sorted(_GRID_REGIONS))
    def test_codes_from_the_top_bits_of_53_bit_integers(self, name):
        # Monte Carlo's points: x = x_lo + (t * 2^-53) * width, t the raw
        # word shifted right by 11, whose cell is the top 8 bits of t: the
        # word's top byte.  Random words, every cell edge j * 2^56, and 1
        # and 2 either side of it.
        region = _GRID_REGIONS[name]()
        edges = _cell_edge_words()
        rng = np.random.default_rng(len(name))
        n = edges.size
        wx = np.concatenate([edges, _random_words(rng, n), edges, _random_words(rng, 5000)])
        wy = np.concatenate([_random_words(rng, n), edges, rng.permutation(edges),
                             _random_words(rng, 5000)])
        xs, ys, codes, (x_lo, x_hi, y_lo, y_hi) = _fill_words(region, wx, wy)
        assert codes is not None
        assert np.array_equal(xs, _word_coordinates(wx, x_lo, x_hi))
        assert np.array_equal(ys, _word_coordinates(wy, y_lo, y_hi))
        # Off the cell edges, the word's cell is the coordinates' cell; at
        # an edge it may be its neighbour, which the margin covers.
        random = slice(3 * n, None)
        looked_up = _cells._cell_codes(_cells._cell_grid(region), xs[random], ys[random])
        assert np.array_equal(codes[random], looked_up)
        got = rv.contains_mask(region, xs, ys, _codes=codes)
        want = _cells._exact_mask(region, xs, ys)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, list(zip(xs[bad][:5].tolist(), ys[bad][:5].tolist()))

    @pytest.mark.parametrize("order", ["<u8", ">u8"])
    def test_word_codes_are_the_top_bytes_of_the_words(self, order, monkeypatch):
        # Grids whose codes are each cell's column, or its row, read back
        # the top byte of each x word, or y word, in either byte order, and
        # the coordinates are the words' in that order too.
        region = _GRID_REGIONS["square"]()
        grid = _cells._cell_grid(region)
        rng = np.random.default_rng(11)
        edges = _cell_edge_words()
        wx = np.concatenate([edges, _random_words(rng, edges.size + 5000)])
        wy = np.concatenate([_random_words(rng, edges.size), edges, _random_words(rng, 5000)])
        size = _cells._GRID + 2
        row, column = np.divmod(np.arange(size * size), size)
        for numbers, want in ((column, wx >> 56), (row, wy >> 56)):
            numbered = grid._replace(codes=((numbers - 1) % 256).astype(np.uint8))
            monkeypatch.setattr(_cells, "_cell_grid", lambda r: numbered)
            xs, ys, codes, (x_lo, x_hi, y_lo, y_hi) = _fill_words(region, wx, wy, order)
            assert np.array_equal(codes, want)
            assert np.array_equal(xs, _word_coordinates(wx, x_lo, x_hi))
            assert np.array_equal(ys, _word_coordinates(wy, y_lo, y_hi))

    @pytest.mark.parametrize("name", sorted(_GRID_REGIONS))
    def test_every_unmarked_cell_holds_its_exact_verdict(self, name):
        # A cell that no boundary box meets is inside or outside throughout:
        # at three seeded points in it and at its lower left corner.
        region = _GRID_REGIONS[name]()
        grid = _cells._cell_grid(region)
        side = _cells._GRID
        codes = grid.codes.reshape(side + 2, side + 2)[1:-1, 1:-1]
        rows, cols = np.nonzero(codes != _cells._BOUNDARY)
        assert rows.size > side
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
        rng = np.random.default_rng(len(name))
        at = np.concatenate([rng.uniform(0.0, 1.0, (2, 3, rows.size)), np.zeros((2, 1, rows.size))], 1)
        xs = x_lo + (cols + at[0]) * ((x_hi - x_lo) / side)
        ys = y_lo + (rows + at[1]) * ((y_hi - y_lo) / side)
        want = np.broadcast_to(codes[rows, cols] == _cells._INSIDE, xs.shape)
        got = _cells._exact_mask(region, xs.ravel(), ys.ravel()).reshape(xs.shape)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, list(zip(xs.ravel()[bad][:5].tolist(), ys.ravel()[bad][:5].tolist()))

    def test_word_codes_only_where_the_grid_is_read(self):
        # The points are the same whether or not a call writes codes.
        region = _GRID_REGIONS["square"]()
        rng = np.random.default_rng(13)
        wx, wy = _random_words(rng, 3000), _random_words(rng, 3000)
        *plain, codes, _ = _fill_words(region, wx, wy, points=_cells._GRID_POINTS)
        *coded, coded_codes, _ = _fill_words(region, wx, wy)
        assert codes is None and coded_codes is not None
        assert all(map(np.array_equal, plain, coded))
        xs = np.zeros(_cells._GRID_POINTS + 1)
        with pytest.raises(ValueError, match="one code per point"):
            rv.contains_mask(region, xs, xs, _codes=np.zeros(xs.size - 1, dtype=np.uint8))

    @pytest.mark.parametrize("name", ["square", "sector_polar", "star_large", "disk_y"])
    def test_cell_index_is_the_full_length_one(self, name):
        grid = _cells._cell_grid(_GRID_REGIONS[name]())
        size = _cells._GRID + 2
        # Grids whose codes are the bytes of each cell's number read back
        # the index itself.
        cells = np.arange(size * size)
        shifts = range(0, size.bit_length() * 2, 8)
        byte_grids = [grid._replace(codes=((cells >> s) & 255).astype(np.uint8)) for s in shifts]
        rng = np.random.default_rng(len(name))
        n = 2 * _cells._SLICE + 1234  # three slices, the last short

        def coordinates(origin, scale, corners):
            # The first slice stays on the grid, so it is not clamped; the
            # rest mix cell edges and 1-3 ulps either side, NaN, the
            # infinities and points beyond the border, and end at three
            # corners of the border.
            on_grid = origin + rng.uniform(0.0, size - 2, _cells._SLICE) / scale
            edges = _nudged(origin + np.arange(size + 1) / scale, (0, 1, -1, 2, -2, 3, -3))
            beyond = origin + np.array([-1.0, -1e-3, size + 1e-3, 2 * size, -1e6, 1e6]) / scale
            special = np.concatenate([edges, beyond, [math.nan, math.inf, -math.inf, 1e308, -1e308]])
            return np.concatenate([on_grid, rng.choice(special, n - on_grid.size - 3), corners])

        xs = coordinates(grid.x0, grid.sx, [-math.inf, math.inf, math.inf])
        ys = coordinates(grid.y0, grid.sy, [-math.inf, -math.inf, math.inf])
        with np.errstate(over="ignore"):  # (1e308 - origin) * scale
            got = sum(_cells._cell_codes(g, xs, ys).astype(np.int64) << s
                      for g, s in zip(byte_grids, shifts))
            assert np.array_equal(got, ref_cell_index(grid, xs, ys))
        assert {0, size - 1, size * size - 1} <= set(got.tolist())

    def test_points_above_the_sampled_box_of_a_spike(self):
        region = _spike_region()
        top = rv.bounding_box(region)[3]
        assert top < 1.01  # the sampled box misses the spike
        rng = np.random.default_rng(9)
        xs = 0.50048828125 + rng.uniform(-0.001, 0.001, 8000)
        ys = rng.uniform(0.0, 4.5, 8000)
        got = _grid_matches_exact(region, xs, ys)
        assert got[ys > top].any()

    def test_the_gap_column_is_outside(self):
        region = _gap_region()
        rng = np.random.default_rng(13)
        xs = rng.uniform(0.50003, 0.50017, 1000)  # upper is undefined there
        ys = rng.uniform(0.0, 2.0, 1000)
        assert np.isnan(rv.eval_array(region.upper, xs)).all()
        got = _grid_matches_exact(region, np.concatenate([xs, rng.uniform(0.0, 1.0, 5000)]),
                                  np.concatenate([ys, rng.uniform(0.0, 3.0, 5000)]))
        assert not got[:1000].any() and got[1000:].any()

    def test_small_calls_skip_the_grid(self):
        region = _star(8, seed=21)
        _cells._cell_grid.cache_clear()
        side = math.isqrt(_cells._GRID_POINTS)
        xs, ys = np.meshgrid(np.linspace(2.0, 4.0, side), np.linspace(-3.0, -1.0, side))
        assert rv.contains_mask(region, xs, ys).shape == (side, side)
        assert rv.contains(region, rv.Point(3.0, -2.0))
        assert _cells._cell_grid.cache_info().currsize == 0
        xs, ys = np.append(xs, 3.0), np.append(ys, -2.0)
        assert rv.contains_mask(region, xs, ys)[-1]
        assert _cells._cell_grid.cache_info().currsize == 1

    def test_a_sample_block_of_a_large_polygon_reads_the_grid(self, monkeypatch):
        # revolve sample masks its grid in blocks of whole rows: on a 300
        # point grid, 218 rows of 65 400 points, more than _GRID_POINTS but
        # fewer than the grid has cells.  On a regular 2 000-gon the exact
        # tests run only on the points of boundary cells.
        from revolve.cli import _CHUNK

        gon = regular_polygon(2000, centre=(3.0, 0.0))
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(gon)
        side = 300
        xs = [x_lo + (x_hi - x_lo) * ix / (side - 1) for ix in range(side)]
        ys = [y_lo + (y_hi - y_lo) * iy / (side - 1) for iy in range(side)][:_CHUNK // side]
        bx, by = np.tile(xs, len(ys)), np.repeat(ys, side)
        assert bx.size == 65400
        codes = _cells._cell_codes(_cells._cell_grid(gon), bx, by)
        boundary = np.flatnonzero(codes == _cells._BOUNDARY)
        exact, tested = _cells._exact_mask, []
        monkeypatch.setattr(_cells, "_exact_mask",
                            lambda region, xs, ys: tested.append(xs.copy()) or exact(region, xs, ys))
        got = rv.contains_mask(gon, bx, by)
        assert len(tested) == 1 and np.array_equal(tested[0], bx[boundary])
        assert boundary.size < bx.size // 20
        assert got[codes == _cells._INSIDE].all() and not got[codes == _cells._OUTSIDE].any()
        some = np.random.default_rng(4).choice(bx.size, 2000, replace=False)
        assert np.array_equal(got[some], exact(gon, bx[some], by[some]))

    def test_equal_regions_share_one_grid(self):
        _cells._cell_grid.cache_clear()
        xs, ys = np.random.default_rng(2).uniform(0.0, 3.0, (2, _cells._GRID_POINTS + 1))
        first = rv.contains_mask(torus_normal_x(), xs, ys)
        assert (rv.contains_mask(torus_normal_x(), xs, ys) == first).all()
        assert _cells._cell_grid.cache_info().misses == 1
        grid = _cells._cell_grid(torus_normal_x())
        with pytest.raises(ValueError):
            grid.codes[0] = 0


class TestPieces:
    def test_one_piece_per_curve_region(self):
        nx = torus_normal_x()
        ny = rv.NormalY(-1.0, 1.0, rv.curve("y^2", "y"), rv.curve("2", "y"))
        assert [(p.u0, p.u1, p.map) for p in pieces(nx)] == [(1.0, 3.0, IDENTITY)]
        assert [(p.u0, p.u1, p.map) for p in pieces(ny)] == [(-1.0, 1.0, SWAP)]
        assert [(p.u0, p.u1, p.map) for p in pieces(quarter_disk())] == [(0.0, math.pi / 2, POLAR)]
        assert pieces(nx)[0].near is nx.lower.scalar and pieces(ny)[0].far is ny.right.scalar

    def test_polygon_slabs_either_way(self):
        ell = rv.Polygon((rv.Point(0, 0), rv.Point(2, 0), rv.Point(2, 1),
                          rv.Point(1, 1), rv.Point(1, 2), rv.Point(0, 2)))
        assert [(p.u0, p.u1, p.map) for p in pieces(ell)] == [(0, 1, IDENTITY), (1, 2, IDENTITY)]
        rows = pieces(ell, swap=True)
        assert [(p.u0, p.u1, p.map) for p in rows] == [(0, 1, SWAP), (1, 2, SWAP)]
        # the y-slab over [1, 2] runs from x = 0 to x = 1
        assert (rows[1].near(1.5), rows[1].far(1.5)) == (0.0, 1.0)

    def test_union_concatenates_parts(self):
        union = rv.UnionRegion((quarter_disk(), unit_square_polygon()))
        assert [p.map for p in pieces(union)] == [POLAR, IDENTITY]
        assert [p.map for p in pieces(union, swap=True)] == [POLAR, SWAP]

    def test_equal_leaves_share_their_curve_functions(self):
        # A curve parsed again is the same evaluator, and a polygon built
        # again reads its cached slabs: equal leaves share the panel memos
        # that the quadrature keys by (near, far).
        assert pieces(torus_normal_x())[0].near is pieces(torus_normal_x())[0].near
        columns, again = pieces(_ell()), pieces(_ell())
        assert all(p.near is q.near and p.far is q.far for p, q in zip(columns, again))
        # Each slab has curves of its own, and each slab direction too.
        rows = pieces(_ell(), swap=True)
        assert len({p.near for p in columns + rows}) == 4

    def test_bounds_are_the_callers_own(self):
        # 0 == 0.0 == -0.0, so equal leaves can still differ in their
        # bounds' reprs; a leaf's pieces carry its own.
        region_module._polygon_pieces.cache_clear()
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        for x0 in (0, 0.0, -0.0, 0):
            polygon = rv.Polygon(tuple(rv.Point(x0 if x == 0 else x, y) for x, y in square))
            assert repr(pieces(polygon)[0].u0) == repr(x0)
        for x0 in (0.0, -0.0, 0.0):
            leaf = rv.NormalX(x0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))
            assert repr(pieces(leaf)[0].u0) == repr(x0)


def _ell():
    return rv.Polygon((rv.Point(0, 0), rv.Point(2, 0), rv.Point(2, 1),
                       rv.Point(1, 1), rv.Point(1, 2), rv.Point(0, 2)))


_MAPS = pytest.mark.parametrize("cmap", [IDENTITY, SWAP, POLAR])

_PLANE_SPECIALS = (0.0, -0.0, 1.0, -1.0, math.pi, -math.pi / 2, 5e-324, -5e-324,
                   1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


def _plane_draws(rng, n):
    """n seeded coordinates: a third in [-10, 10], a third of magnitude
    0.5e308 to 1.79e308 of either sign, a third from _PLANE_SPECIALS (±0.0
    among them)."""
    kind = rng.integers(0, 3, n)
    out = rng.uniform(-10.0, 10.0, n)
    big = kind == 1
    out[big] = rng.uniform(0.5, 1.79, big.sum()) * 1e308 * rng.choice([-1.0, 1.0], big.sum())
    special = kind == 2
    out[special] = rng.choice(np.array(_PLANE_SPECIALS), special.sum())
    return out


def _random_box(rng):
    """A box: between two draws, or a draw and a step of at most 1 past it."""
    lo, hi = _plane_draws(rng, 2).tolist()
    if rng.random() < 0.5:
        hi = lo + float(rng.uniform(0.0, 1.0))
    return (lo, hi) if lo <= hi else (hi, lo)


class TestPlanePoint:
    """The one map of (u, v) to the plane, in the three arithmetics that
    call it: floats, numpy arrays and intervals."""

    def test_the_three_maps(self):
        assert plane_point(IDENTITY, 1.5, -2.0) == (1.5, -2.0)
        assert plane_point(SWAP, 1.5, -2.0) == (-2.0, 1.5)
        assert plane_point(POLAR, math.pi / 3, 2.0) == (2.0 * math.cos(math.pi / 3),
                                                         2.0 * math.sin(math.pi / 3))

    @_MAPS
    def test_arrays_are_the_floats_bit_for_bit(self, cmap):
        rng = np.random.default_rng(24_001)
        us, vs = _plane_draws(rng, 20_000), _plane_draws(rng, 20_000)
        xs, ys = plane_point(cmap, us, vs, np.cos, np.sin)
        points = [plane_point(cmap, u, v) for u, v in zip(us.tolist(), vs.tolist())]
        for got, want in zip((xs, ys), zip(*points)):
            # The int64 view compares every bit: the sign of a zero too.
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
        assert (np.signbit(us) & (us == 0.0)).any()  # a -0.0 was drawn

    @_MAPS
    def test_intervals_enclose_the_points(self, cmap):
        rng = np.random.default_rng(24_002)
        for _ in range(2000):
            u, v = _random_box(rng), _random_box(rng)
            bx, by = plane_point(cmap, u, v, _icos, _isin, _imul)
            # The corners, and two sampled points between the ends of each box.
            us, vs = ([lo, hi, *(min(max(lo * (1.0 - t) + hi * t, lo), hi)
                                 for t in rng.random(2).tolist())] for lo, hi in (u, v))
            for pu in us:
                for pv in vs:
                    x, y = plane_point(cmap, pu, pv)
                    assert bx[0] <= x <= bx[1] and by[0] <= y <= by[1], (u, v, pu, pv)


class TestLeaves:
    def test_a_leaf_is_its_own_only_leaf(self):
        for region in (quarter_disk(), torus_normal_x(), unit_square_polygon()):
            assert [id(leaf) for leaf in leaves(region)] == [id(region)]

    def test_nested_unions_flatten_in_order(self):
        a, b, c, d = quarter_disk(), unit_square_polygon(), torus_normal_x(), cone_triangle()
        nested = rv.UnionRegion((a, rv.UnionRegion((b, rv.UnionRegion((c,)))), d))
        assert [id(leaf) for leaf in leaves(nested)] == [id(a), id(b), id(c), id(d)]
        assert leaves(rv.UnionRegion((rv.UnionRegion((d, a)),))) == [d, a]

    def test_pieces_follow_the_leaves(self):
        nested = rv.UnionRegion((rv.UnionRegion((unit_square_polygon(), quarter_disk())),
                                 torus_normal_x()))
        assert [p.map for p in pieces(nested)] == [IDENTITY, POLAR, IDENTITY]
        assert [(p.u0, p.u1) for p in pieces(nested, swap=True)] == [
            (0, 1), (0.0, math.pi / 2), (1.0, 3.0)]


class TestBoundingBox:
    def test_polygon_exact(self):
        box = rv.bounding_box(cone_triangle())
        assert box == (0.0, 1.0, 0.0, 1.0)

    def test_quarter_disk(self):
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(quarter_disk())
        assert -1e-6 <= x_lo <= 0.0 and 1.0 <= x_hi <= 1.0 + 1e-6
        assert -1e-6 <= y_lo <= 0.0 and 1.0 <= y_hi <= 1.0 + 1e-6

    def test_offset_circle(self):
        # the odd probe count samples the apex x = 2 exactly
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(torus_normal_x())
        assert x_lo == pytest.approx(1.0, abs=1e-6)
        assert x_hi == pytest.approx(3.0, abs=1e-6)
        assert y_lo == pytest.approx(-1.0, abs=1e-6)
        assert y_hi == pytest.approx(1.0, abs=1e-6)

    def test_contained_points_are_in_box(self):
        rng = np.random.default_rng(21)
        for region in [quarter_disk(), sector_polar(), torus_normal_x()]:
            x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
            pts = rng.uniform(-3, 3, size=(400, 2))
            for x, y in pts:
                if rv.contains(region, rv.Point(x, y)):
                    assert x_lo <= x <= x_hi and y_lo <= y <= y_hi

    def test_union_combines(self):
        union = rv.UnionRegion((unit_square_polygon(), cone_triangle()))
        assert rv.bounding_box(union) == (0.0, 2.0, 0.0, 1.0)

    def test_union_pads_curve_parts_only(self):
        union = rv.UnionRegion((unit_square_polygon(), rv.NormalX(-1.0, 0.0, rv.curve("0", "x"),
                                                                  rv.curve("2", "x"))))
        assert rv.bounding_box(union) == (-1.000000001, 2.0, -1e-09, 2.000000002)

    # Monte Carlo digits and `revolve sample` output depend on the box bit
    # for bit; these are the boxes of the sampler the cloud replaced.
    @pytest.mark.parametrize("fixture, box", [
        ("cone_triangle", "(-1e-09, 1.000000001, -1e-09, 1.000000001)"),
        ("half_annulus_polar", "(-2.000000002, 2.000000002, -1e-09, 2.000000002)"),
        ("sector_disk_union", "(-1e-09, 1.000000001, -0.8660254047844386, 0.7071067821865475)"),
        ("sector_polar", "(-1e-09, 0.9999999683180966, -0.8660254047844386, 0.7071067821865474)"),
        ("sector_shell_union", "(-1e-09, 1.000000001, -0.8660254047844386, 0.7071067821865475)"),
        ("sphere_disk", "(-1e-09, 1.000000001, -1.000000001, 1.000000001)"),
        ("square_normalx", "(0.999999999, 2.000000002, -1e-09, 1.000000001)"),
        ("square_normaly", "(0.999999999, 2.000000002, -1e-09, 1.000000001)"),
        ("straddle", "(-1.000000001, 1.000000001, -1.000000001, 1.000000001)"),
        ("torus_circle", "(0.999999999, 3.000000003, -1.000000001, 1.000000001)"),
        ("torus_disk", "(0.999999999, 3.000000003, -1.000000001, 1.000000001)"),
        ("unit_square", "(1.0, 2.0, 0.0, 1.0)"),
    ])
    def test_fixture_boxes_are_pinned(self, fixture, box):
        assert repr(rv.bounding_box(load_job(FIXTURES / f"{fixture}.json").region)) == box


class TestValidation:
    def test_needs_ordered_interval(self):
        with pytest.raises(InvalidRegionError):
            rv.NormalX(1.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))

    def test_infinite_bound_rejected(self):
        with pytest.raises(InvalidRegionError, match="^x bounds must be finite$"):
            rv.NormalX(0.0, math.inf, rv.curve("0", "x"), rv.curve("1", "x"))

    def test_lower_above_upper_rejected(self):
        with pytest.raises(InvalidRegionError):
            rv.NormalX(0.0, 1.0, rv.curve("1", "x"), rv.curve("0", "x"))

    def test_degenerate_equal_curves_allowed(self):
        region = rv.NormalX(0.0, 1.0, rv.curve("x", "x"), rv.curve("x", "x"))
        assert rv.contains(region, rv.Point(0.5, 0.5))

    def test_curve_must_evaluate_on_probes(self):
        with pytest.raises(InvalidRegionError):
            rv.NormalX(-2.0, 2.0, rv.curve("0", "x"), rv.curve("sqrt(1-x^2)", "x"))

    def test_sector_width_limits(self):
        with pytest.raises(InvalidRegionError):
            rv.PolarSector(1.0, 1.0, rv.curve("0", "theta"), rv.curve("1", "theta"))
        with pytest.raises(InvalidRegionError):
            rv.PolarSector(0.0, 7.0, rv.curve("0", "theta"), rv.curve("1", "theta"))

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidRegionError):
            rv.PolarSector(0.0, 1.0, rv.curve("-1", "theta"), rv.curve("1", "theta"))

    # A sector is a curve leaf: the normal domains' checks and messages,
    # plus its width and a non-negative rho_min.
    @pytest.mark.parametrize("build, message", [
        (lambda: rv.PolarSector(0.0, 1.0, rv.curve("2", "theta"), rv.curve("1", "theta")),
         "rho_min > rho_max at theta=0.0 (2.0 > 1.0)"),
        (lambda: rv.PolarSector(0.0, 1.0, rv.curve("theta-0.5", "theta"), rv.curve("1", "theta")),
         "rho_min < 0 at theta=0.0 (-0.5)"),
        (lambda: rv.PolarSector(0.0, 7.0, rv.curve("0", "theta"), rv.curve("1", "theta")),
         "theta_max - theta_min must be in (0, 2*pi], got 7.0"),
        (lambda: rv.PolarSector(1.0, 1.0, rv.curve("0", "theta"), rv.curve("1", "theta")),
         "theta_min 1.0 must be < theta_max 1.0"),
        (lambda: rv.PolarSector(0.0, 1.0, rv.curve("0", "theta"), rv.curve("log(theta)", "theta")),
         "rho_max curve 'log(theta)' is undefined at theta=0.0"),
        (lambda: rv.NormalX(-2.0, 2.0, rv.curve("sqrt(1-x^2)", "x"), rv.curve("2", "x")),
         "lower curve 'sqrt(1-x^2)' is undefined at x=-2.0"),
        (lambda: rv.NormalY(0.0, 1.0, rv.curve("1", "y"), rv.curve("y", "y")),
         "left > right at y=0.0 (1.0 > 0.0)"),
    ], ids=["rho_min_above_rho_max", "rho_min_negative", "too_wide", "empty",
            "rho_max_undefined", "normal_x_lower_undefined", "normal_y_left_above_right"])
    def test_refusal_messages(self, build, message):
        with pytest.raises(InvalidRegionError) as refused:
            build()
        assert str(refused.value) == message

    # A leaf reads its curves as functions of its own variable, and its
    # config document writes them as such, so another variable's curve must
    # be constant.
    @pytest.mark.parametrize("build, message", [
        (lambda: rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1+y", "y")),
         "upper curve '1+y' is in y, not x"),
        (lambda: rv.NormalY(0.0, 1.0, rv.curve("x", "x"), rv.curve("2", "y")),
         "left curve 'x' is in x, not y"),
        (lambda: rv.PolarSector(0.0, 1.0, rv.curve("0", "theta"), rv.curve("1+x^2", "x")),
         "rho_max curve '1+x^2' is in x, not theta"),
    ], ids=["normal_x_upper", "normal_y_left", "sector_rho_max"])
    def test_a_curve_in_another_variable_is_refused(self, build, message):
        with pytest.raises(InvalidRegionError) as refused:
            build()
        assert str(refused.value) == message

    def test_library_leaves_round_trip_through_their_document(self):
        own = rv.UnionRegion((
            rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1+x", "x")),
            rv.NormalY(2.0, 3.0, rv.curve("y", "y"), rv.curve("y+1", "y")),
            rv.PolarSector(0.0, 1.0, rv.curve("0", "theta"), rv.curve("1+theta/2", "theta")),
        ))
        # Constants in another variable, or in none, stay legal; they read
        # back in the leaf's own.
        constants = rv.UnionRegion((
            rv.NormalX(0.0, 1.0, rv.curve("0", "t"), rv.curve("1+pi", None)),
            rv.NormalY(2.0, 3.0, rv.curve("2*e", "x"), rv.curve("6", "y")),
        ))
        axis = {"vertical_at": -5}
        for region in (own, constants):
            doc = region_doc(region)
            again = parse_job({"region": doc, "axis": axis}).region
            assert region_doc(again) == doc
        assert parse_job({"region": region_doc(own), "axis": axis}).region == own

    def test_polygon_needs_ccw(self):
        with pytest.raises(InvalidRegionError):
            rv.Polygon((rv.Point(0, 0), rv.Point(0, 1), rv.Point(1, 0)))

    def test_polygon_rejects_self_intersection(self):
        with pytest.raises(InvalidRegionError):
            rv.Polygon((rv.Point(0, 0), rv.Point(1, 1), rv.Point(1, 0), rv.Point(0, 1)))

    @pytest.mark.parametrize("verts", [
        ((0, 0), (2, 0), (2, 2), (1, 0), (0, 2)),          # a vertex touches an edge
        ((0, 0), (2, 0), (2, 2), (1, 1), (0, 2), (1, 1)),  # a repeated vertex
        ((0, 0), (3, 0), (1, 0), (1, 1)),                  # an edge folds back
        ((0, 0), (3, 0), (3, 2), (1, -1), (0, 2)),         # two edges cross; area 1.5
    ], ids=["vertex_on_edge", "repeated_vertex", "fold_back", "edges_cross"])
    def test_polygon_rejects_touching_edges(self, verts):
        with pytest.raises(InvalidRegionError, match="self-intersect"):
            rv.Polygon(tuple(rv.Point(x, y) for x, y in verts))

    def test_polygon_allows_collinear_vertices_going_forward(self):
        poly = rv.Polygon(tuple(rv.Point(x, y) for x, y in
                                ((0, 0), (1, 0), (2, 0), (2, 1), (0, 1))))
        assert rv.area(poly) == 2.0

    def test_polygon_needs_three_vertices(self):
        with pytest.raises(InvalidRegionError):
            rv.Polygon((rv.Point(0, 0), rv.Point(1, 0)))

    def test_empty_union_rejected(self):
        with pytest.raises(InvalidRegionError):
            rv.UnionRegion(())

    def test_polygon_centroid_contained(self):
        rng = np.random.default_rng(17)
        from helpers import random_convex_polygon

        for _ in range(20):
            poly = random_convex_polygon(rng)
            c = rv.centroid(poly).centroid
            assert rv.contains(poly, c)


def _slab_outcome(slabs, verts):
    """The slabs of ``slabs(verts)`` as the reprs of their bounds and of
    their lower and upper functions at each end and the middle, or the
    refusal's message."""
    try:
        found = slabs(verts)
    except InvalidRegionError as exc:
        return str(exc)
    return [[repr(v) for v in (x0, x1, *(f(x) for f in (lo, hi)
                                         for x in (x0, 0.5 * (x0 + x1), x1)))]
            for x0, x1, lo, hi in found]


def _both_directions(verts):
    """The vertices and their mirror image in y = x, listed in reverse: the
    polygon whose x-slabs are the y-slabs (``_polygon_pieces``)."""
    return verts, tuple(rv.Point(v.y, v.x) for v in reversed(verts))


def _comb(teeth, height=3.0):
    """A comb, counterclockwise: a base along y = 0 with ``teeth`` teeth of
    width 1 rising to ``height``, 1 apart; every y-slab above the base
    crosses each tooth."""
    points = [(0.0, 0.0), (2.0 * teeth - 1.0, 0.0)]
    for i in reversed(range(teeth)):
        points += [(2.0 * i + 1.0, height), (2.0 * i, height)]
        if i:
            points += [(2.0 * i, 1.0), (2.0 * i - 1.0, 1.0)]
    return tuple(rv.Point(x, y) for x, y in points)


class TestPolygonSweeps:
    """_is_simple tests only edges whose x-ranges overlap, and _slabs puts
    each edge into the slabs its x-range covers: the answers of the
    all-pairs test and the per-cut scan they replace (helpers)."""

    def test_random_polygons_match_the_references(self):
        rng = random.Random(20261020)
        simple = 0
        for _ in range(3000):
            verts = random_polygon_vertices(rng)
            is_simple = ref_is_simple(verts)
            assert region_module._is_simple(verts) == is_simple, verts
            if is_simple:
                simple += 1
                for w in _both_directions(verts):
                    assert _slab_outcome(region_module._slabs, w) == _slab_outcome(ref_slabs, w)
        assert simple > 1000

    @pytest.mark.parametrize("verts", [
        regular_polygon(300).vertices,
        _comb(12),
        rv.Polygon(_comb(12)).vertices[::-1],  # clockwise
        _star(200).vertices,
    ], ids=["regular_300", "comb", "comb_clockwise", "star_200"])
    def test_large_and_comb_polygons_match_the_references(self, verts):
        assert region_module._is_simple(verts) == ref_is_simple(verts)
        for w in _both_directions(verts):
            assert _slab_outcome(region_module._slabs, w) == _slab_outcome(ref_slabs, w)

    def test_comb_slabs_cross_every_tooth(self):
        x_slabs, y_slabs = (region_module._slabs(w) for w in _both_directions(_comb(12)))
        assert len(x_slabs) == 23
        assert len(y_slabs) == 1 + 12  # the base's, then one a tooth

    @staticmethod
    def _count_pair_tests(monkeypatch) -> list:
        calls = []
        meet = region_module._segments_meet
        monkeypatch.setattr(region_module, "_segments_meet",
                            lambda *points: calls.append(1) or meet(*points))
        return calls

    def test_pair_tests_on_a_regular_polygon(self, monkeypatch):
        # ref_is_simple tests all n(n-3)/2 pairs: 7 994 000 at n = 4000.
        # Here no two edges but neighbours share both an x- and a y-range.
        calls = self._count_pair_tests(monkeypatch)
        regular_polygon(4000)  # construction runs _is_simple
        assert len(calls) == 0
        _star(200)  # whose spikes' ranges do overlap: the count sees the tests
        assert len(calls) > 0

    def test_pair_tests_on_a_comb_along_x(self, monkeypatch):
        # Mirrored in y = x, the comb's teeth lie along x and every tooth's
        # x-range holds the others' ends: 435 253 pairs of edges that are not
        # neighbours overlap in x.  None of them overlaps in y as well.
        verts = _both_directions(_comb(250))[1]
        assert len(verts) == 1000
        assert ref_is_simple(verts)
        calls = self._count_pair_tests(monkeypatch)
        assert region_module._is_simple(verts)
        assert len(calls) == 0

    def test_each_slab_builds_its_two_edges(self, monkeypatch):
        # ref_slabs builds each covering edge's function twice.
        calls = []
        interp = region_module._edge_interp
        monkeypatch.setattr(region_module, "_edge_interp",
                            lambda p, q: calls.append(1) or interp(p, q))
        slabs = region_module._slabs(regular_polygon(4000).vertices)
        assert len(calls) == 2 * len(slabs)


class TestAxisSideCheck:
    def test_sector_touching_axis_allowed(self):
        assert rv.axis_side_check(sector_polar(), AXIS_OY) == 1

    def test_disk_left_of_axis(self):
        disk = straddling_disk_x()  # unit disk at the origin
        assert rv.axis_side_check(disk, rv.Axis.vertical(2.0)) == -1
        assert rv.axis_side_check(disk, rv.Axis.vertical(-2.0)) == 1

    def test_axis_through_interior_rejected(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.axis_side_check(straddling_disk_x(), AXIS_OY)

    def test_oblique_axis(self):
        square = unit_square_polygon()
        assert rv.axis_side_check(square, rv.Axis(1.0, 1.0, 0.5)) == 1
        assert rv.axis_side_check(square, rv.Axis(1.0, 1.0, -4.0)) == -1
        with pytest.raises(AxisIntersectsRegion):
            rv.axis_side_check(square, rv.Axis(1.0, 1.0, -2.0))

    def test_cloud_lies_on_the_boundary(self):
        xs, ys, _ = _cells._leaf_cloud(quarter_disk())
        assert xs.size == 2 * 1025
        for x, y in zip(xs, ys):
            on_arc = abs(math.hypot(x, y) - 1.0) <= 1e-9
            on_edge = abs(x) <= 1e-9 or abs(y) <= 1e-9
            assert on_arc or on_edge


def _side(region, axis, check=rv.axis_side_check):
    try:
        return check(region, axis)
    except (AxisIntersectsRegion, InvalidRegionError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def cold_side_cloud():
    """The sampled box's cache, cleared, with the side check's verdicts."""
    for cache in (_cells.sampled_box, region_module.axis_side_check):
        cache.cache_clear()
    yield _cells.sampled_box
    for cache in (_cells.sampled_box, region_module.axis_side_check):
        cache.cache_clear()


_SIDE_AXES = [rv.Axis.vertical(2.0), rv.Axis.horizontal(0.0), rv.Axis(1.0, 1.0, -1.0),
              rv.Axis.vertical(0.0), rv.Axis(1.0, 1.0, -2.0), rv.Axis.vertical(1.5),
              rv.Axis(1.0, 0.0, -1.0), rv.Axis(0.0, 1.0, -0.5)]


_SIDE_REGIONS = [torus_normal_x, sector_polar, sector_disk_union,
                 straddling_disk_x, unit_square_polygon, cone_triangle]

# The side, or the exception, of each region about each of _SIDE_AXES, as
# the 64 x 64 grid and boundary probes that the boundary cloud replaced
# gave them.
_X = AxisIntersectsRegion
_SIDE_VERDICTS = {
    "torus_normal_x": [_X, _X, _X, 1, _X, _X, 1, _X],
    "sector_polar": [-1, _X, _X, 1, -1, -1, -1, _X],
    "sector_disk_union": [-1, _X, _X, 1, -1, -1, -1, _X],
    "straddling_disk_x": [-1, _X, _X, _X, -1, -1, -1, _X],
    "unit_square_polygon": [-1, 1, 1, 1, _X, _X, 1, _X],
    "cone_triangle": [-1, 1, -1, 1, -1, -1, -1, _X],
}


def _verdict(region, axis, check=rv.axis_side_check):
    side = _side(region, axis, check)
    return side[0] if isinstance(side, tuple) else side


class TestSideCheckCache:
    """The side check bounds the curves on every call and reads no cloud;
    its verdicts are those of the sampled check.  The bounding box samples
    each region once."""

    @pytest.mark.parametrize("build", _SIDE_REGIONS)
    def test_verdicts_are_pinned(self, build):
        verdicts = [_verdict(build(), axis) for axis in _SIDE_AXES]
        assert verdicts == _SIDE_VERDICTS[build.__name__]

    @pytest.mark.parametrize("build", _SIDE_REGIONS)
    def test_cold_warm_cleared_and_equal_regions(self, build, cold_side_cloud):
        region = build()
        expected = [_verdict(region, axis, ref_axis_side_check) for axis in _SIDE_AXES]
        assert [_verdict(region, axis) for axis in _SIDE_AXES] == expected
        assert [_verdict(build(), axis) for axis in _SIDE_AXES] == expected
        assert cold_side_cloud.cache_info().misses == 0
        box = rv.bounding_box(region)  # cold, then warm
        assert rv.bounding_box(region) == box and rv.bounding_box(build()) == box
        assert cold_side_cloud.cache_info().misses == 1
        cold_side_cloud.cache_clear()
        assert rv.bounding_box(build()) == box
        assert cold_side_cloud.cache_info().misses == 1

    def test_equal_regions_from_separate_configs_share_one_cloud(self, cold_side_cloud):
        doc = {"region": {"type": "normal_x", "x_min": "1", "x_max": "3",
                          "lower": "-sqrt(1-(x-2)^2)", "upper": "sqrt(1-(x-2)^2)"},
               "axis": "OY"}
        first, second = parse_job(doc), parse_job(doc)
        assert first.region is not second.region
        for axis in _SIDE_AXES:
            expected = _verdict(first.region, axis, ref_axis_side_check)
            assert _verdict(first.region, axis) == expected
            assert _verdict(second.region, axis) == expected
        assert rv.bounding_box(first.region) == rv.bounding_box(second.region)
        assert cold_side_cloud.cache_info().misses == 1

    def test_refusal_prints_plain_floats(self, cold_side_cloud):
        square = unit_square_polygon()
        assert _side(square, rv.Axis.vertical(1.5))[1].endswith("span [-0.5, 0.5]")
        assert _side(straddling_disk_x(), AXIS_OY)[1].endswith("span [-1.0, 1.0]")

    def test_no_sample_points_raises_on_every_call(self, cold_side_cloud):
        # 1/sqrt(-inf) is 0 evaluated as a scalar and NaN as an array: the
        # region constructs, but its cloud is empty.
        empty = rv.curve("1/((0-1e999)^0.5)", "x")
        region = rv.NormalX(0.0, 1.0, empty, empty)
        for _ in range(3):
            for guard in (lambda: rv.axis_side_check(region, AXIS_OY),
                          lambda: rv.bounding_box(region)):
                with pytest.raises(InvalidRegionError, match="region produced no sample points"):
                    guard()
        assert cold_side_cloud.cache_info().misses == 1


class TestSampledGuardDefects:
    """A spike narrower than the sample spacing escapes the sampled box;
    the certified side check sees it.  Certified extremes of the boundary
    curves would catch both."""

    @pytest.mark.xfail(strict=True, reason="the box samples the curve; the spike peaks between samples")
    def test_box_holds_a_narrow_spike(self):
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                            rv.curve("1 + 3*exp(-((x-0.50048828125)/0.0002)^2)", "x"))
        assert rv.bounding_box(region)[3] >= 4.0

    def test_side_check_sees_a_narrow_spike(self):
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                            rv.curve("1 + 5*exp(-((x-0.5003)/0.0002)^2)", "x"))
        with pytest.raises(AxisIntersectsRegion):
            rv.axis_side_check(region, rv.Axis.horizontal(3.0))


class TestUndefinedCurvePoints:
    def test_mask_agrees_with_scalar_evaluation(self):
        # upper(0.3) is undefined (1/0 inside), though the tree-walking
        # array evaluator gave 2 there: the point must be outside.
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("2 + 1/(1/(x-0.3))", "x"))
        with pytest.raises(rv.DomainError):
            region.upper(0.3)
        assert not rv.contains(region, rv.Point(0.3, 1.0))
        assert rv.contains(region, rv.Point(0.5, 1.0))


class TestCertifiedSideCheck:
    """The side check settles every curve by interval bounds, without the
    sampled cloud, unless its box budget runs out."""

    @pytest.mark.parametrize("region, axis, side", [
        (torus_normal_x(), rv.Axis.vertical(1.0), 1),
        (torus_normal_x(), rv.Axis.vertical(3.0), -1),
        (torus_normal_x(), rv.Axis.horizontal(1.0), -1),
        (sector_polar(), AXIS_OY, 1),
        (quarter_disk(), rv.Axis(1.0, 1.0, -math.sqrt(2.0)), -1),
    ], ids=["torus_x1", "torus_x3", "torus_y1", "sector_apex_oy", "quarter_disk_tangent"])
    def test_tangent_touches_keep_their_side(self, region, axis, side, cold_side_cloud):
        assert rv.axis_side_check(region, axis) == side
        assert cold_side_cloud.cache_info().misses == 0

    def test_fixture_verdicts_are_the_sampled_ones(self, cold_side_cloud):
        for path in sorted(FIXTURES.glob("*.json")):
            job = load_job(path)
            assert _verdict(job.region, job.axis) == _verdict(
                job.region, job.axis, ref_axis_side_check), path.name
        assert cold_side_cloud.cache_info().misses == 0

    def test_spike_refusal_spans_the_points_evaluated(self, cold_side_cloud):
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                            rv.curve("1 + 5*exp(-((x-0.5003)/0.0002)^2)", "x"))
        with pytest.raises(AxisIntersectsRegion) as refused:
            rv.axis_side_check(region, rv.Axis.horizontal(3.0))
        d_min, d_max = map(float, str(refused.value).split("[")[1].rstrip("]").split(", "))
        assert d_min == -3.0 and 1e-9 < d_max <= 3.0
        assert cold_side_cloud.cache_info().misses == 0

    def test_exhausted_budget_gives_the_sampled_verdict(self, cold_side_cloud):
        # sin^2 + cos^2 is 1, but its bounds reach 2 until the boxes are far
        # narrower than a period: the budget runs out first.
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                            rv.curve("sin(1537*pi*x)^2 + cos(1537*pi*x)^2", "x"))
        axis = rv.Axis.horizontal(1.5)
        assert rv.axis_side_check(region, axis) == ref_axis_side_check(region, axis) == -1
        assert cold_side_cloud.cache_info().misses == 1

    def test_exhausted_budget_gives_the_sampled_plus_one(self, cold_side_cloud):
        # The same curve as the lower one, with the axis below it.
        region = rv.NormalX(0.0, 1.0, rv.curve("sin(1537*pi*x)^2 + cos(1537*pi*x)^2", "x"),
                            rv.curve("3", "x"))
        axis = rv.Axis.horizontal(0.5)
        assert rv.axis_side_check(region, axis) == ref_axis_side_check(region, axis) == 1
        assert cold_side_cloud.cache_info().misses == 1

    def test_midpoints_where_the_curve_is_undefined_are_skipped(self, cold_side_cloud,
                                                               monkeypatch):
        # The lower curve is 1 except at x = 0.3125, a midpoint of the
        # bisection, where it is undefined: no distance there.  The boxes
        # next to it keep an unbounded enclosure down to a width that
        # cannot split, where the check stops and takes the sampled side.
        skipped, calls = [], []
        distance_at = region_module._distance_at

        def spy(axis, cmap, c, u):
            d = distance_at(axis, cmap, c, u)
            calls.append(u)
            if d is None:
                skipped.append(u)
            return d

        monkeypatch.setattr(region_module, "_distance_at", spy)
        region = rv.NormalX(0.0, 1.0, rv.curve("(x-0.3125)/(x-0.3125)", "x"), rv.curve("3", "x"))
        assert rv.axis_side_check(region, rv.Axis.horizontal(0.5)) == 1
        assert skipped == [0.3125]
        assert len(calls) == 58  # 4 end points and 54 midpoints: the budget is not spent
        assert cold_side_cloud.cache_info().misses == 1

    def test_curve_undefined_between_probes(self, cold_side_cloud):
        # Undefined on (0.3, 0.31), between two probes: those points are no
        # part of the region, and the bounds clip them away.
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                            rv.curve("1 + sqrt((x-0.3)*(x-0.31))", "x"))
        assert rv.axis_side_check(region, rv.Axis.horizontal(2.0)) == -1
        assert rv.axis_side_check(region, rv.Axis.horizontal(-1e-10)) == 1
        assert cold_side_cloud.cache_info().misses == 0


class TestSideCheckVerdictCache:
    def test_verdicts_are_cached_by_value_and_refusals_are_worked_out_again(self, cold_side_cloud):
        check = region_module.axis_side_check
        doc = {"region": {"type": "polar", "theta_min": "0.1", "theta_max": "1.4",
                          "rho_min": "0.2", "rho_max": "1 + 0.3*cos(3*theta)"},
               "axis": {"vertical_at": "-2"}}
        first, second = parse_job(doc), parse_job(doc)
        assert first.region is not second.region
        assert check(first.region, first.axis) == check(second.region, second.axis) == 1
        assert (check.cache_info().hits, check.cache_info().misses) == (1, 1)
        messages = []
        for _ in range(2):
            with pytest.raises(AxisIntersectsRegion) as refused:
                rv.axis_side_check(torus_normal_x(), rv.Axis.vertical(2.0))
            messages.append(str(refused.value))
        assert messages[0] == messages[1] == "axis meets the region: signed distances span [-1.0, 1.0]"
        assert (check.cache_info().hits, check.cache_info().misses) == (1, 3)


class TestProbes:
    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0), (-math.pi / 3, math.pi / 4), (1.0, 3.0), (-1e-300, 1e-300),
        (0.0, 5e-324), (-7.25, 1e6), (0.1, 0.7), (2.0**-1074, 2.0**-1070),
    ])
    def test_points_are_linspace_bit_for_bit(self, lo, hi):
        want = np.linspace(lo, hi, region_module.DEFAULT_INTERIOR_PROBES + 2)
        got = region_module._probe_points(lo, hi)
        assert [repr(t) for t in got] == [repr(float(t)) for t in want]

    def test_an_overflowing_span_is_probed_at_points_of_the_interval(self):
        # hi - lo is inf here, so np.linspace gives NaN and inf.
        got = region_module._probe_points(-1e308, 1e308)
        assert got[0] == -1e308 and got[-1] == 1e308
        assert all(math.isfinite(t) for t in got) and got == sorted(got)
        assert len(set(got)) == region_module.DEFAULT_INTERIOR_PROBES + 2
        constant = rv.NormalX(-1e308, 1e308, rv.curve("0", "x"), rv.curve("1+x*0", "x"))
        assert constant.upper(got[1]) == 1.0
        with pytest.raises(InvalidRegionError) as refused:
            rv.NormalX(-1e308, 1e308, rv.curve("0", "x"), rv.curve("sqrt(x)", "x"))
        assert str(refused.value) == "upper curve 'sqrt(x)' is undefined at x=-1e+308"
        # Its box is 2e308 wide: the cell grid steps aside for the exact tests.
        assert _cells._cell_grid(constant) is None
        rng = np.random.default_rng(11)
        n = _cells._GRID_POINTS + 1
        xs, ys = rng.uniform(-1.0, 1.0, n) * 1e308, rng.uniform(-0.5, 1.5, n)
        assert (rv.contains_mask(constant, xs, ys) == ((ys >= 0.0) & (ys <= 1.0))).all()

    def test_random_intervals_are_linspace_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lo, hi = sorted(rng.uniform(-10.0, 10.0, 2) * 10.0 ** rng.integers(-8, 8, 2))
            want = np.linspace(lo, hi, region_module.DEFAULT_INTERIOR_PROBES + 2)
            assert region_module._probe_points(lo, hi) == want.tolist()

    def test_a_repeated_region_is_probed_once(self):
        region_module._probe_values.cache_clear()
        first = torus_normal_x()
        assert region_module._probe_values.cache_info().misses == 2
        assert torus_normal_x() == first
        assert region_module._probe_values.cache_info().misses == 2

    def test_refusals_repeat_byte_for_byte(self):
        for _ in range(2):
            with pytest.raises(InvalidRegionError) as refused:
                rv.NormalX(-2.0, 2.0, rv.curve("sqrt(1-x^2)", "x"), rv.curve("2", "x"))
            assert str(refused.value) == "lower curve 'sqrt(1-x^2)' is undefined at x=-2.0"
            assert str(refused.value.__cause__) == "sqrt(-3.0) is undefined"
            with pytest.raises(InvalidRegionError) as refused:
                rv.NormalX(0.0, 1.0, rv.curve("2*x", "x"), rv.curve("1", "x"))
            t = float(np.linspace(0.0, 1.0, 35)[18])  # the first probe past x = 1/2
            assert str(refused.value) == f"lower > upper at x={t!r} ({2 * t!r} > 1.0)"
