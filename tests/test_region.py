import math

import numpy as np
import pytest

import revolve as rv
from revolve.errors import AxisIntersectsRegion, InvalidRegionError
from revolve.region import IDENTITY, POLAR, SWAP, pieces

from helpers import (
    AXIS_OY,
    cone_triangle,
    sector_polar,
    straddling_disk_x,
    torus_normal_x,
    unit_square_polygon,
)


def quarter_disk():
    return rv.PolarSector(0.0, math.pi / 2, rv.curve("0", "theta"), rv.curve("1", "theta"))


def _scalar_polygon_contains(poly, x, y):
    """Reference rule for polygon containment, one point at a time: on an
    edge (cross product and projection within 1e-12 * scale^2, scale the
    largest coordinate magnitude involved, at least 1) or a nonzero
    winding number."""
    wn = 0
    verts = poly.vertices
    for a, b in zip(verts, verts[1:] + verts[:1]):
        scale = max(1.0, abs(a.x), abs(a.y), abs(b.x), abs(b.y), abs(x), abs(y))
        slack = 1e-12 * scale * scale
        cross = (b.x - a.x) * (y - a.y) - (x - a.x) * (b.y - a.y)
        dot = (x - a.x) * (b.x - a.x) + (y - a.y) * (b.y - a.y)
        if abs(cross) <= slack and -slack <= dot <= (b.x - a.x) ** 2 + (b.y - a.y) ** 2 + slack:
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


class TestPieces:
    def test_one_piece_per_curve_region(self):
        nx = torus_normal_x()
        ny = rv.NormalY(-1.0, 1.0, rv.curve("y^2", "y"), rv.curve("2", "y"))
        assert [(p.u0, p.u1, p.map) for p in pieces(nx)] == [(1.0, 3.0, IDENTITY)]
        assert [(p.u0, p.u1, p.map) for p in pieces(ny)] == [(-1.0, 1.0, SWAP)]
        assert [(p.u0, p.u1, p.map) for p in pieces(quarter_disk())] == [(0.0, math.pi / 2, POLAR)]
        assert pieces(nx)[0].near is nx.lower and pieces(ny)[0].far is ny.right

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


class TestValidation:
    def test_needs_ordered_interval(self):
        with pytest.raises(InvalidRegionError):
            rv.NormalX(1.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))

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
    ], ids=["vertex_on_edge", "repeated_vertex", "fold_back"])
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

    def test_boundary_points_lie_near_boundary(self):
        region = quarter_disk()
        for p in rv.boundary_points(region, 64):
            rho = math.hypot(p.x, p.y)
            on_arc = abs(rho - 1.0) <= 1e-9
            on_edge = abs(p.x) <= 1e-9 or abs(p.y) <= 1e-9
            assert on_arc or on_edge
