import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

import revolve as rv
from revolve import quadrature
from revolve import region as region_module
from revolve._record import fields
from revolve.config import load_job, parse_job
from revolve.errors import AxisIntersectsRegion, QuadratureNoConvergence, UnsupportedMethod
from revolve.methods import _CHUNK, _distance_pass, _region_moments, run_route

from conftest import FIXTURES
from helpers import (
    AXIS_OX,
    AXIS_OY,
    CONE_VOLUME,
    SECTOR_VOLUME,
    SPHERE_VOLUME,
    SQUARE_VOLUME,
    TORUS_VOLUME,
    RigidMotion,
    apply_motion_axis,
    cone_normal_x,
    cone_triangle,
    exterior_oblique_axis,
    move_polygon,
    overflowing_union_doc,
    quadrature_pin_cases,
    ref_monte_carlo,
    random_convex_polygon,
    random_motion,
    sector_disk_union,
    sector_polar,
    sector_shell_union,
    sphere_normal_y,
    square_normal_x,
    square_normal_y,
    squares_both_sides_x,
    squares_both_sides_y,
    straddling_disk_x,
    straddling_disk_y,
    torus_normal_x,
    torus_normal_y,
    unit_square_polygon,
)


# Two polygons near float range, about y = -1: the squared length of an
# edge of each overflows, and so do their first moments.
_WIDE_RECTANGLE = [[0, 0], [1e155, 0], [1e155, 1], [0, 1]]
_THIN_TRIANGLE = [[1e200, 0], [1.0000000001e200, 0], [1e200, 1]]


def _polygon(vertices):
    return rv.Polygon(tuple(rv.Point(x, y) for x, y in vertices))


class TestDoubleIntegral:
    def test_sector(self):
        report = rv.volume_double_integral(sector_polar(), AXIS_OY)
        assert abs(report.value - SECTOR_VOLUME) <= 1e-8
        assert report.method == "double_integral"
        assert report.value >= 0.0 and report.error_estimate >= 0.0

    def test_square_polygon(self):
        report = rv.volume_double_integral(unit_square_polygon(), AXIS_OY)
        assert abs(report.value - SQUARE_VOLUME) <= 1e-9

    def test_degenerate_region(self):
        flat = rv.NormalX(0.0, 1.0, rv.curve("x", "x"), rv.curve("x", "x"))
        report = rv.volume_double_integral(flat, rv.Axis.vertical(-1.0))
        assert abs(report.value) <= 1e-12

    def test_rejects_straddling_axis(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_double_integral(straddling_disk_x(), AXIS_OY)

    def test_readme_digits(self):
        # The library example in README.md pins every digit.
        report = rv.volume_double_integral(sector_polar(), rv.Axis.vertical(0))
        assert report.value == 3.2947603436203394

    def test_torus_costs_about_one_shell_pass(self):
        # The closed-form inner integral leaves one 1D pass, like the shell.
        job = load_job(FIXTURES / "torus_circle.json")
        shell = rv.volume_shell(job.region, job.axis, job.tolerance)
        double = rv.volume_double_integral(job.region, job.axis, job.tolerance)
        assert shell.evaluations == 945
        assert double.evaluations <= 2 * shell.evaluations
        assert abs(double.value - TORUS_VOLUME) <= 1e-7

    def test_oblique_axis_on_every_variant(self):
        # a*Sx + b*Sy + c*A against pappus's moments, and polar against the
        # double integral, about a line that is neither vertical nor
        # horizontal.
        axis = rv.Axis(1.0, 1.0, 3.0)
        for region in (sector_polar(), torus_normal_y(), unit_square_polygon()):
            double = rv.volume_double_integral(region, axis)
            pappus = rv.volume_pappus(region, axis)
            slack = 10.0 * (double.error_estimate + pappus.error_estimate)
            assert abs(double.value - pappus.value) <= max(slack, 1e-12)
        polar = rv.volume_polar(sector_polar(), axis)
        double = rv.volume_double_integral(sector_polar(), axis)
        assert abs(polar.value - double.value) <= 10.0 * (
            polar.error_estimate + double.error_estimate)


class TestShell:
    def test_cone(self):
        report = rv.volume_shell(cone_normal_x(), AXIS_OY)
        assert abs(report.value - CONE_VOLUME) <= 1e-10

    def test_torus(self):
        report = rv.volume_shell(torus_normal_x(), AXIS_OY)
        assert abs(report.value - TORUS_VOLUME) <= 1e-7

    def test_square(self):
        report = rv.volume_shell(square_normal_x(), AXIS_OY)
        assert abs(report.value - SQUARE_VOLUME) <= 1e-10

    def test_polygon_via_slabs(self):
        report = rv.volume_shell(unit_square_polygon(), AXIS_OY)
        assert abs(report.value - SQUARE_VOLUME) <= 1e-10

    def test_horizontal_axis_with_normal_y(self):
        # right half-disk about y = -2: centroid distance 2, area pi/2
        report = rv.volume_shell(sphere_normal_y(), rv.Axis.horizontal(-2.0))
        assert abs(report.value - 2.0 * math.pi**2) <= 1e-8

    def test_union(self):
        report = rv.volume_shell(sector_shell_union(), AXIS_OY)
        assert abs(report.value - SECTOR_VOLUME) <= 1e-8

    def test_wrong_shapes(self):
        with pytest.raises(UnsupportedMethod):
            rv.volume_shell(sector_polar(), AXIS_OY)
        with pytest.raises(UnsupportedMethod):
            rv.volume_shell(square_normal_x(), rv.Axis(1.0, 1.0, 5.0))
        with pytest.raises(UnsupportedMethod):
            rv.volume_shell(square_normal_y(), AXIS_OY)

    def test_rejects_straddling_axis(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_shell(straddling_disk_x(), AXIS_OY)

    def test_rejects_union_with_parts_on_both_sides(self):
        # Both parts sweep the same solid: adding their shells would report
        # twice its volume of 8*pi.
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_shell(squares_both_sides_x(), rv.Axis.vertical(0))

    def test_unsupported_before_the_side_check(self):
        with pytest.raises(UnsupportedMethod):
            rv.volume_shell(straddling_disk_y(), AXIS_OY)

    def test_polygon_about_horizontal_axis_uses_y_slabs(self):
        # y-slabs are the x-slabs of the mirrored polygon, bit for bit
        ell = rv.Polygon((rv.Point(0, 0), rv.Point(2, 0), rv.Point(2, 1),
                          rv.Point(1, 1), rv.Point(1, 2.5), rv.Point(0, 2)))
        mirrored = rv.Polygon(tuple(rv.Point(v.y, v.x) for v in reversed(ell.vertices)))
        for c in (-1.5, 3.0):
            rows = rv.volume_shell(ell, rv.Axis.horizontal(c))
            cols = rv.volume_shell(mirrored, rv.Axis.vertical(c))
            assert (rows.value, rows.error_estimate, rows.evaluations) == (
                cols.value, cols.error_estimate, cols.evaluations)
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_shell(ell, rv.Axis.horizontal(1.0))

    def test_nested_union_is_its_flat_union(self):
        # Every route, the moments and the guards read a union through its
        # leaves, so nesting changes no bit: shell here, and all the others.
        def nest(parts):
            return rv.UnionRegion((rv.UnionRegion((parts[0], rv.UnionRegion(parts[1:2]))),
                                   rv.UnionRegion(parts[2:])))

        shell_parts = sector_shell_union().parts + (unit_square_polygon(),)
        cuts = (-math.pi / 3, 0.0, math.pi / 8, math.pi / 4)
        sectors = tuple(rv.PolarSector(a, b, rv.curve("0", "theta"), rv.curve("1", "theta"))
                        for a, b in zip(cuts, cuts[1:]))
        disk_parts = sector_disk_union().parts + (
            rv.NormalY(0.0, 0.5, rv.curve("1.5", "y"), rv.curve("2", "y")),)
        cfg = rv.McConfig(samples=20_000, seed=7)
        cases = [
            (shell_parts, ("shell", "double_integral", "pappus", "monte_carlo")),
            (sectors, ("polar", "double_integral", "pappus", "monte_carlo")),
            (disk_parts, ("disk", "double_integral", "pappus", "monte_carlo")),
        ]
        for parts, routes in cases:
            flat, nested = rv.UnionRegion(parts), nest(parts)
            assert flat != nested
            for route in routes:
                want, got = (run_route(route, region, AXIS_OY, cfg=cfg) for region in (flat, nested))
                assert (got.value, got.error_estimate, got.evaluations) == (
                    want.value, want.error_estimate, want.evaluations), route
            assert rv.area(nested) == rv.area(flat)
            assert rv.centroid(nested) == rv.centroid(flat)
            box = rv.bounding_box(flat)
            assert rv.bounding_box(nested) == box
            xs, ys = np.meshgrid(np.linspace(box[0] - 0.1, box[1] + 0.1, 41),
                                 np.linspace(box[2] - 0.1, box[3] + 0.1, 41))
            assert (rv.contains_mask(nested, xs, ys) == rv.contains_mask(flat, xs, ys)).all()
            assert rv.axis_side_check(nested, AXIS_OY) == rv.axis_side_check(flat, AXIS_OY)
            refusals = []
            for region in (flat, nested):
                with pytest.raises(AxisIntersectsRegion) as refused:
                    rv.axis_side_check(region, rv.Axis.vertical(0.5))
                refusals.append(str(refused.value))
            assert refusals[0] == refusals[1]


class TestDisk:
    def test_sector_union(self):
        report = rv.volume_disk(sector_disk_union(), AXIS_OY)
        assert abs(report.value - SECTOR_VOLUME) <= 1e-8

    def test_cylinder(self):
        cylinder = rv.NormalY(0.0, 1.0, rv.curve("0", "y"), rv.curve("1", "y"))
        report = rv.volume_disk(cylinder, AXIS_OY)
        assert abs(report.value - math.pi) <= 1e-10

    def test_sphere(self):
        report = rv.volume_disk(sphere_normal_y(), AXIS_OY)
        assert abs(report.value - SPHERE_VOLUME) <= 1e-8

    def test_torus(self):
        report = rv.volume_disk(torus_normal_y(), AXIS_OY)
        assert abs(report.value - TORUS_VOLUME) <= 1e-7

    def test_region_left_of_axis(self):
        report = rv.volume_disk(square_normal_y(), rv.Axis.vertical(3.0))
        # washers from radius 1 to 2 around x = 3
        assert abs(report.value - SQUARE_VOLUME) <= 1e-10

    def test_horizontal_axis_with_normal_x(self):
        report = rv.volume_disk(cone_normal_x(), AXIS_OX)
        assert abs(report.value - CONE_VOLUME) <= 1e-10

    def test_wrong_shapes(self):
        with pytest.raises(UnsupportedMethod):
            rv.volume_disk(sector_polar(), AXIS_OY)
        with pytest.raises(UnsupportedMethod):
            rv.volume_disk(square_normal_y(), rv.Axis(1.0, 1.0, 5.0))
        with pytest.raises(UnsupportedMethod):
            rv.volume_disk(unit_square_polygon(), rv.Axis(1.0, 1.0, 5.0))
        # A polygon about a vertical axis is cut into y-slabs, so disk takes it.
        disk = rv.volume_disk(unit_square_polygon(), AXIS_OY)
        double = rv.volume_double_integral(unit_square_polygon(), AXIS_OY)
        assert abs(disk.value - double.value) <= 10.0 * (
            disk.error_estimate + double.error_estimate)

    def test_rejects_straddling_axis(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_disk(straddling_disk_y(), AXIS_OY)

    def test_rejects_union_with_parts_on_both_sides(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_disk(squares_both_sides_y(), rv.Axis.vertical(0))

    def test_unsupported_before_the_side_check(self):
        with pytest.raises(UnsupportedMethod):
            rv.volume_disk(straddling_disk_x(), AXIS_OY)

    def test_axis_with_negative_coefficient(self):
        # -y + 2 = 0 with a tilt below the horizontal tolerance: the side
        # check signs -y + 2, the washers need the side of y - 2.
        axis = rv.Axis(1e-13, -1.0, 2.0)
        assert axis.b == -1.0
        disk = rv.volume_disk(cone_normal_x(), axis)
        double = rv.volume_double_integral(cone_normal_x(), axis)
        assert disk.value > 0.0
        assert abs(disk.value - double.value) <= 10.0 * (
            disk.error_estimate + double.error_estimate)

    def test_polygon_inside_nested_union(self):
        nested = rv.UnionRegion((rv.UnionRegion((unit_square_polygon(),)), cone_normal_x()))
        disk = rv.volume_disk(nested, AXIS_OX)
        double = rv.volume_double_integral(nested, AXIS_OX)
        assert abs(disk.value - double.value) <= 10.0 * (
            disk.error_estimate + double.error_estimate)
        with pytest.raises(UnsupportedMethod):  # the normal_x part, about a vertical axis
            rv.volume_disk(nested, AXIS_OY)


class TestPolar:
    def test_sector(self):
        report = rv.volume_polar(sector_polar(), AXIS_OY)
        assert abs(report.value - SECTOR_VOLUME) <= 1e-9

    def test_half_annulus_about_x_axis(self):
        annulus = rv.PolarSector(0.0, math.pi,
                                 rv.curve("1", "theta"), rv.curve("2", "theta"))
        report = rv.volume_polar(annulus, AXIS_OX)
        assert abs(report.value - 28.0 * math.pi / 3.0) <= 1e-8

    def test_needs_polar_region(self):
        with pytest.raises(UnsupportedMethod):
            rv.volume_polar(square_normal_x(), AXIS_OY)

    def test_rejects_straddling_axis(self):
        disk = rv.PolarSector(0.0, 2.0 * math.pi,
                              rv.curve("0", "theta"), rv.curve("1", "theta"))
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_polar(disk, AXIS_OY)

    def test_is_the_double_integral_on_every_sector(self):
        # Polar runs double_integral's pass over the closed-form polar
        # sections: the same value, error estimate and evaluations.
        jobs = [load_job(FIXTURES / name) for name in ("sector_polar.json",
                                                        "half_annulus_polar.json")]
        jobs += [parse_job(doc) for _, doc in quadrature_pin_cases()
                 if doc["region"]["type"] == "polar"]
        lens = rv.PolarSector(1.0, 2.0, rv.curve("0.2", "theta"),
                              rv.curve("1 + 0.3*cos(3*theta)", "theta"))
        union = rv.UnionRegion((sector_polar(), rv.UnionRegion((lens,))))
        cases = [(job.region, job.axis, job.tolerance) for job in jobs]
        cases += [(union, rv.Axis.vertical(-2.0), rv.Tolerance()),
                  (union, rv.Axis(1.0, 1.0, 3.0), rv.Tolerance(rel=1e-12))]
        assert len(cases) == 2 + 6 + 2
        for region, axis, tol in cases:
            polar = rv.volume_polar(region, axis, tol)
            double = rv.volume_double_integral(region, axis, tol)
            assert (polar.value, polar.error_estimate, polar.evaluations) == (
                double.value, double.error_estimate, double.evaluations)


def _triple(report):
    return report.value, report.error_estimate, report.evaluations


def _pass_jobs():
    """(name, region, axis, tol) of every fixture and pinned corpus case."""
    jobs = [(path.name, load_job(path)) for path in sorted(FIXTURES.glob("*.json"))]
    jobs += [(case_id, parse_job(doc)) for case_id, doc in quadrature_pin_cases()]
    return [(name, job.region, job.axis, job.tolerance) for name, job in jobs]


def _polygon_y_slabs(route, region, axis):
    """Whether ``route`` cuts ``region``'s polygons into y-slabs about
    ``axis``: shell about a horizontal axis, disk about a vertical one."""
    across = {"shell": axis.a, "disk": axis.b}.get(route)
    return across is not None and abs(across) <= 1e-12 and any(
        isinstance(leaf, rv.Polygon) for leaf in region_module.leaves(region))


class TestRoutesReadTheDistancePass:
    """Disk, shell and polar integrate a cut of the region that is
    double_integral's own, and so read its pass, cached by the pieces it
    integrates (``methods._distance_pass``); on a polygon, shell about a
    horizontal axis and disk about a vertical one integrate its y-slabs,
    the other order, as a pass of their own."""

    def test_is_the_double_integral_wherever_it_applies(self):
        applied = {"disk": 0, "shell": 0, "polar": 0}
        for name, region, axis, tol in _pass_jobs():
            for route in applied:
                if _polygon_y_slabs(route, region, axis):
                    continue
                _distance_pass.cache_clear()
                try:
                    cold = run_route(route, region, axis, tol)
                except (UnsupportedMethod, AxisIntersectsRegion):
                    continue
                double = rv.volume_double_integral(region, axis, tol)
                _distance_pass.cache_clear()
                fresh = rv.volume_double_integral(region, axis, tol)
                warm = run_route(route, region, axis, tol)
                assert (_triple(cold) == _triple(double) == _triple(fresh)
                        == _triple(warm)), (name, route)
                applied[route] += 1
        # Fixtures and corpus cases where each route applies.
        assert applied == {"disk": 4 + 8, "shell": 5 + 8, "polar": 2 + 6}

    @staticmethod
    def _own_pass(route, axis, volume):
        """``route`` on the C-shaped polygon about ``axis``, and on every
        pinned job where it integrates polygon y-slabs: a second cache
        entry beside double_integral's, agreeing with it.  Returns the
        number of jobs it applied to; the C-shape gives ``volume``."""
        c_shape = _polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 4], [0, 4]])
        cases = [(c_shape, axis, rv.Tolerance())]
        cases += [(region, about, tol) for _, region, about, tol in _pass_jobs()
                  if _polygon_y_slabs(route, region, about)]
        applied = 0
        for region, about, tol in cases:
            _distance_pass.cache_clear()
            double = rv.volume_double_integral(region, about, tol)
            try:
                own = run_route(route, region, about, tol)
            except UnsupportedMethod:  # a union with a normal_x part
                continue
            assert _distance_pass.cache_info().currsize == 2
            assert abs(own.value - double.value) <= 10.0 * (
                own.error_estimate + double.error_estimate)
            applied += 1
        assert abs(run_route(route, c_shape, axis).value - volume) <= 1e-12 * volume
        return applied

    def test_shell_on_polygon_y_slabs_is_its_own_pass(self):
        assert self._own_pass("shell", rv.Axis.horizontal(-1.0), 62.0 * math.pi) == 1 + 2

    def test_disk_on_polygon_y_slabs_is_its_own_pass(self):
        assert self._own_pass("disk", rv.Axis.vertical(-1.0), 48.0 * math.pi) == 1 + 3

    def test_refusals_are_raised_on_every_call(self):
        job = load_job(FIXTURES / "straddle.json")
        _distance_pass.cache_clear()
        messages = set()
        for route in ("double_integral", "shell", "double_integral", "shell"):
            with pytest.raises(AxisIntersectsRegion) as refused:
                run_route(route, job.region, job.axis, job.tolerance)
            messages.add(str(refused.value))
        assert len(messages) == 1
        assert _distance_pass.cache_info().currsize == 0
        for route in ("disk", "polar"):
            with pytest.raises(UnsupportedMethod):
                run_route(route, job.region, job.axis, job.tolerance)

    def test_a_second_call_is_a_cache_hit(self):
        job = load_job(FIXTURES / "torus_disk.json")
        _distance_pass.cache_clear()
        first = rv.volume_disk(job.region, job.axis, job.tolerance)
        assert _distance_pass.cache_info()[:2] == (0, 1)  # (hits, misses)
        again = rv.volume_disk(job.region, job.axis, job.tolerance)
        double = rv.volume_double_integral(load_job(FIXTURES / "torus_disk.json").region,
                                           job.axis, job.tolerance)
        assert _distance_pass.cache_info()[:2] == (2, 1)
        assert _triple(first) == _triple(again) == _triple(double) == (
            39.478417604518725, 2.7992287396193797e-09, 945)

    def test_nearly_vertical_or_horizontal_axis_is_integrated_exactly(self):
        # The b*y (a*x) term of such an axis moves these volumes by about
        # 8e-10, far above their estimates of about 2e-13; the routes apply
        # as about an axis x = x0 (y = y0) but integrate its exact distance.
        near_vertical, near_horizontal = rv.Axis(1.0, 1e-13, 1.0), rv.Axis(1e-13, 1.0, 2.0)
        cases = [
            ("shell", rv.NormalX(0.0, 1.0, rv.curve("1000", "x"), rv.curve("1001 + x^2", "x")),
             near_vertical),
            ("disk", rv.NormalY(1000.0, 1001.0, rv.curve("0", "y"),
                                rv.curve("1 + (y - 1000)^2", "y")), near_vertical),
            ("disk", rv.NormalX(1000.0, 1001.0, rv.curve("0", "x"),
                                rv.curve("1 + (x - 1000)^2", "x")), near_horizontal),
        ]
        for route, region, axis in cases:
            _distance_pass.cache_clear()
            got = run_route(route, region, axis)
            double = rv.volume_double_integral(region, axis)
            assert _triple(got) == _triple(double), route


class TestTransposeSymmetry:
    # A NormalY with the curves of a NormalX is its mirror image in y = x.
    @staticmethod
    def _pair():
        nx = rv.NormalX(0.5, 2.0, rv.curve("x^2/4", "x"), rv.curve("1+x", "x"))
        ny = rv.NormalY(0.5, 2.0, rv.curve("y^2/4", "y"), rv.curve("1+y", "y"))
        return nx, ny

    def test_boxes_and_masks_swap(self):
        nx, ny = self._pair()
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(nx)
        assert rv.bounding_box(ny) == (y_lo, y_hi, x_lo, x_hi)
        rng = np.random.default_rng(31)
        us, vs = rng.uniform(0.0, 3.5, size=(2, 500))
        assert (rv.contains_mask(nx, us, vs) == rv.contains_mask(ny, vs, us)).all()

    def test_moments_swap(self):
        nx, ny = self._pair()
        a, sx, sy = _region_moments(nx, rv.Tolerance()).value
        assert _region_moments(ny, rv.Tolerance()).value == (a, sy, sx)

    def test_shell_volumes_equal_bit_for_bit(self):
        nx, ny = self._pair()
        for c in (-1.0, 0.25, 4.0):
            about_x = rv.volume_shell(nx, rv.Axis.vertical(c))
            about_y = rv.volume_shell(ny, rv.Axis.horizontal(c))
            assert (about_x.value, about_x.error_estimate, about_x.evaluations) == (
                about_y.value, about_y.error_estimate, about_y.evaluations)

    def test_unequal_with_separate_cache_entries(self):
        nx, ny = self._pair()
        assert nx != ny
        _region_moments.cache_clear()
        rv.area(nx)
        rv.area(ny)
        assert _region_moments.cache_info().misses == 2
        assert _region_moments.cache_info().currsize == 2


class TestRecordsAsCacheKeys:
    """The side check is cached by the value of its records, and the
    distance pass by the pieces they cut into: equal records built
    separately are one key, and records of two classes with the same
    fields are two."""

    def test_axis_equals_its_normalized_twin(self):
        doubled, axis = rv.Axis(2, 0, 4), rv.Axis(1, 0, 2)
        assert fields(doubled) == fields(axis) == {"a": 1.0, "b": 0.0, "c": 2.0}
        assert doubled == axis and hash(doubled) == hash(axis)

    def test_int_bounds_equal_their_float_twin(self):
        ints = rv.NormalX(0, 1, rv.curve("0", "x"), rv.curve("1 - x^2", "x"))
        floats = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1 - x^2", "x"))
        assert type(ints.x_min) is type(ints.x_max) is float
        assert ints == floats and hash(ints) == hash(floats)

    def test_equal_regions_share_one_entry(self):
        def build():
            return rv.NormalX(1.0, 2.0, rv.curve("0", "x"), rv.curve("1 + x^2", "x"))

        first, second = build(), build()
        assert first is not second
        axis, tol = rv.Axis.vertical(-1.0), rv.Tolerance()
        rv.axis_side_check.cache_clear()
        assert rv.axis_side_check(first, axis) == rv.axis_side_check(second, axis) == 1
        assert rv.axis_side_check.cache_info()[:2] == (1, 1)  # (hits, misses)
        _distance_pass.cache_clear()
        kept = rv.volume_double_integral(first, axis, tol)
        assert _triple(rv.volume_double_integral(second, axis, tol)) == _triple(kept)
        assert _distance_pass.cache_info()[:2] == (1, 1)

    def test_two_classes_with_equal_fields_are_two_keys(self):
        low, high = rv.curve("0", "x"), rv.curve("1", "x")
        nx, ny = rv.NormalX(2.0, 3.0, low, high), rv.NormalY(2.0, 3.0, low, high)
        assert tuple(fields(nx).values()) == tuple(fields(ny).values())
        assert nx != ny and hash(nx) == hash(ny)
        axis, tol = rv.Axis.vertical(-1.0), rv.Tolerance()
        rv.axis_side_check.cache_clear()
        _distance_pass.cache_clear()
        for region in (nx, ny):
            rv.volume_double_integral(region, axis, tol)
        for cached in (rv.axis_side_check, _distance_pass):
            info = cached.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, 2, 2), cached


class TestAreaCentroid:
    def test_square_exact(self):
        report = rv.centroid(unit_square_polygon())
        assert report.area == 1.0
        assert (report.centroid.x, report.centroid.y) == (1.5, 0.5)

    def test_triangle_exact(self):
        report = rv.centroid(cone_triangle())
        assert report.area == 0.5
        assert report.centroid.x == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert report.centroid.y == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_offset_circle(self):
        report = rv.centroid(torus_normal_x())
        assert rv.area(torus_normal_x()) == pytest.approx(math.pi, abs=1e-9)
        assert report.centroid.x == pytest.approx(2.0, abs=1e-9)
        assert report.centroid.y == pytest.approx(0.0, abs=1e-9)

    def test_centroid_in_bounding_box(self):
        for region in [sector_polar(), sector_disk_union(), torus_normal_x()]:
            report = rv.centroid(region)
            x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
            assert x_lo <= report.centroid.x <= x_hi
            assert y_lo <= report.centroid.y <= y_hi
            assert report.area > 0.0


class TestZeroArea:
    def test_centroid_and_pappus_refuse_zero_area(self):
        flat = rv.NormalX(0.0, 1.0, rv.curve("x", "x"), rv.curve("x", "x"))
        assert rv.area(flat) == 0.0
        with pytest.raises(rv.InvalidRegionError, match="zero area"):
            rv.centroid(flat)
        with pytest.raises(rv.InvalidRegionError, match="zero area"):
            rv.volume_pappus(flat, rv.Axis.vertical(-1.0))

    def test_compare_lists_pappus_as_a_failure(self):
        flat = rv.NormalX(0.0, 1.0, rv.curve("x", "x"), rv.curve("x", "x"))
        comparison = rv.compare_methods(flat, rv.Axis.vertical(-1.0),
                                        cfg=rv.McConfig(1000, 3))
        failures = {f.method: f.error for f in comparison.failures}
        assert failures["pappus"] == "InvalidRegionError"
        assert {r.method for r in comparison.reports} == {"double_integral", "shell", "monte_carlo"}
        assert comparison.verdict == "agree"


class TestMomentsNearFloatRange:
    """Polygons whose first moments overflow: centroid and pappus refuse
    them, and so does containment, while the quadrature routes run."""

    @pytest.mark.parametrize("vertices", [_WIDE_RECTANGLE, _THIN_TRIANGLE])
    def test_centroid_and_pappus_refuse(self, vertices):
        region = _polygon(vertices)
        with pytest.raises(rv.InvalidRegionError, match="give no finite centroid"):
            rv.centroid(region)
        with pytest.raises(rv.InvalidRegionError, match="give no finite centroid"):
            rv.volume_pappus(region, rv.Axis.horizontal(-1.0))

    @pytest.mark.parametrize("vertices", [_WIDE_RECTANGLE, _THIN_TRIANGLE])
    def test_compare_lists_pappus_and_monte_carlo_as_failures(self, vertices):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comparison = rv.compare_methods(_polygon(vertices), rv.Axis.horizontal(-1.0),
                                            cfg=rv.McConfig(1000, 3))
        failures = {f.method: f.error for f in comparison.failures}
        assert failures["pappus"] == failures["monte_carlo"] == "InvalidRegionError"
        assert "double_integral" in {r.method for r in comparison.reports}
        assert all(math.isfinite(r.value) for r in comparison.reports)

    def test_wide_rectangle_volume(self):
        # 2*pi * 1.5 (the centroid's distance) * 1e155 (the area).
        report = rv.volume_double_integral(_polygon(_WIDE_RECTANGLE), rv.Axis.horizontal(-1.0))
        assert report.value == pytest.approx(3.0 * math.pi * 1e155, rel=1e-12)


class TestVolumeBeyondFloatRange:
    """A union whose area and moments are finite and whose volume is not:
    every route refuses it rather than report an infinite volume."""

    @pytest.mark.parametrize("route", ["double_integral", "disk", "pappus"])
    def test_route_refuses_every_time(self, route):
        job = parse_job(overflowing_union_doc())
        for _ in range(2):  # the second call reads the cached pass
            with pytest.raises(QuadratureNoConvergence,
                               match=rf"^{route} volume inf with error estimate [0-9.e+]+ "
                                     r"is not finite$"):
                run_route(route, job.region, job.axis)

    def test_compare_has_no_data(self):
        job = parse_job(overflowing_union_doc())
        comparison = rv.compare_methods(job.region, job.axis, cfg=rv.McConfig(1000, 3))
        failures = {f.method: f.error for f in comparison.failures}
        assert (comparison.reports, comparison.verdict) == ((), "no data")
        assert failures == {"double_integral": "QuadratureNoConvergence",
                            "disk": "QuadratureNoConvergence", "shell": "UnsupportedMethod",
                            "polar": "UnsupportedMethod", "pappus": "QuadratureNoConvergence",
                            "monte_carlo": "InvalidRegionError"}


class TestMomentCache:
    @staticmethod
    def _pappus(region):
        r = rv.volume_pappus(region, AXIS_OY)
        return (r.value, r.error_estimate, r.evaluations)

    @pytest.mark.parametrize("make_region", [
        torus_normal_x, sector_polar, sector_shell_union, unit_square_polygon,
    ])
    @pytest.mark.parametrize("name", ["area", "centroid", "pappus"])
    def test_results_do_not_depend_on_cache_state(self, make_region, name):
        fn = self._pappus if name == "pappus" else getattr(rv, name)
        _region_moments.cache_clear()
        cold = fn(make_region())
        warm = fn(make_region())  # an equal but distinct region object
        _region_moments.cache_clear()
        cleared = fn(make_region())
        assert cold == warm == cleared

    def test_equal_regions_from_separate_parses_share_an_entry(self):
        doc = json.loads((FIXTURES / "torus_circle.json").read_text())
        _region_moments.cache_clear()
        first = parse_job(doc)
        second = parse_job(doc)
        assert first.region is not second.region
        assert first.region == second.region
        r1 = rv.volume_pappus(first.region, first.axis, first.tolerance)
        r2 = rv.volume_pappus(second.region, second.axis, second.tolerance)
        info = _region_moments.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert (r1.value, r1.error_estimate, r1.evaluations) == (
            r2.value, r2.error_estimate, r2.evaluations)
        assert r1.evaluations > 0

    def test_tolerance_is_part_of_the_key(self):
        region = torus_normal_x()
        loose = rv.volume_pappus(region, AXIS_OY, rv.Tolerance(rel=1e-6))
        tight = rv.volume_pappus(region, AXIS_OY, rv.Tolerance(rel=1e-12))
        assert loose.evaluations < tight.evaluations


class TestSlabsSharingAColumn:
    """A C-shaped polygon has two slabs over x in [1, 3], each between
    curves of its own; every route integrates each over its own curves,
    whatever the panel memos hold, on cleared caches and warm."""

    C_SHAPE = [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 4], [0, 4]]

    @pytest.mark.parametrize("axis,volume", [
        (rv.Axis.vertical(-1.0), 2.0 * math.pi * 2.4 * 10.0),  # area 10, centroid x 1.4
        (rv.Axis.horizontal(-1.0), 2.0 * math.pi * 3.1 * 10.0),  # centroid y 2.1
    ])
    def test_every_route_gives_the_exact_volume(self, axis, volume):
        region_module._polygon_pieces.cache_clear()
        quadrature._memo.cache_clear()
        _region_moments.cache_clear()
        _distance_pass.cache_clear()
        values = []
        for _ in range(2):
            for name in ("double_integral", "disk", "shell", "pappus"):
                try:
                    values.append((name, run_route(name, _polygon(self.C_SHAPE), axis).value))
                except UnsupportedMethod:
                    pass
        assert len(values) == 8
        for name, value in values:
            assert abs(value - volume) <= 1e-12 * volume, name


class TestNearZeroMoments:
    # A moment that cancels to ~0 by symmetry is held to rel * integral of
    # |x| (resp. |y|), not to the absolute floor; these used to run for
    # tens of seconds and end in QuadratureNoConvergence.
    def test_sector_symmetric_about_x_axis(self):
        sector = rv.PolarSector(-math.pi / 4, math.pi / 4,
                                rv.curve("0", "theta"), rv.curve("1000", "theta"))
        report = rv.centroid(sector)
        # centroid of a sector of half-angle alpha: 2 R sin(alpha) / (3 alpha)
        alpha = math.pi / 4
        assert report.area == pytest.approx(alpha * 1000.0**2, rel=1e-10)
        assert report.centroid.x == pytest.approx(
            2000.0 * math.sin(alpha) / (3.0 * alpha), rel=1e-10)
        assert abs(report.centroid.y) <= 1e-9 * 1000.0
        pappus = rv.volume_pappus(sector, rv.Axis.vertical(-1.0))
        assert pappus.evaluations <= 5_000

    def test_disk_centred_on_the_y_axis(self):
        disk = rv.NormalX(-1000.0, 1000.0,
                          rv.curve("-sqrt(1000^2-x^2)", "x"),
                          rv.curve("sqrt(1000^2-x^2)", "x"))
        report = rv.centroid(disk)
        assert report.area == pytest.approx(math.pi * 1000.0**2, rel=1e-10)
        assert abs(report.centroid.x) <= 1e-9 * 1000.0
        assert abs(report.centroid.y) <= 1e-9 * 1000.0
        pappus = rv.volume_pappus(disk, rv.Axis.vertical(-1000.0))
        assert pappus.value == pytest.approx(2.0 * math.pi**2 * 1000.0**3, rel=1e-10)
        assert pappus.evaluations <= 5_000


class TestPappus:
    def test_torus(self):
        report = rv.volume_pappus(torus_normal_x(), AXIS_OY)
        assert abs(report.value - TORUS_VOLUME) <= 1e-7

    def test_square_closed_form(self):
        report = rv.volume_pappus(unit_square_polygon(), AXIS_OY)
        assert report.value == pytest.approx(SQUARE_VOLUME, rel=1e-15)
        assert report.error_estimate == 0.0

    def test_corotated_axis_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            poly = random_convex_polygon(rng)
            axis = exterior_oblique_axis(rng, poly)
            motion = random_motion(rng)
            v1 = rv.volume_pappus(poly, axis).value
            v2 = rv.volume_pappus(move_polygon(motion, poly),
                                  apply_motion_axis(motion, axis)).value
            assert v2 == pytest.approx(v1, rel=1e-9)

    def test_scaling_law(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            poly = random_convex_polygon(rng)
            axis = exterior_oblique_axis(rng, poly)
            k = rng.uniform(0.3, 3.0)
            scaled_poly = rv.Polygon(tuple(rv.Point(k * v.x, k * v.y)
                                           for v in poly.vertices))
            scaled_axis = rv.Axis(axis.a, axis.b, axis.c * k)
            v1 = rv.volume_pappus(poly, axis).value
            v2 = rv.volume_pappus(scaled_poly, scaled_axis).value
            assert v2 == pytest.approx(k**3 * v1, rel=1e-9)

    def test_rejects_straddling_axis(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_pappus(straddling_disk_x(), AXIS_OY)


class TestMonteCarlo:
    def test_square_within_four_sigma(self):
        report = rv.volume_monte_carlo(unit_square_polygon(), AXIS_OY,
                                       rv.McConfig(1_000_000, 42))
        assert abs(report.value - SQUARE_VOLUME) <= 4.0 * report.error_estimate
        assert report.error_estimate > 0.0
        assert report.evaluations == 1_000_000

    def test_seed_determinism(self):
        cfg = rv.McConfig(50_000, 7)
        r1 = rv.volume_monte_carlo(sector_polar(), AXIS_OY, cfg)
        r2 = rv.volume_monte_carlo(sector_polar(), AXIS_OY, cfg)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate

    def test_sector_within_four_sigma(self):
        report = rv.volume_monte_carlo(sector_polar(), AXIS_OY,
                                       rv.McConfig(200_000, 3))
        assert abs(report.value - SECTOR_VOLUME) <= 4.0 * report.error_estimate

    def test_long_thin_triangle_within_four_sigma(self):
        # 1e10 long and 1 high: an on-edge slack that grew with the square of
        # the coordinates put a band 0.01 high above the long edge inside,
        # about ten standard errors here.
        triangle = rv.Polygon((rv.Point(0, 0), rv.Point(1e10, 0), rv.Point(1e10, 1)))
        axis = rv.Axis.horizontal(-1.0)
        report = rv.volume_monte_carlo(triangle, axis, rv.McConfig(200_000, 1))
        exact = 2.0 * math.pi * 5e9 * (1.0 + 1.0 / 3.0)  # 2*pi * area * centroid distance
        assert rv.volume_double_integral(triangle, axis).value == pytest.approx(exact, rel=1e-12)
        assert abs(report.value - exact) <= 4.0 * report.error_estimate

    def test_consistency_over_seeds(self):
        # |MC - double| within 4 standard errors for at least 28 of 30 seeds
        region = unit_square_polygon()
        double = rv.volume_double_integral(region, AXIS_OY).value
        hits = 0
        for seed in range(30):
            report = rv.volume_monte_carlo(region, AXIS_OY, rv.McConfig(20_000, seed))
            if abs(report.value - double) <= 4.0 * report.error_estimate:
                hits += 1
        assert hits >= 28

    def test_philox_keying_is_stable(self):
        # Frozen Philox 4x64 test vector for key 42; a change here means
        # seeds are no longer portable.
        raw = np.random.Philox(key=42).random_raw(3)
        assert list(raw) == [
            15129985323320379406,
            3490965594592278910,
            16005516994917231875,
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            rv.McConfig(10, 0)
        with pytest.raises(ValueError):
            rv.McConfig(1000, -1)

    def test_float_sample_count_is_refused_before_sampling(self):
        # At construction: not after the side check, in the chunk loop.
        with pytest.raises(TypeError, match="^samples: expected an integer, got 1000000.0$"):
            rv.volume_monte_carlo(unit_square_polygon(), AXIS_OY, rv.McConfig(samples=1e6))

    def test_fractional_seed_is_refused(self):
        # numpy would truncate it to the Philox key 1.
        with pytest.raises(TypeError, match="^seed: expected an integer, got 1.5$"):
            rv.McConfig(1000, 1.5)

    @pytest.mark.parametrize("kwargs", [{"samples": True}, {"seed": False}])
    def test_bool_count_is_refused(self, kwargs):
        with pytest.raises(TypeError, match=f"^{next(iter(kwargs))}: expected an integer"):
            rv.McConfig(**kwargs)

    def test_numpy_integers_are_counts(self):
        square = unit_square_polygon()
        numpy_cfg = rv.McConfig(np.int64(20_000), np.uint64(7))
        assert numpy_cfg == rv.McConfig(20_000, 7)
        assert (rv.volume_monte_carlo(square, AXIS_OY, numpy_cfg).value
                == rv.volume_monte_carlo(square, AXIS_OY, rv.McConfig(20_000, 7)).value)

    @pytest.mark.parametrize("samples", [10**30, 2**25 + 1])
    def test_sample_count_is_bounded(self, samples):
        with pytest.raises(ValueError, match="at most 33554432 samples"):
            rv.McConfig(samples, 0)
        assert rv.McConfig(2**25, 0).samples == 2**25

    def test_rejects_straddling_axis(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_monte_carlo(straddling_disk_x(), AXIS_OY, rv.McConfig(1000, 0))

    @staticmethod
    def _one_shot(region, axis, samples, seed):
        """The estimate over one full-length draw: every point at once."""
        x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
        raw = np.random.Philox(key=seed).random_raw(2 * samples)
        u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        xs = x_lo + (x_hi - x_lo) * u[0::2]
        ys = y_lo + (y_hi - y_lo) * u[1::2]
        inside = rv.contains_mask(region, xs, ys)
        vals = np.where(inside, 2.0 * math.pi * np.abs(axis.a * xs + axis.b * ys + axis.c), 0.0)
        box_area = (x_hi - x_lo) * (y_hi - y_lo)
        return (box_area * float(vals.mean()),
                box_area * float(vals.std(ddof=1)) / math.sqrt(samples))

    @pytest.mark.parametrize("samples", [100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("region", [unit_square_polygon, sector_polar])
    def test_chunks_match_one_draw(self, region, samples):
        region = region()
        report = rv.volume_monte_carlo(region, AXIS_OY, rv.McConfig(samples, 11))
        value, stderr = self._one_shot(region, AXIS_OY, samples, 11)
        assert report.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert report.error_estimate == pytest.approx(stderr, rel=1e-12, abs=0.0)
        assert report.evaluations == samples

    def test_philox_draws_continue_one_stream(self):
        # The chunked estimate rests on this: two draws are one longer draw.
        split = np.random.Philox(key=5)
        head, tail = split.random_raw(7), split.random_raw(_CHUNK + 3)
        whole = np.random.Philox(key=5).random_raw(7 + _CHUNK + 3)
        assert np.array_equal(np.concatenate([head, tail]), whole)

    def test_box_beyond_float_range_is_refused(self):
        # The box's width overflows; sampling it would give NaN.
        region = rv.NormalX(-1e308, 1e308, rv.curve("0", "x"), rv.curve("1+x*0", "x"))
        with pytest.raises(rv.InvalidRegionError, match="too large to sample"):
            rv.volume_monte_carlo(region, rv.Axis.horizontal(-1.0), rv.McConfig(1000, 0))

    def test_overflowing_estimate_is_refused_at_the_first_chunk(self, monkeypatch):
        # The first chunk's squared distances already sum past float range,
        # and the merged M2 cannot be finite again: the other 15 chunks of
        # 1e6 samples are not drawn.
        job = parse_job(overflowing_union_doc())
        calls = []
        monkeypatch.setattr("revolve.methods.contains_mask",
                            lambda *args: calls.append(1) or rv.contains_mask(*args))
        with pytest.raises(rv.InvalidRegionError) as err:
            rv.volume_monte_carlo(job.region, job.axis, rv.McConfig(10**6, 0))
        assert str(err.value) == (
            "Monte Carlo estimate inf with standard error inf is not finite: "
            "the distances over the bounding box are too large to sum or square")
        assert len(calls) == 1

    @pytest.mark.parametrize("fixture", ["unit_square", "sector_polar"])
    def test_memory_does_not_grow_with_samples(self, fixture):
        job = load_job(FIXTURES / f"{fixture}.json")
        tracemalloc.start()
        try:
            rv.volume_monte_carlo(job.region, job.axis, rv.McConfig(2**20, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A full-length draw of 2^20 points would peak near 80 MiB.
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fixture", ["unit_square", "sector_polar", "torus_disk",
                                         "sector_disk_union"])
    def test_a_chunk_streams_through_two_coordinate_buffers(self, fixture):
        job = load_job(FIXTURES / f"{fixture}.json")
        # Untraced first: the cell grid, and numpy.random's first-use imports.
        rv.volume_monte_carlo(job.region, job.axis, rv.McConfig(2 * _CHUNK, 1))
        tracemalloc.start()
        try:
            rv.volume_monte_carlo(job.region, job.axis, rv.McConfig(2**20, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # x and y of a chunk (1 MiB), a quarter chunk of raw words (0.25
        # MiB) and the chunk's cell codes, then the exact tests on the
        # boundary cells.  Separate uniform, distance and scratch buffers
        # with a full-length cell index peak near 4.1 MiB.
        assert peak <= 2.5 * 2**20


# One region of each variant, and an oblique axis exterior to all of them.
_MC_VARIANTS = {
    "polygon": unit_square_polygon,
    "normal_x": torus_normal_x,
    "normal_y": torus_normal_y,
    "sector": sector_polar,
    "union": sector_disk_union,
}
_MC_OBLIQUE = rv.Axis(1.0, 0.5, 1.0)

class TestMonteCarloReference:
    """The chunk loop of reused buffers, the raw stream's words converted
    through their int64 view, the cells read off their top bits and the
    multiply by the mask is the reference loop (``ref_monte_carlo``) bit for
    bit: value, error estimate and evaluations."""

    @pytest.mark.parametrize("key", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("samples", [
        100, 101, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 3, 2 * _CHUNK + _CHUNK // 4 + 1,
        3 * _CHUNK + 5,  # chunks and their quarter-chunk draws, whole and split unevenly
        region_module._GRID_POINTS, region_module._GRID_POINTS + 1])  # either side of the grid
    @pytest.mark.parametrize("variant", sorted(_MC_VARIANTS))
    def test_equals_reference(self, variant, samples, key):
        region = _MC_VARIANTS[variant]()
        cfg = rv.McConfig(samples, key)
        report = rv.volume_monte_carlo(region, _MC_OBLIQUE, cfg)
        ref = ref_monte_carlo(region, _MC_OBLIQUE, cfg)
        assert report.value == ref.value
        assert report.error_estimate == ref.error_estimate
        assert report.evaluations == ref.evaluations == samples

    def test_short_runs_build_no_grid(self):
        # A chunk reads the grid only when it has more than _GRID_POINTS
        # points.
        region = torus_normal_x()
        region_module._cell_grid.cache_clear()
        rv.volume_monte_carlo(region, _MC_OBLIQUE, rv.McConfig(region_module._GRID_POINTS, 0))
        assert region_module._cell_grid.cache_info().currsize == 0
        rv.volume_monte_carlo(region, _MC_OBLIQUE, rv.McConfig(region_module._GRID_POINTS + 1, 0))
        assert region_module._cell_grid.cache_info().currsize == 1

    @pytest.mark.parametrize("samples", [100, region_module._GRID_POINTS + 1])
    def test_points_are_the_scaled_uniforms(self, samples, monkeypatch):
        # x_lo + width * u, u = (raw >> 11) * 2^-53, bit for bit; on a box
        # narrower than 2^-969, width * 2^-53 is not a normal double, and
        # a width of 53 significant bits would be rounded by it.
        width = math.sqrt(3.0) * 2.0**-1000
        for region in (torus_normal_x(), rv.Polygon((rv.Point(0.0, 0.0), rv.Point(width, 0.0),
                                                     rv.Point(0.0, 2.0)))):
            seen = []

            def record(region, xs, ys, *codes):
                seen.append((xs.copy(), ys.copy()))
                return rv.contains_mask(region, xs, ys, *codes)

            monkeypatch.setattr(rv.methods, "contains_mask", record)
            rv.volume_monte_carlo(region, rv.Axis.vertical(-1.0), rv.McConfig(samples, 42))
            x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
            u = (np.random.Philox(key=42).random_raw(2 * samples) >> np.uint64(11)) * 2.0**-53
            xs, ys = (np.concatenate(c) for c in zip(*seen))
            assert np.array_equal(xs, x_lo + (x_hi - x_lo) * u[0::2])
            assert np.array_equal(ys, y_lo + (y_hi - y_lo) * u[1::2])

    @pytest.mark.parametrize("chunk", [_CHUNK, 2 * _CHUNK])
    @pytest.mark.parametrize("key", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("count", [100, 65537, 70001, 131072])
    def test_generator_random_is_the_raw_conversion(self, count, key, chunk):
        raw = np.random.Philox(key=key).random_raw(count)
        want = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        rng = np.random.Generator(np.random.Philox(key=key))
        buf = np.empty(min(chunk, count))
        got = []
        for start in range(0, count, chunk):
            part = buf[:min(chunk, count - start)]
            rng.random(out=part)
            got.append(part.copy())
        assert np.array_equal(np.concatenate(got), want)

    def test_distance_beyond_float_range_is_refused(self):
        # 2*pi*|x + 1.7e308| overflows on the whole box: the select would
        # give inf, the multiply NaN.
        region = rv.NormalX(1.5e308, 1.6e308, rv.curve("0", "x"), rv.curve("1", "x"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rv.InvalidRegionError, match="too far from the axis to sample"):
                rv.volume_monte_carlo(region, rv.Axis.vertical(-1.7e308), rv.McConfig(1000, 0))

    @pytest.mark.parametrize("offset", [2.5e307, 1e160])
    def test_estimate_beyond_float_range_is_refused(self, offset):
        # Every corner's distance is finite, but their sum (2.5e307) or the
        # squares of their deviations (1e160) are not.
        region = rv.NormalX(1.0, 2.0, rv.curve("0", "x"), rv.curve("1", "x"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rv.InvalidRegionError, match="standard error .* is not finite"):
                rv.volume_monte_carlo(region, rv.Axis.vertical(-offset), rv.McConfig(1000, 0))

    def test_distances_far_from_the_box_are_the_reference(self):
        region = rv.NormalX(1.0, 2.0, rv.curve("0", "x"), rv.curve("1", "x"))
        axis, cfg = rv.Axis.vertical(-1e100), rv.McConfig(1000, 0)
        report = rv.volume_monte_carlo(region, axis, cfg)
        ref = ref_monte_carlo(region, axis, cfg)
        assert (report.value, report.error_estimate) == (ref.value, ref.error_estimate)
        assert report.value == pytest.approx(2.0 * math.pi * 1e100, rel=1e-6)

    @pytest.mark.parametrize("vertices", [_WIDE_RECTANGLE, _THIN_TRIANGLE])
    def test_polygon_near_float_range_is_refused(self, vertices):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rv.InvalidRegionError, match="too near the float range"):
                rv.volume_monte_carlo(_polygon(vertices), rv.Axis.horizontal(-1.0),
                                      rv.McConfig(1000, 0))


_MC_PINS = json.loads((pathlib.Path(__file__).parent / "monte_carlo_pins.json").read_text())


class TestMonteCarloPins:
    """Estimates pinned bit for bit, as the exact containment tests gave them
    before the cell grid: the 15 mc_sample benchmark jobs of seed 4242
    (4e6 samples each) and every fixture with its own Monte Carlo config."""

    @pytest.mark.parametrize("pin", _MC_PINS["mc_sample_seed_4242"],
                             ids=[f"{i}-{pin['doc']['region']['type']}"
                                  for i, pin in enumerate(_MC_PINS["mc_sample_seed_4242"])])
    def test_benchmark_estimates(self, pin):
        job = parse_job(pin["doc"])
        report = rv.volume_monte_carlo(job.region, job.axis, job.mc)
        assert (report.value, report.error_estimate) == (pin["value"], pin["error_estimate"])

    @pytest.mark.parametrize("name", sorted(_MC_PINS["fixtures"]))
    def test_fixture_estimates(self, name):
        job = load_job(FIXTURES / name)
        report = rv.volume_monte_carlo(job.region, job.axis, job.mc)
        pin = _MC_PINS["fixtures"][name]
        assert (report.value, report.error_estimate) == (pin["value"], pin["error_estimate"])


class TestObliqueAndSeamCases:
    def test_seam_crossing_sector_negative_side(self):
        # Left half-annulus (theta in [pi/2, 3pi/2], rho in [1, 2]) about
        # x = 1: exactly 3*pi^2 + 28*pi/3 (area term plus first moment).
        sector = rv.PolarSector(math.pi / 2, 3 * math.pi / 2,
                                rv.curve("1", "theta"), rv.curve("2", "theta"))
        axis = rv.Axis.vertical(1.0)
        exact = 3.0 * math.pi**2 + 28.0 * math.pi / 3.0
        assert rv.axis_side_check(sector, axis) == -1
        for fn in (rv.volume_double_integral, rv.volume_polar, rv.volume_pappus):
            assert abs(fn(sector, axis).value - exact) <= 1e-8

    def test_rotated_scene_keeps_known_volume(self):
        # The square-about-its-nearby-axis solid has volume 3*pi; moving
        # square and axis together must not change that.
        motion = RigidMotion(math.pi / 6, (0.7, -1.3))
        square = move_polygon(motion, unit_square_polygon())
        axis = apply_motion_axis(motion, AXIS_OY)
        d = rv.volume_double_integral(square, axis)
        p = rv.volume_pappus(square, axis)
        assert abs(d.value - SQUARE_VOLUME) <= 1e-9
        assert abs(p.value - SQUARE_VOLUME) <= 1e-9
        mc = rv.volume_monte_carlo(square, axis, rv.McConfig(200_000, 123))
        assert abs(mc.value - SQUARE_VOLUME) <= 4.0 * mc.error_estimate


class TestAdditivity:
    def test_union_volume_is_sum_of_parts(self):
        left = rv.NormalX(1.0, 2.0, rv.curve("0", "x"), rv.curve("1", "x"))
        right = rv.NormalX(3.0, 4.0, rv.curve("-1", "x"), rv.curve("1+x/4", "x"))
        union = rv.UnionRegion((left, right))
        vu = rv.volume_double_integral(union, AXIS_OY)
        v1 = rv.volume_double_integral(left, AXIS_OY)
        v2 = rv.volume_double_integral(right, AXIS_OY)
        slack = vu.error_estimate + v1.error_estimate + v2.error_estimate
        assert abs(vu.value - (v1.value + v2.value)) <= max(slack, 1e-12)


class TestRouteTable:
    def test_one_table_in_compare_order(self):
        import revolve.methods as methods

        assert tuple(methods.ROUTES) == methods.METHODS == (
            "double_integral", "disk", "shell", "polar", "pappus", "monte_carlo")
        for name, route in methods.ROUTES.items():
            assert route is getattr(methods, f"volume_{name}")

    def test_run_route_hands_each_route_its_settings(self):
        import revolve.methods as methods

        tol, cfg = rv.Tolerance(1e-8), rv.McConfig(1000, 3)
        for name in ("double_integral", "shell", "pappus", "monte_carlo"):
            report = methods.run_route(name, square_normal_x(), AXIS_OY, tol, cfg)
            direct = methods.ROUTES[name](square_normal_x(), AXIS_OY,
                                          cfg if name == "monte_carlo" else tol)
            assert report.method == name and report.wall_time >= 0.0
            assert (report.value, report.error_estimate, report.evaluations) == (
                direct.value, direct.error_estimate, direct.evaluations)

    def test_union_on_both_sides_is_refused_by_every_route(self):
        for region in (squares_both_sides_x(), squares_both_sides_y()):
            comparison = rv.compare_methods(region, rv.Axis.vertical(0),
                                            cfg=rv.McConfig(1000, 0))
            assert comparison.verdict == "no data"
            assert {f.error for f in comparison.failures} <= {
                "AxisIntersectsRegion", "UnsupportedMethod"}


class TestCompare:
    def test_square_polygon_agrees(self):
        comparison = rv.compare_methods(unit_square_polygon(), AXIS_OY,
                                        cfg=rv.McConfig(100_000, 5))
        assert comparison.verdict == "agree"
        ran = {r.method for r in comparison.reports}
        assert ran == {"double_integral", "disk", "shell", "pappus", "monte_carlo"}
        skipped = {f.method: f.error for f in comparison.failures}
        assert skipped == {"polar": "UnsupportedMethod"}

    def test_straddling_disk_no_data(self):
        comparison = rv.compare_methods(straddling_disk_x(), AXIS_OY,
                                        cfg=rv.McConfig(1000, 1))
        assert comparison.verdict == "no data"
        assert not comparison.reports
        for failure in comparison.failures:
            assert failure.error in ("AxisIntersectsRegion", "UnsupportedMethod")
        crossing = [f for f in comparison.failures
                    if f.error == "AxisIntersectsRegion"]
        assert {f.method for f in crossing} == {
            "double_integral", "shell", "pappus", "monte_carlo"
        }

    def test_sector_representations_agree(self):
        forms = [sector_polar(), sector_disk_union(), sector_shell_union()]
        reports = []
        for form in forms:
            comparison = rv.compare_methods(form, AXIS_OY, cfg=rv.McConfig(100_000, 9))
            assert comparison.verdict == "agree"
            reports.extend(comparison.reports)
        quad = [r for r in reports if r.method != "monte_carlo"]
        for i in range(len(quad)):
            for j in range(i + 1, len(quad)):
                tol = 10.0 * (quad[i].error_estimate + quad[j].error_estimate)
                assert abs(quad[i].value - quad[j].value) <= max(tol, 1e-9)

    def test_disagreement_detected(self, monkeypatch):
        # Negative control: corrupt the shell formula (drop the radius
        # factor) and the comparison must flag it.
        import revolve.methods as methods

        real_shell = methods.volume_shell

        def broken_shell(region, axis, tol=None):
            report = real_shell(region, axis, tol)
            return rv.VolumeReport(report.method, report.value * 0.5,
                                   report.error_estimate, report.evaluations,
                                   report.wall_time)

        monkeypatch.setitem(methods.ROUTES, "shell", broken_shell)
        comparison = methods.compare_methods(square_normal_x(), AXIS_OY,
                                             cfg=rv.McConfig(50_000, 2))
        assert comparison.verdict == "disagree"
