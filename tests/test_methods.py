import json
import math

import numpy as np
import pytest

import revolve as rv
from revolve.config import load_job, parse_job
from revolve.errors import AxisIntersectsRegion, UnsupportedMethod
from revolve.methods import _region_moments

from conftest import FIXTURES
from helpers import (
    AXIS_OX,
    AXIS_OY,
    CONE_VOLUME,
    SECTOR_VOLUME,
    SPHERE_VOLUME,
    SQUARE_VOLUME,
    TORUS_VOLUME,
    cone_normal_x,
    cone_triangle,
    exterior_oblique_axis,
    move_polygon,
    random_convex_polygon,
    random_motion,
    sector_disk_union,
    sector_polar,
    sector_shell_union,
    sphere_normal_y,
    square_normal_x,
    square_normal_y,
    straddling_disk_x,
    straddling_disk_y,
    torus_normal_x,
    torus_normal_y,
    unit_square_polygon,
)


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
        # a*Sx + b*Sy + c*A against the independent polar and Monte Carlo
        # routes, about a line that is neither vertical nor horizontal.
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
        parts = sector_shell_union().parts
        nested = rv.UnionRegion((rv.UnionRegion(parts[:2]), parts[2]))
        flat = rv.volume_shell(sector_shell_union(), AXIS_OY)
        report = rv.volume_shell(nested, AXIS_OY)
        assert (report.value, report.evaluations) == (flat.value, flat.evaluations)


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
            rv.volume_disk(unit_square_polygon(), AXIS_OY)
        with pytest.raises(UnsupportedMethod):
            rv.volume_disk(square_normal_y(), rv.Axis(1.0, 1.0, 5.0))

    def test_rejects_straddling_axis(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_disk(straddling_disk_y(), AXIS_OY)

    def test_rejects_polygon_inside_nested_union(self):
        nested = rv.UnionRegion((rv.UnionRegion((unit_square_polygon(),)), cone_normal_x()))
        with pytest.raises(UnsupportedMethod):
            rv.volume_disk(nested, AXIS_OX)


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
                                  rv.apply_motion_axis(motion, axis)).value
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

    def test_rejects_straddling_axis(self):
        with pytest.raises(AxisIntersectsRegion):
            rv.volume_monte_carlo(straddling_disk_x(), AXIS_OY, rv.McConfig(1000, 0))


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
        motion = rv.RigidMotion(math.pi / 6, (0.7, -1.3))
        square = move_polygon(motion, unit_square_polygon())
        axis = rv.apply_motion_axis(motion, AXIS_OY)
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


class TestCompare:
    def test_square_polygon_agrees(self):
        comparison = rv.compare_methods(unit_square_polygon(), AXIS_OY,
                                        cfg=rv.McConfig(100_000, 5))
        assert comparison.verdict == "agree"
        ran = {r.method for r in comparison.reports}
        assert ran == {"double_integral", "shell", "pappus", "monte_carlo"}
        skipped = {f.method: f.error for f in comparison.failures}
        assert skipped == {"disk": "UnsupportedMethod", "polar": "UnsupportedMethod"}

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

        monkeypatch.setattr(methods, "volume_shell", broken_shell)
        comparison = methods.compare_methods(square_normal_x(), AXIS_OY,
                                             cfg=rv.McConfig(50_000, 2))
        assert comparison.verdict == "disagree"
