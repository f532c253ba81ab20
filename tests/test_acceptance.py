"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s to see them inline)."""

import json
import math
import subprocess
import sys

import numpy as np

import revolve as rv
from revolve.config import load_job
from revolve.errors import AxisIntersectsRegion, ExprSyntaxError
from revolve.methods import _distance_pass
from revolve.region import shoelace

from conftest import FIXTURES
from helpers import (
    AXIS_OY,
    CONE_VOLUME,
    MALFORMED_CASES,
    PRECEDENCE_CASES,
    SECTOR_VOLUME,
    SPHERE_VOLUME,
    TORUS_VOLUME,
    apply_motion_axis,
    cone_triangle,
    exterior_horizontal_axis,
    exterior_oblique_axis,
    exterior_vertical_axis,
    move_polygon,
    random_convex_polygon,
    random_motion,
    random_normal_x,
    random_normal_y,
    sector_polar,
    straddling_disk_x,
    straddling_disk_y,
)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    label = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {label}: {detail}")


def test_criterion_1_sector_volumes_all_routes():
    """The sector fixture gives pi*(sqrt(2)+sqrt(3))/3 by every route."""
    runs = {
        "double_integral": rv.volume_double_integral(
            load_job(FIXTURES / "sector_polar.json").region, AXIS_OY),
        "polar": rv.volume_polar(
            load_job(FIXTURES / "sector_polar.json").region, AXIS_OY),
        "disk": rv.volume_disk(
            load_job(FIXTURES / "sector_disk_union.json").region, AXIS_OY),
        "shell": rv.volume_shell(
            load_job(FIXTURES / "sector_shell_union.json").region, AXIS_OY),
    }
    deviations = {name: abs(r.value - SECTOR_VOLUME) for name, r in runs.items()}
    ok = all(dev <= 1e-6 for dev in deviations.values())

    mc_job = load_job(FIXTURES / "sector_polar.json")
    mc = rv.volume_monte_carlo(mc_job.region, mc_job.axis, mc_job.mc)
    mc_dev = abs(mc.value - SECTOR_VOLUME)
    mc_ok = mc_job.mc.samples == 1_000_000 and mc_dev <= 4.0 * mc.error_estimate
    worst = max(deviations.values())
    verdict(1, ok and mc_ok,
            f"quadrature routes within {worst:.2e} of pi*(sqrt2+sqrt3)/3 "
            f"(tol 1e-6); MC off by {mc_dev / mc.error_estimate:.2f} standard errors")
    assert ok and mc_ok, (deviations, mc_dev, mc.error_estimate)


def test_criterion_2_torus_closed_form():
    """Off-center unit circle at distance 2 gives 4*pi^2 four ways."""
    circle = load_job(FIXTURES / "torus_circle.json").region
    washers = load_job(FIXTURES / "torus_disk.json").region
    results = {
        "pappus": rv.volume_pappus(circle, AXIS_OY).value,
        "shell": rv.volume_shell(circle, AXIS_OY).value,
        "disk": rv.volume_disk(washers, AXIS_OY).value,
        "double_integral": rv.volume_double_integral(circle, AXIS_OY).value,
    }
    deviations = {name: abs(v - TORUS_VOLUME) for name, v in results.items()}
    ok = all(dev <= 1e-5 for dev in deviations.values())
    verdict(2, ok, f"torus 4*pi^2 worst deviation {max(deviations.values()):.2e} (tol 1e-5)")
    assert ok, deviations


def test_criterion_3_cone_and_sphere():
    """Cone pi/3 and sphere 4*pi/3, two methods each, within 1e-8."""
    cone_region = load_job(FIXTURES / "cone_triangle.json").region
    ball_region = load_job(FIXTURES / "sphere_disk.json").region
    cone = {
        "shell": rv.volume_shell(cone_region, AXIS_OY).value,
        "double_integral": rv.volume_double_integral(cone_region, AXIS_OY).value,
        # the triangle touches the axis along its left edge, which is allowed
        "pappus": rv.volume_pappus(cone_triangle(), AXIS_OY).value,
    }
    sphere = {
        "disk": rv.volume_disk(ball_region, AXIS_OY).value,
        "double_integral": rv.volume_double_integral(ball_region, AXIS_OY).value,
    }
    cone_dev = {k: abs(v - CONE_VOLUME) for k, v in cone.items()}
    sphere_dev = {k: abs(v - SPHERE_VOLUME) for k, v in sphere.items()}
    ok = (all(d <= 1e-8 for d in cone_dev.values())
          and all(d <= 1e-8 for d in sphere_dev.values()))
    verdict(3, ok, f"cone worst {max(cone_dev.values()):.2e}, "
                   f"sphere worst {max(sphere_dev.values()):.2e} (tol 1e-8)")
    assert ok, (cone_dev, sphere_dev)


def test_criterion_4_shell_and_disk_equivalence():
    """100 random normal-x shell cases and 100 normal-y disk cases agree
    with the double integral within 10x summed error estimates.  Shell and
    disk run double_integral's own pass on these curve regions, so they
    check only where each formula applies.

    On 100 random convex polygons about exterior vertical and horizontal
    axes, shell and disk are the paper's two Fubini orders: one integrates
    the x-slabs and the other the y-slabs, so exactly one of them reads
    double_integral's cached pass.  Each equals the closed form
    2*pi*|a*Sx + b*Sy + c*A| of the polygon's shoelace moments within 10x
    its own error estimate."""
    rng = np.random.default_rng(20250810)
    failures = []
    for i in range(100):
        region = random_normal_x(rng)
        axis = exterior_vertical_axis(rng, region)
        a = rv.volume_shell(region, axis)
        b = rv.volume_double_integral(region, axis)
        if abs(a.value - b.value) > 10.0 * (a.error_estimate + b.error_estimate):
            failures.append(("shell", i, a.value, b.value))
    for i in range(100):
        region = random_normal_y(rng)
        axis = exterior_vertical_axis(rng, region)
        a = rv.volume_disk(region, axis)
        b = rv.volume_double_integral(region, axis)
        if abs(a.value - b.value) > 10.0 * (a.error_estimate + b.error_estimate):
            failures.append(("disk", i, a.value, b.value))
    rng = np.random.default_rng(20251019)
    for i in range(100):
        poly = random_convex_polygon(rng)
        exterior_axis = exterior_vertical_axis if i % 2 == 0 else exterior_horizontal_axis
        axis = exterior_axis(rng, poly)
        area, sx, sy = shoelace(poly.vertices)
        exact = 2.0 * math.pi * abs(axis.a * sx + axis.b * sy + axis.c * area)
        _distance_pass.cache_clear()
        rv.volume_double_integral(poly, axis)
        shell, disk = rv.volume_shell(poly, axis), rv.volume_disk(poly, axis)
        info = _distance_pass.cache_info()
        if ((info.hits, info.misses, info.currsize) != (1, 2, 2)
                or any(abs(r.value - exact) > 10.0 * r.error_estimate for r in (shell, disk))):
            failures.append(("polygon", i, info, shell, disk, exact))
    ok = not failures
    verdict(4, ok, f"shell/disk vs double integral and the polygon closed form: "
                   f"{300 - len(failures)}/300 agree")
    assert ok, failures


def test_criterion_5_pappus_equivalence_oblique_axes():
    """100 random convex polygons about random oblique exterior axes."""
    rng = np.random.default_rng(424242)
    failures = []
    for i in range(100):
        poly = random_convex_polygon(rng)
        axis = exterior_oblique_axis(rng, poly)
        a = rv.volume_pappus(poly, axis)
        b = rv.volume_double_integral(poly, axis)
        if abs(a.value - b.value) > 10.0 * (a.error_estimate + b.error_estimate):
            failures.append((i, a.value, b.value, a.error_estimate, b.error_estimate))
    ok = not failures
    verdict(5, ok, f"pappus vs double integral on oblique axes: {100 - len(failures)}/100 agree")
    assert ok, failures


def test_criterion_6_rigid_motion_invariance():
    """50 random (polygon, axis, motion) triples leave the volume unchanged."""
    rng = np.random.default_rng(987654321)
    failures = []
    for i in range(50):
        poly = random_convex_polygon(rng)
        axis = exterior_oblique_axis(rng, poly)
        motion = random_motion(rng)
        a = rv.volume_double_integral(poly, axis)
        b = rv.volume_double_integral(
            move_polygon(motion, poly), apply_motion_axis(motion, axis))
        if abs(a.value - b.value) > 10.0 * (a.error_estimate + b.error_estimate):
            failures.append((i, a.value, b.value))
    ok = not failures
    verdict(6, ok, f"rigid-motion invariance: {50 - len(failures)}/50 agree")
    assert ok, failures


def test_criterion_7_exterior_axis_enforcement():
    """A straddling disk is rejected by every method; the sector that only
    touches the axis is accepted."""
    rejections = []
    cases = [
        ("double_integral",
         lambda: rv.volume_double_integral(straddling_disk_x(), AXIS_OY)),
        ("shell", lambda: rv.volume_shell(straddling_disk_x(), AXIS_OY)),
        ("disk", lambda: rv.volume_disk(straddling_disk_y(), AXIS_OY)),
        ("polar", lambda: rv.volume_polar(
            rv.PolarSector(0.0, 2.0 * math.pi,
                           rv.curve("0", "theta"), rv.curve("1", "theta")),
            AXIS_OY)),
        ("pappus", lambda: rv.volume_pappus(straddling_disk_x(), AXIS_OY)),
        ("monte_carlo", lambda: rv.volume_monte_carlo(
            straddling_disk_x(), AXIS_OY, rv.McConfig(1000, 0))),
    ]
    for name, call in cases:
        try:
            call()
            rejections.append((name, "no error raised"))
        except AxisIntersectsRegion:
            pass
        except Exception as exc:  # wrong exception type is a failure too
            rejections.append((name, type(exc).__name__))

    touching_ok = rv.axis_side_check(sector_polar(), AXIS_OY) == 1
    touch_value = rv.volume_double_integral(sector_polar(), AXIS_OY).value
    touching_ok = touching_ok and abs(touch_value - SECTOR_VOLUME) <= 1e-6
    ok = not rejections and touching_ok
    verdict(7, ok, "all six methods reject a straddling axis; touching axis accepted")
    assert ok, (rejections, touching_ok)


def test_criterion_8_cli_determinism():
    """Identical config + seed gives byte-identical numeric output."""
    cmd = [sys.executable, "-m", "revolve.cli", "volume",
           "--config", str(FIXTURES / "sector_polar.json"),
           "--method", "monte_carlo"]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        payload = json.loads(proc.stdout)
        payload.pop("wall_time")
        outputs.append(json.dumps(payload, sort_keys=True))
    ok = outputs[0] == outputs[1]
    verdict(8, ok, "two CLI runs identical apart from wall_time")
    assert ok, outputs


def test_criterion_9_parser_conformance():
    """Precedence fixtures evaluate exactly; malformed fixtures all raise a
    positioned syntax error."""
    wrong = []
    for text, expected in PRECEDENCE_CASES:
        got = rv.eval_expr(rv.parse_expr(text, "x"), 0.0)
        if got != expected:
            wrong.append((text, got, expected))
    for text, position in MALFORMED_CASES:
        try:
            rv.parse_expr(text, "x")
            wrong.append((text, "accepted", "syntax error"))
        except ExprSyntaxError as exc:
            if exc.position != position:
                wrong.append((text, exc.position, position))
    ok = not wrong
    verdict(9, ok, f"{len(PRECEDENCE_CASES)} precedence and "
                   f"{len(MALFORMED_CASES)} malformed fixtures checked")
    assert ok, wrong
