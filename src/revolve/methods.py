"""Volume of a solid of revolution, computed six ways.

``volume_double_integral`` integrates 2*pi times the distance to the axis
over the region; it works for any region and any exterior axis.  The
distance is linear in (x, y), so its inner integral over each
cross-section is closed-form (a*Sx + b*Sy + c*A of the section, see
``quadrature.moment_sections``) and one adaptive 1D pass per piece remains.
The classical routes are provided both as cross-checks and as the fast
paths they are:

* shell:  integral of 2*pi*|x - x0| * (upper - lower) dx   (vertical axis)
* disk:   integral of pi * ((right - x0)^2 - (left - x0)^2) dy, signed by
          which side of the axis the region lies on
* polar:  the double integral in polar coordinates with Jacobian rho,
          iterated 2D quadrature (``integrate_region``)
* pappus: 2*pi * distance(centroid, axis) * area, from the area and first
          moments; exact for polygons (shoelace), else one vector-valued 1D
          pass over the closed-form sections, cached per (region, tolerance)
          and shared with ``area`` and ``centroid``
* monte_carlo: uniform rejection sampling over the bounding box

Not all of them are independent checks of one another.  On a normal_x
region about a vertical axis, double_integral and shell integrate the same
1D integrand (the shell's height times its radius), so they agree by
construction; pappus uses the same sections.  Polar (iterated, with its own
inner rule), disk (a quadratic integrand) and Monte Carlo are independent
of the sections.

Every method refuses an axis that crosses the region interior
(AxisIntersectsRegion); touching the boundary is fine.  Monte Carlo uses
the counter-based Philox 4x64 generator keyed directly with the config
seed, so results for a given seed are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import AxisIntersectsRegion, RevolveError, UnsupportedMethod
from .geometry import Axis, Point, signed_distance
from .quadrature import (
    QuadratureResult,
    Tolerance,
    integrate_1d,
    integrate_region,
    moment_sections,
    polygon_slabs,
    sum_results,
)
from .region import (
    TWO_PI,
    NormalX,
    NormalY,
    Polygon,
    PolarSector,
    Region,
    UnionRegion,
    axis_side_check,
    bounding_box,
    contains_mask,
)

__all__ = [
    "METHODS",
    "VolumeReport",
    "CentroidReport",
    "McConfig",
    "MethodFailure",
    "ComparisonReport",
    "volume_double_integral",
    "volume_shell",
    "volume_disk",
    "volume_polar",
    "volume_pappus",
    "volume_monte_carlo",
    "area",
    "centroid",
    "compare_methods",
]

METHODS = ("double_integral", "disk", "shell", "polar", "pappus", "monte_carlo")

_AXIS_TOL = 1e-9  # touching tolerance, matches the side check
_VERTICAL_TOL = 1e-12


@dataclass(frozen=True)
class VolumeReport:
    method: str
    value: float
    error_estimate: float
    evaluations: int
    wall_time: float


@dataclass(frozen=True)
class CentroidReport:
    centroid: Point
    area: float


@dataclass(frozen=True)
class McConfig:
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 100:
            raise ValueError("need at least 100 samples")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def _vertical_offset(axis: Axis) -> float | None:
    """x0 for an axis x = x0, else None."""
    if abs(axis.b) <= _VERTICAL_TOL:
        return -axis.c / axis.a
    return None


def _horizontal_offset(axis: Axis) -> float | None:
    """y0 for an axis y = y0, else None."""
    if abs(axis.a) <= _VERTICAL_TOL:
        return -axis.c / axis.b
    return None


# ---------------------------------------------------------------------------
# The double-integral route

def _distance_integrand(section, axis: Axis, side: int):
    """The inner integral of 2*pi*side*distance(axis) over the section at u:
    the distance is linear, so it is a*Sx + b*Sy + c*A of the section."""

    def integrand(u: float) -> float:
        m1, mx, my = section(u)
        return TWO_PI * side * (axis.a * mx + axis.b * my + axis.c * m1)

    return integrand


def volume_double_integral(region: Region, axis: Axis, tol: Tolerance | None = None) -> VolumeReport:
    """Integral of 2*pi*distance(axis) over the region: closed-form inner
    integrals, one adaptive 1D pass per piece over the outer coordinate,
    converging on the volume itself."""
    t0 = time.perf_counter()
    tol = tol or Tolerance()
    side = axis_side_check(region, axis)
    res = sum_results([
        integrate_1d(_distance_integrand(section, axis, side), u0, u1, tol)
        for u0, u1, section in moment_sections(region)
    ])
    return VolumeReport(
        "double_integral", res.value, res.error_estimate, res.evaluations,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Shell method

def _check_one_side(lo: float, hi: float, x0: float) -> None:
    if lo < x0 - _AXIS_TOL and hi > x0 + _AXIS_TOL:
        raise AxisIntersectsRegion(
            f"interval [{lo!r}, {hi!r}] straddles the axis at {x0!r}"
        )


def _shell_normal(span_lo, span_hi, near, far, x0, tol) -> QuadratureResult:
    _check_one_side(span_lo, span_hi, x0)
    return integrate_1d(
        lambda t: TWO_PI * abs(t - x0) * (far(t) - near(t)), span_lo, span_hi, tol
    )


def _shell_polygon(poly: Polygon, x0: float, tol: Tolerance) -> QuadratureResult:
    box = bounding_box(poly)
    _check_one_side(box[0], box[1], x0)
    parts = [
        integrate_1d(lambda x: TWO_PI * abs(x - x0) * (hi_fn(x) - lo_fn(x)), xa, xb, tol)
        for xa, xb, lo_fn, hi_fn in polygon_slabs(poly)
    ]
    return sum_results(parts)


def _transpose_polygon(poly: Polygon) -> Polygon:
    # Swapping coordinates mirrors the plane, so reverse to stay CCW.
    return Polygon(tuple(Point(v.y, v.x) for v in reversed(poly.vertices)))


def volume_shell(region: Region, axis: Axis, tol: Tolerance | None = None) -> VolumeReport:
    """Cylindrical-shell integral.  Vertical axes pair with NormalX regions
    (and polygons, via slab decomposition); horizontal axes with NormalY."""
    t0 = time.perf_counter()
    tol = tol or Tolerance()
    x0 = _vertical_offset(axis)
    y0 = _horizontal_offset(axis)
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    quads = []
    for part in parts:
        if x0 is not None and isinstance(part, NormalX):
            quads.append(_shell_normal(part.x_min, part.x_max, part.lower, part.upper, x0, tol))
        elif x0 is not None and isinstance(part, Polygon):
            quads.append(_shell_polygon(part, x0, tol))
        elif y0 is not None and isinstance(part, NormalY):
            quads.append(_shell_normal(part.y_min, part.y_max, part.left, part.right, y0, tol))
        elif y0 is not None and isinstance(part, Polygon):
            quads.append(_shell_polygon(_transpose_polygon(part), y0, tol))
        else:
            raise UnsupportedMethod(
                "shell method needs a vertical axis with normal-x (or polygon) "
                "parts, or a horizontal axis with normal-y (or polygon) parts"
            )
    total = sum_results(quads)
    return VolumeReport(
        "shell", total.value, total.error_estimate, total.evaluations,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Disk (washer) method

def _disk_side(near_vals, far_vals, offset: float) -> int:
    """+1 when the slab [near, far] sits at coordinates >= offset, -1 when
    <= offset; straddling raises."""
    lo = float(np.nanmin(near_vals))
    hi = float(np.nanmax(far_vals))
    if lo >= offset - _AXIS_TOL:
        return 1
    if hi <= offset + _AXIS_TOL:
        return -1
    raise AxisIntersectsRegion(
        f"boundary curves span [{lo!r}, {hi!r}] across the axis at {offset!r}"
    )


def _disk_normal(span_lo, span_hi, near, far, offset, tol) -> QuadratureResult:
    ts = np.linspace(span_lo, span_hi, 65)
    side = _disk_side(near.sample(ts), far.sample(ts), offset)
    return integrate_1d(
        lambda t: math.pi * side * ((far(t) - offset) ** 2 - (near(t) - offset) ** 2),
        span_lo,
        span_hi,
        tol,
    )


def volume_disk(region: Region, axis: Axis, tol: Tolerance | None = None) -> VolumeReport:
    """Washer integral.  Vertical axes pair with NormalY regions,
    horizontal axes with NormalX."""
    t0 = time.perf_counter()
    tol = tol or Tolerance()
    x0 = _vertical_offset(axis)
    y0 = _horizontal_offset(axis)
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    quads = []
    for part in parts:
        if x0 is not None and isinstance(part, NormalY):
            quads.append(_disk_normal(part.y_min, part.y_max, part.left, part.right, x0, tol))
        elif y0 is not None and isinstance(part, NormalX):
            quads.append(_disk_normal(part.x_min, part.x_max, part.lower, part.upper, y0, tol))
        else:
            raise UnsupportedMethod(
                "disk method needs a vertical axis with normal-y parts or a "
                "horizontal axis with normal-x parts"
            )
    total = sum_results(quads)
    return VolumeReport(
        "disk", total.value, total.error_estimate, total.evaluations,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Polar route

def volume_polar(region: Region, axis: Axis, tol: Tolerance | None = None) -> VolumeReport:
    """The double integral evaluated in polar coordinates; the region must
    be a polar sector (or a union of them)."""
    t0 = time.perf_counter()
    tol = tol or Tolerance()
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    if not all(isinstance(part, PolarSector) for part in parts):
        raise UnsupportedMethod("polar method needs polar-sector regions")
    side = axis_side_check(region, axis)
    res = integrate_region(
        region, lambda p: TWO_PI * side * signed_distance(axis, p), tol
    )
    return VolumeReport(
        "polar", res.value, res.error_estimate, res.evaluations,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Area, centroid, Pappus

def _polygon_moments(poly: Polygon) -> QuadratureResult:
    # Shoelace area and the closed-form centroid moments (exact, no quadrature).
    a = sx = sy = 0.0
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        cross = p.x * q.y - q.x * p.y
        a += cross
        sx += (p.x + q.x) * cross
        sy += (p.y + q.y) * cross
    return QuadratureResult((0.5 * a, sx / 6.0, sy / 6.0), (0.0, 0.0, 0.0), 0)


@functools.lru_cache(maxsize=256)
def _region_moments(region: Region, tol: Tolerance) -> QuadratureResult:
    """Area and first moments: value (A, Sx, Sy), per-component error
    estimates, and the evaluations of the pass that produced them.

    Polygons are exact; unions add their parts; everything else is one
    vector-valued 1D pass per piece over the closed-form sections.  Regions
    and tolerances are frozen and compare by value, so equal regions built
    separately share one cache entry, and a cached result repeats the
    count of the pass that computed it.
    """
    if isinstance(region, Polygon):
        return _polygon_moments(region)
    if isinstance(region, UnionRegion):
        return sum_results([_region_moments(part, tol) for part in region.parts])
    return sum_results([
        integrate_1d(section, u0, u1, tol) for u0, u1, section in moment_sections(region)
    ])


def area(region: Region, tol: Tolerance | None = None) -> float:
    return _region_moments(region, tol or Tolerance()).value[0]


def centroid(region: Region, tol: Tolerance | None = None) -> CentroidReport:
    a, sx, sy = _region_moments(region, tol or Tolerance()).value
    return CentroidReport(Point(sx / a, sy / a), a)


def volume_pappus(region: Region, axis: Axis, tol: Tolerance | None = None) -> VolumeReport:
    """2*pi * distance(centroid, axis) * area."""
    t0 = time.perf_counter()
    tol = tol or Tolerance()
    axis_side_check(region, axis)
    moments = _region_moments(region, tol)
    a, sx, sy = moments.value
    ea, ex, ey = moments.error_estimate
    cx, cy = sx / a, sy / a
    d = signed_distance(axis, Point(cx, cy))
    value = TWO_PI * abs(d) * a
    # First-order propagation of the moment error estimates.
    err_cx = (ex + abs(cx) * ea) / abs(a)
    err_cy = (ey + abs(cy) * ea) / abs(a)
    err = TWO_PI * (abs(d) * ea + abs(a) * (abs(axis.a) * err_cx + abs(axis.b) * err_cy))
    return VolumeReport(
        "pappus", value, err, moments.evaluations, time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# Monte Carlo oracle

def volume_monte_carlo(region: Region, axis: Axis, cfg: McConfig | None = None) -> VolumeReport:
    """Estimate the volume by uniform sampling over the bounding box.

    value = box_area * mean(inside * 2*pi*|distance|); the error estimate
    is the standard error of that mean.  Sampling is Philox 4x64 keyed
    with the seed; uniforms are (raw >> 11) * 2^-53.
    """
    cfg = cfg or McConfig()
    t0 = time.perf_counter()
    axis_side_check(region, axis)
    x_lo, x_hi, y_lo, y_hi = bounding_box(region)
    raw = np.random.Philox(key=cfg.seed).random_raw(2 * cfg.samples)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    xs = x_lo + (x_hi - x_lo) * u[0::2]
    ys = y_lo + (y_hi - y_lo) * u[1::2]
    inside = contains_mask(region, xs, ys)
    vals = np.where(inside, TWO_PI * np.abs(axis.a * xs + axis.b * ys + axis.c), 0.0)
    box_area = (x_hi - x_lo) * (y_hi - y_lo)
    value = box_area * float(vals.mean())
    stderr = box_area * float(vals.std(ddof=1)) / math.sqrt(cfg.samples)
    return VolumeReport(
        "monte_carlo", value, stderr, cfg.samples, time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# Cross-method comparison

@dataclass(frozen=True)
class MethodFailure:
    method: str
    error: str
    message: str


@dataclass(frozen=True)
class ComparisonReport:
    reports: tuple[VolumeReport, ...]
    failures: tuple[MethodFailure, ...]
    verdict: str  # "agree" | "disagree" | "single" | "no data"


def _pair_tolerance(r1: VolumeReport, r2: VolumeReport) -> float:
    tol = 10.0 * (r1.error_estimate + r2.error_estimate)
    for r in (r1, r2):
        if r.method == "monte_carlo":
            tol = max(tol, 4.0 * r.error_estimate)
    return tol


def compare_methods(
    region: Region,
    axis: Axis,
    tol: Tolerance | None = None,
    cfg: McConfig | None = None,
) -> ComparisonReport:
    """Run every applicable method and compare the volumes pairwise.

    Verdict is "agree" when all pairs differ by at most
    max(10 * summed error estimates, 4 * the Monte Carlo standard error
    when Monte Carlo is in the pair).
    """
    tol = tol or Tolerance()
    cfg = cfg or McConfig()
    runners = (
        ("double_integral", lambda: volume_double_integral(region, axis, tol)),
        ("disk", lambda: volume_disk(region, axis, tol)),
        ("shell", lambda: volume_shell(region, axis, tol)),
        ("polar", lambda: volume_polar(region, axis, tol)),
        ("pappus", lambda: volume_pappus(region, axis, tol)),
        ("monte_carlo", lambda: volume_monte_carlo(region, axis, cfg)),
    )
    reports = []
    failures = []
    for name, run in runners:
        try:
            reports.append(run())
        except RevolveError as exc:  # per-method failures become report entries
            failures.append(MethodFailure(name, type(exc).__name__, str(exc)))
    if not reports:
        verdict = "no data"
    elif len(reports) == 1:
        verdict = "single"
    else:
        verdict = "agree"
        for i in range(len(reports)):
            for j in range(i + 1, len(reports)):
                delta = abs(reports[i].value - reports[j].value)
                if delta > _pair_tolerance(reports[i], reports[j]):
                    verdict = "disagree"
    return ComparisonReport(tuple(reports), tuple(failures), verdict)
