"""Volume of a solid of revolution, computed six ways.

``volume_double_integral`` integrates 2*pi times the distance to the axis
over the region; it works for any region and any exterior axis.  The
distance is linear in (x, y), so its inner integral over each piece's
cross-section is closed-form (a*Sx + b*Sy + c*A of the section, see
``quadrature.PieceIntegrand``) and one adaptive 1D pass per piece remains.
The classical routes are provided as cross-checks, and disk, shell and
polar are that one rule too: each picks the map its formula integrates
in, cuts the region into pieces of that map (``region.pieces``, which
walks a union through its leaves and cuts a polygon into x-slabs, or
y-slabs under SWAP), refuses a region with a piece of another map, and
integrates the cut (``_distance_pass``, cached by the pieces, the linear
form and the tolerance).  Each formula is the closed-form section over
its pieces:

* shell:  integral of 2*pi*|x - x0| * (upper - lower) dx over x-pieces
          (normal_x, polygon x-slabs) about a vertical axis, y-pieces
          (normal_y, polygon y-slabs) about a horizontal one
* disk:   integral of pi * ((right - x0)^2 - (left - x0)^2) dy, the
          integral of 2*pi*(x - x0) from left to right, over the pieces
          whose inner coordinate runs across the axis: y-pieces about a
          vertical axis, x-pieces about a horizontal one
* polar:  the double integral in polar coordinates with Jacobian rho, over
          sectors, whose closed-form sections integrate over rho
* pappus: 2*pi * distance(centroid, axis) * area, from the area and first
          moments; exact for polygons (shoelace), else one vector-valued 1D
          pass over the closed-form sections, cached per (region, tolerance)
          and shared with ``area`` and ``centroid``
* monte_carlo: uniform rejection sampling over the bounding box, its
          containment read off the region's cell grid (``contains_mask``),
          each point's cell off the top bits of its raw Philox words

``ROUTES`` maps each name to its public ``volume_<name>`` in compare
order; ``_route`` fills it, times each call and reports the route's
QuadratureResult as a VolumeReport.  ``run_route`` runs one by name (Monte
Carlo with an McConfig, the others with a Tolerance).

Not all of them are independent checks of one another.  Where a route's
cut is double_integral's own (every curve leaf, and polygon x-slabs), it
reads double_integral's cached pass and gives its value, error estimate
and evaluations bit for bit: it checks where the formula applies, not the
number.  On a polygon about a vertical or horizontal axis, shell and disk
are the two Fubini orders, x-slabs and y-slabs, and one of them is
double_integral's; pappus reads the same sections too.  Only Monte Carlo
is independent of the sections.

Every route refuses an axis that crosses the region interior
(AxisIntersectsRegion) by one whole-region side check, after its own
applicability test; touching the boundary is fine.  A union with parts on
both sides of the axis is refused too: the solids they sweep overlap.
Monte Carlo uses the counter-based Philox 4x64 generator keyed directly
with the config seed, so results for a given seed are reproducible bit for
bit.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable

from ._record import record
from .errors import InvalidRegionError, QuadratureNoConvergence, RevolveError, UnsupportedMethod
from .geometry import Axis, Point, signed_distance
from .quadrature import (
    PieceIntegrand,
    QuadratureResult,
    Tolerance,
    check_count,
    integrate_1d,
    sum_results,
)
from .region import (
    IDENTITY,
    POLAR,
    SWAP,
    TWO_PI,
    Piece,
    Polygon,
    Region,
    axis_side_check,
    bounding_box,
    contains_mask,
    leaves,
    pieces,
    shoelace,
    word_codes,
)

__all__ = [
    "ROUTES",
    "METHODS",
    "VolumeReport",
    "CentroidReport",
    "McConfig",
    "MethodFailure",
    "ComparisonReport",
    "run_route",
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

_VERTICAL_TOL = 1e-12


@record
class VolumeReport:
    method: str
    value: float
    error_estimate: float
    evaluations: int
    wall_time: float


@record
class CentroidReport:
    centroid: Point
    area: float


# Monte Carlo draws, masks and reduces its points in chunks of at most this
# many, so its memory does not grow with the sample count.
_CHUNK = 2**16

# Largest Monte Carlo sample count, 2^9 chunks.  Memory stays flat, so this
# bounds time alone.
_MAX_SAMPLES = 2**25


@record
class McConfig:
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        check_count("samples", self.samples)
        check_count("seed", self.seed)
        if self.samples < 100:
            raise ValueError("need at least 100 samples")
        if self.samples > _MAX_SAMPLES:
            raise ValueError(f"need at most {_MAX_SAMPLES} samples")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


# Filled by ``_route`` in definition order, the order compare runs them.
ROUTES: dict[str, Callable[..., VolumeReport]] = {}


def _route(compute: Callable[..., QuadratureResult]) -> Callable[..., VolumeReport]:
    """Register ``compute`` (named ``volume_<name>``) in ROUTES as the public
    route: a call is timed, and the (value, error estimate, evaluations) it
    returns become a VolumeReport.  A value or estimate that is not finite
    (say 2*pi*|d|*A overflows) is refused, QuadratureNoConvergence."""
    name = compute.__name__.removeprefix("volume_")

    @functools.wraps(compute)
    def route(*args, **kwargs) -> VolumeReport:
        t0 = time.perf_counter()
        res = compute(*args, **kwargs)
        if not (math.isfinite(res.value) and math.isfinite(res.error_estimate)):
            raise QuadratureNoConvergence(
                f"{name} volume {res.value!r} with error estimate {res.error_estimate!r} "
                "is not finite")
        return VolumeReport(name, res.value, res.error_estimate, res.evaluations,
                            time.perf_counter() - t0)

    ROUTES[name] = route
    return route


def _outer_map(axis: Axis) -> str | None:
    """The map of the pieces whose outer coordinate runs across ``axis``:
    IDENTITY (outer x) for an axis x = x0, SWAP (outer y) for an axis
    y = y0, None for an oblique one.  An axis within _VERTICAL_TOL of
    vertical or horizontal counts as such here; the routes still integrate
    its exact distance."""
    if abs(axis.b) <= _VERTICAL_TOL:
        return IDENTITY
    if abs(axis.a) <= _VERTICAL_TOL:
        return SWAP
    return None


# ---------------------------------------------------------------------------
# The distance pass, and the routes that cut the region for it

@functools.lru_cache(maxsize=256)
def _distance_pass(cut: tuple[Piece, ...], form: tuple[float, float, float, float],
                   tol: Tolerance) -> QuadratureResult:
    """Integral of the linear form ``form`` = (2*pi*side, a, b, c) of the
    closed-form sections over the pieces ``cut``: one adaptive 1D pass per
    piece over its outer coordinate, converging on the volume itself.

    A piece compares by its bounds, map and curve evaluators, which an
    equal curve or polygon built again shares, so equal cuts share one
    cache entry, and a cached result repeats the value, error estimate and
    evaluations of the pass that computed it."""
    return sum_results([integrate_1d(PieceIntegrand(piece, form), piece.u0, piece.u1, tol)
                        for piece in cut])


def _volume(region: Region, axis: Axis, tol: Tolerance | None, cut: list[Piece]) -> QuadratureResult:
    """Integral of 2*pi*distance(axis) over ``region``, cut as ``cut``:
    ``_distance_pass`` after the side check.  A refusal is not cached: it
    is raised again, to the same message, on every call."""
    side = axis_side_check(region, axis)
    return _distance_pass(tuple(cut), (TWO_PI * side, axis.a, axis.b, axis.c), tol or Tolerance())


def _cut(region: Region, want: str | None, refusal: str) -> list[Piece]:
    """The region's pieces under the map ``want``, polygons cut into
    y-slabs for SWAP (``region.pieces``), or UnsupportedMethod(refusal)
    when ``want`` is None or a piece has another map."""
    if want is not None:
        cut = pieces(region, want == SWAP)
        if all(piece.map == want for piece in cut):
            return cut
    raise UnsupportedMethod(refusal)


@_route
def volume_double_integral(region: Region, axis: Axis, tol: Tolerance | None = None) -> QuadratureResult:
    """Integral of 2*pi*distance(axis) over the region's own pieces."""
    return _volume(region, axis, tol, pieces(region))


@_route
def volume_disk(region: Region, axis: Axis, tol: Tolerance | None = None) -> QuadratureResult:
    """Washer integral over the pieces whose inner coordinate runs across
    the axis: y-pieces about a vertical axis, x-pieces about a horizontal
    one."""
    want = {IDENTITY: SWAP, SWAP: IDENTITY}.get(_outer_map(axis))
    return _volume(region, axis, tol, _cut(
        region, want, "disk method needs a vertical axis with normal-y (or polygon) parts, "
        "or a horizontal axis with normal-x (or polygon) parts"))


@_route
def volume_shell(region: Region, axis: Axis, tol: Tolerance | None = None) -> QuadratureResult:
    """Cylindrical-shell integral over the pieces whose outer coordinate
    runs across the axis (``_outer_map``)."""
    return _volume(region, axis, tol, _cut(
        region, _outer_map(axis), "shell method needs a vertical axis with normal-x (or "
        "polygon) parts, or a horizontal axis with normal-y (or polygon) parts"))


@_route
def volume_polar(region: Region, axis: Axis, tol: Tolerance | None = None) -> QuadratureResult:
    """The double integral in polar coordinates: over theta, the closed-form
    integral over rho of 2*pi*distance*rho.  The region must be a polar
    sector (or a union of them)."""
    return _volume(region, axis, tol, _cut(region, POLAR, "polar method needs polar-sector regions"))


# ---------------------------------------------------------------------------
# Area, centroid, Pappus

def _leaf_moments(leaf: Region, tol: Tolerance) -> QuadratureResult:
    if isinstance(leaf, Polygon):
        return QuadratureResult(shoelace(leaf.vertices), (0.0, 0.0, 0.0), 0)
    [piece] = pieces(leaf)  # a curve leaf is one piece
    return integrate_1d(PieceIntegrand(piece), piece.u0, piece.u1, tol)


@functools.lru_cache(maxsize=256)
def _region_moments(region: Region, tol: Tolerance) -> QuadratureResult:
    """Area and first moments: value (A, Sx, Sy), per-component error
    estimates, and the evaluations of the pass that produced them.

    Summed over the leaves: a polygon is exact (shoelace), a curve leaf is
    one vector-valued 1D pass over its closed-form sections.  Regions and
    tolerances are frozen and compare by value, so equal regions built
    separately share one cache entry, and a cached result repeats the
    count of the pass that computed it.
    """
    return sum_results([_leaf_moments(leaf, tol) for leaf in leaves(region)])


def _moments_with_area(region: Region, tol: Tolerance) -> QuadratureResult:
    """``_region_moments``, refusing a region of zero area, or of moments
    or a centroid that are not finite: it has no centroid."""
    moments = _region_moments(region, tol)
    a, sx, sy = moments.value
    if a == 0.0:
        raise InvalidRegionError("region has zero area, so it has no centroid")
    if not all(map(math.isfinite, (a, sx, sy, sx / a, sy / a))):
        raise InvalidRegionError(
            f"region's area and first moments ({a!r}, {sx!r}, {sy!r}) give no finite "
            "centroid")
    return moments


def area(region: Region, tol: Tolerance | None = None) -> float:
    return _region_moments(region, tol or Tolerance()).value[0]


def centroid(region: Region, tol: Tolerance | None = None) -> CentroidReport:
    a, sx, sy = _moments_with_area(region, tol or Tolerance()).value
    return CentroidReport(Point(sx / a, sy / a), a)


@_route
def volume_pappus(region: Region, axis: Axis, tol: Tolerance | None = None) -> QuadratureResult:
    """2*pi * distance(centroid, axis) * area."""
    tol = tol or Tolerance()
    axis_side_check(region, axis)
    moments = _moments_with_area(region, tol)
    a, sx, sy = moments.value
    ea, ex, ey = moments.error_estimate
    cx, cy = sx / a, sy / a
    d = signed_distance(axis, Point(cx, cy))
    value = TWO_PI * abs(d) * a
    # First-order propagation of the moment error estimates.
    err_cx = (ex + abs(cx) * ea) / abs(a)
    err_cy = (ey + abs(cy) * ea) / abs(a)
    err = TWO_PI * (abs(d) * ea + abs(a) * (abs(axis.a) * err_cx + abs(axis.b) * err_cy))
    return QuadratureResult(value, err, moments.evaluations)


# ---------------------------------------------------------------------------
# Monte Carlo oracle

def _scaled_distance(axis: Axis, xs, ys, out, scratch):
    """2*pi*|a*x + b*y + c| at the points (xs, ys), into ``out`` (``scratch``
    holds b*y): the order of operations of the expression, without
    temporaries.  ``out`` and ``scratch`` may be ``xs`` and ``ys``."""
    import numpy as np

    np.multiply(xs, axis.a, out=out)
    np.multiply(ys, axis.b, out=scratch)
    out += scratch
    out += axis.c
    np.abs(out, out=out)
    out *= TWO_PI
    return out


@_route
def volume_monte_carlo(region: Region, axis: Axis, cfg: McConfig | None = None) -> QuadratureResult:
    """Estimate the volume by uniform sampling over the bounding box.

    value = box_area * mean(inside * 2*pi*|distance|); the error estimate
    is the standard error of that mean, and the evaluations are the
    samples.  Sampling is Philox 4x64 keyed with the seed; the uniforms
    are the doubles (raw >> 11) * 2^-53 of the raw stream in its order
    (``Generator.random``'s).  The points stream through in chunks of
    _CHUNK: consecutive draws continue one Philox stream, so the points are
    those of one long draw.  Each chunk's (count, mean, M2) merges into the
    running one by the pairwise update of Chan, Golub and LeVeque (1983),
    in chunk order.  When a chunk has more points than ``contains_mask``
    takes without the region's cell grid, every chunk's containment reads
    the grid, and runs the exact tests on its boundary cells only; the mask is
    the exact one bit for bit.

    A call allocates a chunk's x and y coordinates once, and a byte per
    point for the codes of their cells when a chunk reads the grid.  A
    chunk is drawn a quarter at a time by ``Philox.random_raw``.
    ``word_codes`` names each point's cell by the top bytes of its two raw
    words and writes the cell's code; then the block is worked on in place:
    shifted right by 11, its int64 view is copied into the block's slice of
    the coordinates and scaled there (times 2^-53, then the width).  Once
    the chunk is masked, its distances are computed in place over the x
    coordinates (the y ones hold b*y), and points outside get 0 by a
    multiply with the mask.  The multiply is the select wherever
    the distance is finite, so a box with a corner whose distance is not
    finite is refused (InvalidRegionError): the distance is monotone in
    each coordinate, under rounding too, so the corners bound it over every
    sample.  So is an estimate or standard error that overflows as the
    distances are summed and squared, at the first chunk that makes the
    merged mean or M2 not finite: neither can be finite again, and the
    refusal quotes the estimate of the chunks merged so far.
    """
    import numpy as np

    cfg = cfg or McConfig()
    axis_side_check(region, axis)
    x_lo, x_hi, y_lo, y_hi = bounding_box(region)
    width, height = x_hi - x_lo, y_hi - y_lo
    box_area = width * height
    if not math.isfinite(box_area):  # as it is not when the width or height is not
        raise InvalidRegionError(
            f"bounding box [{x_lo!r}, {x_hi!r}] x [{y_lo!r}, {y_hi!r}] is too large to "
            "sample: its width, height or area is not finite")
    # In _scaled_distance's order of operations, on floats that overflow silently.
    reach = [TWO_PI * abs(axis.a * x + axis.b * y + axis.c)
             for x in (x_lo, x_lo + width) for y in (y_lo, y_lo + height)]
    if not all(map(math.isfinite, reach)):
        raise InvalidRegionError(
            f"bounding box [{x_lo!r}, {x_hi!r}] x [{y_lo!r}, {y_hi!r}] is too far from "
            "the axis to sample: 2*pi times a corner's distance is not finite")
    size = min(_CHUNK, cfg.samples)
    block = min(_CHUNK // 4, size)
    # Where the chunks read the cell grid, each point's code is named by its
    # words.  The grid is built first, before the generator and the chunk's
    # buffers, so that its temporaries and theirs are not held at once.
    fill = word_codes(region, size)
    bits = np.random.Philox(key=cfg.seed)
    codes = None if fill is None else np.empty(size, dtype=np.uint8)
    xs, ys = np.empty(size), np.empty(size)
    n, mean, m2 = 0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for start in range(0, cfg.samples, _CHUNK):
            m = min(_CHUNK, cfg.samples - start)
            if m < size:  # the last chunk is short
                xs, ys = xs[:m], ys[:m]
                codes = None if codes is None else codes[:m]
            for lo in range(0, m, block):
                k = min(block, m - lo)
                raw = bits.random_raw(2 * k)
                if fill is not None:
                    fill(raw, codes[lo:lo + k])
                raw >>= 11  # t: below 2^53, so its int64 view
                # No view of the block outlives the loop: the next block's
                # cell codes are read while this one would still be held.
                for i, out, origin, w in ((0, xs, x_lo, width), (1, ys, y_lo, height)):
                    part = out[lo:lo + k]
                    np.copyto(part, raw.view(np.int64)[i::2])  # converts exactly, and fast
                    part *= 2.0**-53  # u, exactly
                    part *= w
                    part += origin
            inside = contains_mask(region, xs, ys, codes)  # the private _codes
            vals = _scaled_distance(axis, xs, ys, out=xs, scratch=ys)
            vals *= inside
            chunk_mean = float(vals.mean())
            vals -= chunk_mean
            # No BLAS (np.dot) here: a library caller may have BLAS worker
            # threads, which spin on after each call (the CLI starts none).
            chunk_m2 = float(np.square(vals, out=vals).sum())
            total = n + m
            delta = chunk_mean - mean
            mean += delta * m / total
            m2 += chunk_m2 + delta * delta * n * m / total
            n = total
            if not (math.isfinite(mean) and math.isfinite(m2)):
                break  # neither can be finite again: refused below
    value = box_area * mean
    stderr = box_area * math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise InvalidRegionError(
            f"Monte Carlo estimate {value!r} with standard error {stderr!r} is not finite: "
            "the distances over the bounding box are too large to sum or square")
    return QuadratureResult(value, stderr, n)


METHODS = tuple(ROUTES)


def run_route(
    name: str,
    region: Region,
    axis: Axis,
    tol: Tolerance | None = None,
    cfg: McConfig | None = None,
) -> VolumeReport:
    """The route ``name`` of ROUTES on (region, axis): Monte Carlo with
    ``cfg``, every other route with ``tol``."""
    return ROUTES[name](region, axis, cfg if name == "monte_carlo" else tol)


# ---------------------------------------------------------------------------
# Cross-method comparison

@record
class MethodFailure:
    method: str
    error: str
    message: str


@record
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
    """Run every route of ROUTES and compare the volumes pairwise.

    Verdict is "agree" when all pairs differ by at most
    max(10 * summed error estimates, 4 * the Monte Carlo standard error
    when Monte Carlo is in the pair).
    """
    reports = []
    failures = []
    for name in ROUTES:
        try:
            reports.append(run_route(name, region, axis, tol, cfg))
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
