"""Seeded inputs for the benchmark and their references, computed without
revolve.

Every generated region comes with its area and first moments (A, Sx, Sy):
exact rationals for polynomial boundaries and polygons, closed forms for
disks and annular sectors.  The volume about a normalized axis
a*x + b*y + c = 0 is then 2*pi*|a*Sx + b*Sy + c*A| (Pappus), so each
reference is independent of the routes under test.

All generated coordinates are dyadic (multiples of 1/16 or 1/64), so the
decimal text handed to revolve parses to exactly the value the reference
uses, and a disk's arc reaches sqrt(0) exactly at its endpoints.

Only the standard library is used here, so the harness can build inputs
without importing numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

TWO_PI = 2.0 * math.pi

# Relative round-off allowed to a reference: it is a closed form evaluated
# in double precision, good to a few ulps of the magnitude of its terms;
# 2^-40 (about 4096 ulps) also covers revolve's own round-off on routes
# that report an error estimate of exactly 0 (Pappus on polygons).
REF_REL_ERR = 2.0**-40

MC_SAMPLES = 4_000_000


@dataclass(frozen=True)
class Moments:
    area: float
    sx: float
    sy: float

    def __add__(self, other: "Moments") -> "Moments":
        return Moments(self.area + other.area, self.sx + other.sx, self.sy + other.sy)

    @property
    def centroid(self) -> tuple[float, float]:
        return self.sx / self.area, self.sy / self.area


def normalized_axis(a: float, b: float, c: float) -> tuple[float, float, float]:
    norm = math.hypot(a, b)
    return a / norm, b / norm, c / norm


def axis_coefficients(doc) -> tuple[float, float, float]:
    """(a, b, c) of an axis document, normalized."""
    if doc == "OX":
        return 0.0, 1.0, 0.0
    if doc == "OY":
        return 1.0, 0.0, 0.0
    if "vertical_at" in doc:
        return 1.0, 0.0, -float(doc["vertical_at"])
    if "horizontal_at" in doc:
        return 0.0, 1.0, -float(doc["horizontal_at"])
    return normalized_axis(float(doc["a"]), float(doc["b"]), float(doc["c"]))


def reference_volume(m: Moments, axis: tuple[float, float, float]) -> tuple[float, float]:
    """(volume, round-off allowance) about a normalized axis."""
    a, b, c = axis
    value = TWO_PI * abs(a * m.sx + b * m.sy + c * m.area)
    scale = TWO_PI * (abs(a * m.sx) + abs(b * m.sy) + abs(c * m.area))
    return value, REF_REL_ERR * scale


# ---------------------------------------------------------------------------
# Bundled fixtures: closed forms

@dataclass(frozen=True)
class FixtureRef:
    """Closed-form facts about one bundled fixture.

    ``volume`` is None when the axis crosses the region (every volume
    route must refuse it).  ``margin(x, y)`` is positive inside, negative
    outside, and near zero on the boundary, where the closed region's
    membership is a tie that the benchmark does not judge.
    """

    area: float
    centroid: tuple[float, float]
    axis: tuple[float, float, float]
    volume: float | None
    margin: Callable[[float, float], float]


_SQ2, _SQ3 = math.sqrt(2.0), math.sqrt(3.0)
_OX, _OY = (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)
# Circular sector of the unit circle between the rays at -pi/3 and pi/4.
_SECTOR_AREA = 7.0 * math.pi / 24.0
_SECTOR_CENTROID = ((_SQ2 / 2 + _SQ3 / 2) / 3 / _SECTOR_AREA, (0.5 - _SQ2 / 2) / 3 / _SECTOR_AREA)


def _sector_margin(x: float, y: float) -> float:
    a1, a2 = -math.pi / 3, math.pi / 4
    return min(
        1.0 - math.hypot(x, y),
        math.cos(a1) * y - math.sin(a1) * x,
        x * math.sin(a2) - y * math.cos(a2),
    )


def _square_margin(x: float, y: float) -> float:
    return min(x - 1.0, 2.0 - x, y, 1.0 - y)


_SECTOR = FixtureRef(_SECTOR_AREA, _SECTOR_CENTROID, _OY, math.pi * (_SQ2 + _SQ3) / 3, _sector_margin)
_SQUARE = FixtureRef(1.0, (1.5, 0.5), _OY, 3.0 * math.pi, _square_margin)
_TORUS = FixtureRef(math.pi, (2.0, 0.0), _OY, 4.0 * math.pi**2,
                    lambda x, y: 1.0 - math.hypot(x - 2.0, y))

FIXTURES: dict[str, FixtureRef] = {
    "cone_triangle": FixtureRef(0.5, (1 / 3, 1 / 3), _OY, math.pi / 3,
                                lambda x, y: min(x, y, 1.0 - x - y)),
    "half_annulus_polar": FixtureRef(1.5 * math.pi, (0.0, 28.0 / (9.0 * math.pi)), _OX,
                                     28.0 * math.pi / 3,
                                     lambda x, y: min(math.hypot(x, y) - 1.0,
                                                      2.0 - math.hypot(x, y), y)),
    "sector_disk_union": _SECTOR,
    "sector_polar": _SECTOR,
    "sector_shell_union": _SECTOR,
    "sphere_disk": FixtureRef(math.pi / 2, (4.0 / (3.0 * math.pi), 0.0), _OY, 4.0 * math.pi / 3,
                              lambda x, y: min(x, 1.0 - math.hypot(x, y))),
    "square_normalx": _SQUARE,
    "square_normaly": _SQUARE,
    "straddle": FixtureRef(math.pi, (0.0, 0.0), _OY, None, lambda x, y: 1.0 - math.hypot(x, y)),
    "torus_circle": _TORUS,
    "torus_disk": _TORUS,
    "unit_square": _SQUARE,
}


# ---------------------------------------------------------------------------
# Exact polynomial helpers (coefficient lists in t, lowest degree first)

def _pmul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _padd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _pint(p: list[Fraction], w: Fraction) -> Fraction:
    """Integral of p(t) for t in [0, w]."""
    return sum((c * w ** (i + 1) / (i + 1) for i, c in enumerate(p)), Fraction(0))


def _peval(p: list[Fraction], t: float) -> float:
    return sum(float(c) * t**i for i, c in enumerate(p))


def _num(value: Fraction) -> str:
    # Dyadic values convert to float exactly, and repr round-trips.
    return repr(float(value))


def _shifted(var: str, shift: Fraction) -> str:
    if shift == 0:
        return var
    sign = "-" if shift > 0 else "+"
    return f"({var}{sign}{_num(abs(shift))})"


def _poly_text(coeffs: list[Fraction], var: str, shift: Fraction) -> str:
    """``c0 + c1*(var-shift) + ...`` in revolve's expression grammar."""
    t = _shifted(var, shift)
    text = _num(coeffs[0])
    for i, c in enumerate(coeffs[1:], start=1):
        if c == 0:
            continue
        power = t if i == 1 else f"{t}^{i}"
        text += f" {'-' if c < 0 else '+'} {_num(abs(c))}*{power}"
    return text


def _dyadic(rng: random.Random, lo: float, hi: float, denom: int = 16) -> Fraction:
    return Fraction(rng.randint(math.ceil(lo * denom), math.floor(hi * denom)), denom)


# ---------------------------------------------------------------------------
# Region families.  Each builder returns (region doc, Moments, boundary),
# where ``boundary`` is a list of (x, y) points dense enough to place
# exterior axes with a wide gap.

def _normal_poly(rng: random.Random, kind: str, t0: Fraction | None = None):
    """normal_x (or normal_y) region between a cubic and the cubic plus a
    positive quadratic gap, over a width-w interval."""
    var = "x" if kind == "normal_x" else "y"
    t0 = _dyadic(rng, -3, 3) if t0 is None else t0
    w = _dyadic(rng, 1, 3)
    low = [_dyadic(rng, -2, 2), _dyadic(rng, -0.5, 0.5), _dyadic(rng, -0.25, 0.25, 64),
           _dyadic(rng, -0.125, 0.125, 64)]
    # |g1|*w + |g2|*w^2 <= 21/64 < g0/2 keeps the gap positive on [0, 3].
    gap = [_dyadic(rng, 1, 2), _dyadic(rng, -1 / 16, 1 / 16, 64), _dyadic(rng, -1 / 64, 1 / 64, 64)]
    high = _padd(low, gap)
    area = _pint(gap, w)
    along = _pint(_pmul([t0, Fraction(1)], gap), w)         # moment along the variable
    across = _pint(_pmul(gap, _padd(low, high)), w) / 2      # moment across it
    lo_key, hi_key, a_key, b_key = (("x_min", "x_max", "lower", "upper") if var == "x"
                                    else ("y_min", "y_max", "left", "right"))
    doc = {"type": kind, lo_key: _num(t0), hi_key: _num(t0 + w),
           a_key: _poly_text(low, var, t0), b_key: _poly_text(high, var, t0)}
    ts = [float(w) * k / 256 for k in range(257)]
    pts = [(float(t0) + t, _peval(c, t)) for c in (low, high) for t in ts]
    if var == "x":
        moments = Moments(float(area), float(along), float(across))
    else:
        moments = Moments(float(area), float(across), float(along))
        pts = [(y, x) for x, y in pts]
    return doc, moments, pts


def _disk(rng: random.Random, kind: str, center: tuple[Fraction, Fraction] | None = None,
          radius: Fraction | None = None):
    """A full disk written as a normal domain: two sqrt arcs that meet with
    infinite slope at the interval ends."""
    cx, cy = center or (_dyadic(rng, -3, 3), _dyadic(rng, -3, 3))
    r = radius or _dyadic(rng, 0.5, 1.5)
    if kind == "normal_x":
        var, t_c, v_c, keys = "x", cx, cy, ("x_min", "x_max", "lower", "upper")
    else:
        var, t_c, v_c, keys = "y", cy, cx, ("y_min", "y_max", "left", "right")
    root = f"sqrt({_num(r * r)}-{_shifted(var, t_c)}^2)"
    doc = {"type": kind, keys[0]: _num(t_c - r), keys[1]: _num(t_c + r),
           keys[2]: f"{_num(v_c)} - {root}", keys[3]: f"{_num(v_c)} + {root}"}
    area = math.pi * float(r) ** 2
    pts = [(float(cx) + float(r) * math.cos(TWO_PI * k / 512),
            float(cy) + float(r) * math.sin(TWO_PI * k / 512)) for k in range(512)]
    return doc, Moments(area, area * float(cx), area * float(cy)), pts


def _annulus(rng: random.Random):
    """Annular sector r <= rho <= R, t1 <= theta <= t2 about the origin."""
    t1 = _dyadic(rng, -3, 3)
    t2 = t1 + _dyadic(rng, 0.5, 2.5)
    r = _dyadic(rng, 0.25, 1)
    big = r + _dyadic(rng, 0.5, 1.5)
    doc = {"type": "polar", "theta_min": _num(t1), "theta_max": _num(t2),
           "rho_min": _num(r), "rho_max": _num(big)}
    area = float((t2 - t1) * (big * big - r * r) / 2)
    cubes = float(big**3 - r**3) / 3.0
    sx = cubes * (math.sin(float(t2)) - math.sin(float(t1)))
    sy = cubes * (math.cos(float(t1)) - math.cos(float(t2)))
    pts = []
    for k in range(257):
        th = float(t1) + float(t2 - t1) * k / 256
        pts += [(float(rho) * math.cos(th), float(rho) * math.sin(th)) for rho in (r, big)]
    return doc, Moments(area, sx, sy), pts


def _star_polygon(rng: random.Random, n: int, center: tuple[Fraction, Fraction] | None = None,
                  radius: Fraction | None = None):
    """Polygon star-shaped about its center: increasing angles, radii in
    [0.6, 1] of the base radius, vertices on a 1/64 grid.  Each edge stays
    inside its own angular wedge, so the polygon is simple and CCW."""
    cx, cy = center or (_dyadic(rng, -3, 3), _dyadic(rng, -3, 3))
    base = radius or _dyadic(rng, 0.75, 2)
    verts = []
    for k in range(n):
        th = TWO_PI * (k + rng.uniform(0.1, 0.9)) / n
        rho = float(base) * rng.uniform(0.6, 1.0)
        verts.append((cx + Fraction(round(rho * math.cos(th) * 64), 64),
                      cy + Fraction(round(rho * math.sin(th) * 64), 64)))
    a2 = sx6 = sy6 = Fraction(0)
    for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
        cross = px * qy - qx * py
        a2 += cross
        sx6 += (px + qx) * cross
        sy6 += (py + qy) * cross
    doc = {"type": "polygon", "vertices": [[_num(x), _num(y)] for x, y in verts]}
    moments = Moments(float(a2 / 2), float(sx6 / 6), float(sy6 / 6))
    pts = [(float(x), float(y)) for x, y in verts]
    return doc, moments, pts


def _union_polys(rng: random.Random):
    """Two polynomial normal_x slabs side by side, sharing one edge."""
    d1, m1, p1 = _normal_poly(rng, "normal_x")
    d2, m2, p2 = _normal_poly(rng, "normal_x", t0=Fraction(d1["x_max"]))
    return {"type": "union", "parts": [d1, d2]}, m1 + m2, p1 + p2


def _union_disk_polygon(rng: random.Random):
    """A disk and a hexagon to its right, well apart."""
    r = _dyadic(rng, 0.5, 1.25)
    cx, cy = _dyadic(rng, -3, 0), _dyadic(rng, -2, 2)
    d1, m1, p1 = _disk(rng, "normal_x", (cx, cy), r)
    base = _dyadic(rng, 0.75, 1.5)
    center = (cx + r + base + _dyadic(rng, 0.5, 1), _dyadic(rng, -2, 2))
    d2, m2, p2 = _star_polygon(rng, 6, center, base)
    return {"type": "union", "parts": [d1, d2]}, m1 + m2, p1 + p2


# ---------------------------------------------------------------------------
# Exterior axes

_OBLIQUE_DIRECTIONS = ((1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1), (1, 3), (3, -1))


def _exterior_axis(rng: random.Random, orientation: str, pts):
    """An axis of the given orientation clear of the region by a gap of
    0.25 to 1.5, on a random side; returns (doc, normalized coefficients)."""
    gap = _dyadic(rng, 0.25, 1.5)
    side = rng.choice((-1, 1))
    if orientation == "vertical":
        a, b = 1, 0
    elif orientation == "horizontal":
        a, b = 0, 1
    else:
        a, b = rng.choice(_OBLIQUE_DIRECTIONS)
    proj = [a * x + b * y for x, y in pts]
    norm = math.hypot(a, b)
    # The line a*x + b*y = level, with the whole region on one side.
    if side > 0:
        level = Fraction(math.floor((min(proj) - float(gap) * norm) * 16), 16)
    else:
        level = Fraction(math.ceil((max(proj) + float(gap) * norm) * 16), 16)
    if orientation == "vertical":
        doc = {"vertical_at": _num(level)}
    elif orientation == "horizontal":
        doc = {"horizontal_at": _num(level)}
    else:
        doc = {"a": a, "b": b, "c": _num(-level)}
    return doc, axis_coefficients(doc)


# ---------------------------------------------------------------------------
# Workload inputs

@dataclass(frozen=True)
class Case:
    """One generated op: a job document plus what the answers must be."""

    name: str           # family, e.g. "normal_x_disk"
    doc: dict           # the job config handed to revolve.config.parse_job
    moments: Moments
    axis: tuple[float, float, float]
    route: str | None   # the classical route that applies, if any

    @property
    def volume(self) -> tuple[float, float]:
        return reference_volume(self.moments, self.axis)


# quad_sweep pass layout: (family, builder, regions per pass).  Smooth
# families have polynomial boundaries, constant radii or straight edges,
# where one Gauss-Kronrod panel per slab converges; the sqrt families are
# disks whose arcs need deep refinement and endpoint nudges.  6 of the 24
# regions, a fixed quarter of the ops, are sqrt families.
QUAD_FAMILIES = (
    ("normal_x_poly", lambda rng: _normal_poly(rng, "normal_x"), 4),
    ("normal_y_poly", lambda rng: _normal_poly(rng, "normal_y"), 4),
    ("polar_annulus", _annulus, 4),
    ("polygon8", lambda rng: _star_polygon(rng, 8), 4),
    ("union_poly", _union_polys, 2),
    ("normal_x_disk", lambda rng: _disk(rng, "normal_x"), 4),
    ("normal_y_disk", lambda rng: _disk(rng, "normal_y"), 2),
)
SQRT_FAMILIES = ("normal_x_disk", "normal_y_disk")

# Which classical route applies, by region type and axis orientation.
_ROUTES = {
    ("normal_x", "vertical"): "shell", ("normal_x", "horizontal"): "disk",
    ("normal_y", "vertical"): "disk", ("normal_y", "horizontal"): "shell",
    ("polygon", "vertical"): "shell", ("polygon", "horizontal"): "shell",
}

# mc_sample pass layout: (family, builder, axis orientation), three
# estimates each.  The containment tests differ: polar transform, sqrt
# arcs, a 10-edge winding number, a union.  The disks cost least, so the
# median of the 15 ops is the middle polar estimate, not the mean of two.
MC_FAMILIES = (
    ("polar_annulus", _annulus, "oblique"),
    ("normal_x_disk", lambda rng: _disk(rng, "normal_x"), "vertical"),
    ("normal_y_disk", lambda rng: _disk(rng, "normal_y"), "horizontal"),
    ("polygon10", lambda rng: _star_polygon(rng, 10), "oblique"),
    ("union_disk_polygon", _union_disk_polygon, "vertical"),
)
MC_PER_FAMILY = 3


def _rng(workload: str, seed: int, stream: int) -> random.Random:
    return random.Random(f"revolve-bench/{workload}/{seed}/{stream}")


def _route(region_doc: dict, orientation: str) -> str | None:
    if region_doc["type"] == "polar":
        return "polar"
    kind = region_doc["type"]
    if kind == "union":
        kind = region_doc["parts"][0]["type"]
    return _ROUTES.get((kind, orientation))


def quad_pass(seed: int, stream: int) -> list[Case]:
    """Ops of one quad_sweep pass: every region of the layout about a
    vertical, a horizontal and an oblique exterior axis, so two of every
    three ops repeat a region.  Streams never share a region."""
    rng = _rng("quad_sweep", seed, stream)
    regions = [(name, *build(rng)) for name, build, count in QUAD_FAMILIES for _ in range(count)]
    rng.shuffle(regions)
    cases = []
    for name, region, moments, pts in regions:
        for orientation in ("vertical", "horizontal", "oblique"):
            axis_doc, axis = _exterior_axis(rng, orientation, pts)
            cases.append(Case(name, {"region": region, "axis": axis_doc}, moments, axis,
                              _route(region, orientation)))
    return cases


def mc_pass(seed: int, stream: int) -> list[Case]:
    """Ops of one mc_sample pass: Monte Carlo estimates, family by family."""
    rng = _rng("mc_sample", seed, stream)
    cases = []
    for name, build, orientation in MC_FAMILIES * MC_PER_FAMILY:
        region, moments, pts = build(rng)
        axis_doc, axis = _exterior_axis(rng, orientation, pts)
        doc = {"region": region, "axis": axis_doc, "method": "monte_carlo",
               "mc": {"samples": MC_SAMPLES, "seed": rng.getrandbits(63)}}
        cases.append(Case(name, doc, moments, axis, "monte_carlo"))
    return cases


CLI_COMMANDS = ("compare", "volume", "centroid", "check", "sample")


@dataclass(frozen=True)
class CliJob:
    fixture: str
    command: str
    mc_seed: int | None  # --seed override for commands that may run Monte Carlo

    def argv(self) -> list[str]:
        """CLI arguments, with the config path relative to the checkout root."""
        args = [self.command, "--config", f"fixtures/{self.fixture}.json"]
        if self.command == "sample":
            args += ["--grid", "64"]
        if self.mc_seed is not None:
            args += ["--seed", str(self.mc_seed)]
        return args


def cli_pass(seed: int, stream: int) -> list[CliJob]:
    """All 12 fixtures x 5 subcommands in a seeded order; compare and
    volume get a seeded Monte Carlo seed."""
    rng = _rng("cli_jobs", seed, stream)
    jobs = [CliJob(f, c, rng.getrandbits(63) if c in ("compare", "volume") else None)
            for f in sorted(FIXTURES) for c in CLI_COMMANDS]
    rng.shuffle(jobs)
    return jobs


# Timed passes repeat stream 0 (each in a fresh process); warm-up ops come
# from another stream, so they share no region with the timed ones.
TIMED_STREAM = 0
WARMUP_STREAM = -1
