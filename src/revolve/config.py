"""Job configuration: a JSON document describing the region, the axis, and
run options.

Schema (top level): {"region": ..., "axis": ..., "method"?, "tolerance"?,
"mc"?, "format"?}.  Region objects discriminate on "type": normal_x,
normal_y, polar, polygon, union.  Curve fields are expression strings in
the variant's variable (x, y, or theta); every scalar field also accepts a
constant expression string, so a bound can be written "-pi/3" or
"sqrt(2)/2" verbatim.  Axis forms: {"a","b","c"}, {"vertical_at": x0},
{"horizontal_at": y0}, or the shorthands "OX" / "OY".

Validation never stops at the first problem: all issues are collected with
their field paths and raised together as ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    InvalidAxisError,
    InvalidRegionError,
)
from .expr import parse_expr, parse_scalar
from .geometry import Axis, Point
from .methods import METHODS, McConfig
from .quadrature import Tolerance
from .region import Curve, NormalX, NormalY, Polygon, PolarSector, Region, UnionRegion

__all__ = ["JobConfig", "parse_job", "load_job", "region_doc"]

_REGION_VARIABLES = {"normal_x": "x", "normal_y": "y", "polar": "theta"}

_CURVE_REGIONS = {"normal_x": NormalX, "normal_y": NormalY, "polar": PolarSector}

_REGION_FIELDS = {
    "normal_x": ("x_min", "x_max", "lower", "upper"),
    "normal_y": ("y_min", "y_max", "left", "right"),
    "polar": ("theta_min", "theta_max", "rho_min", "rho_max"),
    "polygon": ("vertices",),
    "union": ("parts",),
}


@dataclass(frozen=True)
class JobConfig:
    region: Region
    axis: Axis
    method: str = "double_integral"
    tolerance: Tolerance = Tolerance()
    mc: McConfig = McConfig()
    out_format: str = "json"

    def normalized(self) -> dict:
        """Config document with defaults filled in and scalars evaluated;
        re-parsing it yields an identical job."""
        return {
            "region": region_doc(self.region),
            "axis": {"a": self.axis.a, "b": self.axis.b, "c": self.axis.c},
            "method": self.method,
            "tolerance": {
                "rel": self.tolerance.rel,
                "abs": self.tolerance.abs,
                "max_depth": self.tolerance.max_depth,
            },
            "mc": {"samples": self.mc.samples, "seed": self.mc.seed},
            "format": self.out_format,
        }


def region_doc(region: Region) -> dict:
    if isinstance(region, Polygon):
        return {
            "type": "polygon",
            "vertices": [[v.x, v.y] for v in region.vertices],
        }
    if isinstance(region, UnionRegion):
        return {"type": "union", "parts": [region_doc(p) for p in region.parts]}
    for rtype, cls in _CURVE_REGIONS.items():
        if type(region) is cls:
            lo_key, hi_key, a_key, b_key = _REGION_FIELDS[rtype]
            return {
                "type": rtype,
                lo_key: getattr(region, lo_key),
                hi_key: getattr(region, hi_key),
                a_key: getattr(region, a_key).text,
                b_key: getattr(region, b_key).text,
            }
    raise TypeError(f"not a region: {region!r}")


# ---------------------------------------------------------------------------
# Builders: return None on failure and append (path, message) to issues.

def _scalar_field(value, path, issues):
    if value is None:
        issues.append((path, "missing required field"))
        return None
    try:
        return parse_scalar(value)
    except (ExprSyntaxError, DomainError) as exc:
        issues.append((path, f"not a number or constant expression: {exc}"))
        return None


def _curve_field(value, variable, path, issues):
    if value is None:
        issues.append((path, "missing required field"))
        return None
    if not isinstance(value, str):
        issues.append((path, f"expected an expression string in {variable!r}"))
        return None
    try:
        return Curve(parse_expr(value, variable))
    except ExprSyntaxError as exc:
        issues.append((path, str(exc)))
        return None


def _check_keys(doc, allowed, path, issues):
    for key in doc:
        if key not in allowed:
            issues.append((f"{path}.{key}", "unknown field"))


def _build_region(doc, path, issues):
    if not isinstance(doc, dict):
        issues.append((path, "expected a region object"))
        return None
    rtype = doc.get("type")
    if rtype not in _REGION_FIELDS:
        issues.append(
            (f"{path}.type", f"expected one of {sorted(_REGION_FIELDS)}, got {rtype!r}")
        )
        return None
    _check_keys(doc, ("type",) + _REGION_FIELDS[rtype], path, issues)

    if rtype == "union":
        parts_doc = doc.get("parts")
        if not isinstance(parts_doc, list) or not parts_doc:
            issues.append((f"{path}.parts", "expected a non-empty list of regions"))
            return None
        parts = [
            _build_region(part, f"{path}.parts[{i}]", issues)
            for i, part in enumerate(parts_doc)
        ]
        if any(part is None for part in parts):
            return None
        return UnionRegion(tuple(parts))

    if rtype == "polygon":
        verts_doc = doc.get("vertices")
        if not isinstance(verts_doc, list):
            issues.append((f"{path}.vertices", "expected a list of [x, y] pairs"))
            return None
        verts = []
        ok = True
        for i, pair in enumerate(verts_doc):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                issues.append((f"{path}.vertices[{i}]", "expected an [x, y] pair"))
                ok = False
                continue
            x = _scalar_field(pair[0], f"{path}.vertices[{i}][0]", issues)
            y = _scalar_field(pair[1], f"{path}.vertices[{i}][1]", issues)
            if x is None or y is None:
                ok = False
            else:
                verts.append(Point(x, y))
        if not ok:
            return None
        try:
            return Polygon(tuple(verts))
        except InvalidRegionError as exc:
            issues.append((path, str(exc)))
            return None

    variable = _REGION_VARIABLES[rtype]
    lo_key, hi_key, a_key, b_key = _REGION_FIELDS[rtype]
    lo = _scalar_field(doc.get(lo_key), f"{path}.{lo_key}", issues)
    hi = _scalar_field(doc.get(hi_key), f"{path}.{hi_key}", issues)
    ca = _curve_field(doc.get(a_key), variable, f"{path}.{a_key}", issues)
    cb = _curve_field(doc.get(b_key), variable, f"{path}.{b_key}", issues)
    if None in (lo, hi, ca, cb):
        return None
    try:
        return _CURVE_REGIONS[rtype](lo, hi, ca, cb)
    except InvalidRegionError as exc:
        issues.append((path, str(exc)))
        return None


def _build_axis(doc, path, issues):
    if isinstance(doc, str):
        if doc == "OX":
            return Axis.horizontal(0.0)
        if doc == "OY":
            return Axis.vertical(0.0)
        issues.append((path, f"expected 'OX', 'OY', or an axis object, got {doc!r}"))
        return None
    if not isinstance(doc, dict):
        issues.append((path, "expected an axis object or 'OX'/'OY'"))
        return None
    if "vertical_at" in doc:
        _check_keys(doc, ("vertical_at",), path, issues)
        x0 = _scalar_field(doc.get("vertical_at"), f"{path}.vertical_at", issues)
        return None if x0 is None else Axis.vertical(x0)
    if "horizontal_at" in doc:
        _check_keys(doc, ("horizontal_at",), path, issues)
        y0 = _scalar_field(doc.get("horizontal_at"), f"{path}.horizontal_at", issues)
        return None if y0 is None else Axis.horizontal(y0)
    _check_keys(doc, ("a", "b", "c"), path, issues)
    a = _scalar_field(doc.get("a"), f"{path}.a", issues)
    b = _scalar_field(doc.get("b"), f"{path}.b", issues)
    c = _scalar_field(doc.get("c"), f"{path}.c", issues)
    if None in (a, b, c):
        return None
    try:
        return Axis(a, b, c)
    except InvalidAxisError as exc:
        issues.append((path, str(exc)))
        return None


def parse_job(doc, overrides: dict | None = None) -> JobConfig:
    """Validate a config document (plus CLI overrides) into a JobConfig.

    Raises ConfigError carrying every problem found, each with the path of
    the offending field.
    """
    overrides = overrides or {}
    issues: list[tuple[str, str]] = []
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top-level config must be an object")])
    _check_keys(doc, ("region", "axis", "method", "tolerance", "mc", "format"), "$", issues)

    region = _build_region(doc.get("region"), "region", issues) if "region" in doc else None
    if "region" not in doc:
        issues.append(("region", "missing required field"))
    axis = _build_axis(doc.get("axis"), "axis", issues) if "axis" in doc else None
    if "axis" not in doc:
        issues.append(("axis", "missing required field"))

    method = overrides.get("method") or doc.get("method", "double_integral")
    if method not in METHODS + ("all",):
        issues.append(("method", f"expected one of {list(METHODS) + ['all']}, got {method!r}"))

    tol_doc = doc.get("tolerance", {})
    if not isinstance(tol_doc, dict):
        issues.append(("tolerance", "expected an object"))
        tol_doc = {}
    _check_keys(tol_doc, ("rel", "abs", "max_depth"), "tolerance", issues)
    rel = overrides.get("rel_tol")
    abs_tol = overrides.get("abs_tol")
    if rel is None:
        rel = _scalar_field(tol_doc.get("rel", 1e-10), "tolerance.rel", issues)
    if abs_tol is None:
        abs_tol = _scalar_field(tol_doc.get("abs", 1e-12), "tolerance.abs", issues)
    max_depth = tol_doc.get("max_depth", 50)
    tolerance = None
    if rel is not None and abs_tol is not None:
        try:
            tolerance = Tolerance(rel, abs_tol, int(max_depth))
        except (ValueError, TypeError) as exc:
            issues.append(("tolerance", str(exc)))

    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, dict):
        issues.append(("mc", "expected an object"))
        mc_doc = {}
    _check_keys(mc_doc, ("samples", "seed"), "mc", issues)
    samples = overrides.get("mc_samples", mc_doc.get("samples", 1_000_000))
    seed = overrides.get("seed", mc_doc.get("seed", 0))
    mc = None
    try:
        mc = McConfig(int(samples), int(seed))
    except (ValueError, TypeError) as exc:
        issues.append(("mc", str(exc)))

    out_format = overrides.get("format") or doc.get("format", "json")
    if out_format not in ("json", "csv"):
        issues.append(("format", f"expected 'json' or 'csv', got {out_format!r}"))

    if issues or region is None or axis is None or tolerance is None or mc is None:
        raise ConfigError(issues)
    return JobConfig(region, axis, method, tolerance, mc, out_format)


def load_job(path, overrides: dict | None = None) -> JobConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([(str(path), f"cannot read config: {exc}")]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([(str(path), f"invalid JSON: {exc}")]) from exc
    return parse_job(doc, overrides)
