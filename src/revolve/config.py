"""Job configuration: a JSON document describing the region, the axis, and
run options.

Schema (top level): {"region": ..., "axis": ..., "method"?, "tolerance"?,
"mc"?, "format"?}.  Region objects discriminate on "type": normal_x,
normal_y, polar, polygon, union.  Curve fields are expression strings in
the variant's variable (x, y, or theta); every scalar field also accepts a
constant expression string, so a bound can be written "-pi/3" or
"sqrt(2)/2" verbatim.  Axis forms: {"a","b","c"}, {"vertical_at": x0},
{"horizontal_at": y0}, or the shorthands "OX" / "OY".

The records are the schema: the keys of tolerance, mc and an {"a","b","c"}
axis are the fields of Tolerance, McConfig and Axis, and every default is
a class attribute of JobConfig, Tolerance or McConfig.

Validation never stops at the first problem: all issues are collected with
their field paths and raised together as ConfigError.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._record import fields, record
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
from .region import NormalX, NormalY, Polygon, PolarSector, Region, UnionRegion

__all__ = ["JobConfig", "parse_job", "load_job", "region_doc"]

FORMATS = ("json", "csv")  # report formats, the first the default

# The curve variants; each class names its fields (u_min, u_max, near, far)
# and its variable.
_CURVE_REGIONS = {"normal_x": NormalX, "normal_y": NormalY, "polar": PolarSector}

_REGION_FIELDS = {
    **{rtype: cls._fields for rtype, cls in _CURVE_REGIONS.items()},
    "polygon": ("vertices",),
    "union": ("parts",),
}


@record
class JobConfig:
    region: Region
    axis: Axis
    method: str = "double_integral"
    tolerance: Tolerance = Tolerance()
    mc: McConfig = McConfig()
    out_format: str = FORMATS[0]

    def normalized(self) -> dict:
        """Config document with defaults filled in and scalars evaluated;
        re-parsing it yields an identical job."""
        return {
            "region": region_doc(self.region),
            "axis": fields(self.axis),
            "method": self.method,
            "tolerance": fields(self.tolerance),
            "mc": fields(self.mc),
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
            u_min, u_max, near, far = region.span
            return {"type": rtype, lo_key: u_min, hi_key: u_max,
                    a_key: near.text, b_key: far.text}
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


def _whole_field(value, path, issues) -> bool:
    """False, with an issue at ``path``, where int() would change ``value``
    into another number: a bool, or a finite float with a fraction.  What
    int() refuses (a NaN or infinite float, a string that is not an
    integer) is left to its caller."""
    if isinstance(value, bool) or (
            isinstance(value, float) and math.isfinite(value) and not value.is_integer()):
        issues.append((path, f"expected an integer, got {value!r}"))
        return False
    return True


def _curve_field(value, variable, path, issues):
    if value is None:
        issues.append((path, "missing required field"))
        return None
    if not isinstance(value, str):
        issues.append((path, f"expected an expression string in {variable!r}"))
        return None
    try:
        return parse_expr(value, variable)
    except ExprSyntaxError as exc:
        issues.append((path, str(exc)))
        return None


def _check_keys(doc, allowed, path, issues):
    for key in doc:
        if key not in allowed:
            issues.append((f"{path}.{key}", "unknown field"))


def _options(doc, key, cls, issues) -> dict:
    """The optional object ``doc[key]`` of the record ``cls``'s fields; {}
    where it is absent or not an object."""
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        issues.append((key, "expected an object"))
        return {}
    _check_keys(sub, cls._fields, key, issues)
    return sub


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
        cls, args = Polygon, (tuple(verts),)
    else:
        cls = _CURVE_REGIONS[rtype]
        lo_key, hi_key, a_key, b_key = _REGION_FIELDS[rtype]
        lo = _scalar_field(doc.get(lo_key), f"{path}.{lo_key}", issues)
        hi = _scalar_field(doc.get(hi_key), f"{path}.{hi_key}", issues)
        ca = _curve_field(doc.get(a_key), cls._var, f"{path}.{a_key}", issues)
        cb = _curve_field(doc.get(b_key), cls._var, f"{path}.{b_key}", issues)
        args = (lo, hi, ca, cb)
        if None in args:
            return None
    try:
        return cls(*args)
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
    _check_keys(doc, Axis._fields, path, issues)
    coefficients = [_scalar_field(doc.get(key), f"{path}.{key}", issues) for key in Axis._fields]
    if None in coefficients:
        return None
    try:
        return Axis(*coefficients)
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

    method = overrides.get("method") or doc.get("method", JobConfig.method)
    if method not in METHODS + ("all",):
        issues.append(("method", f"expected one of {list(METHODS) + ['all']}, got {method!r}"))

    tol_doc = _options(doc, "tolerance", Tolerance, issues)
    rel = overrides.get("rel_tol")
    abs_tol = overrides.get("abs_tol")
    if rel is None:
        rel = _scalar_field(tol_doc.get("rel", Tolerance.rel), "tolerance.rel", issues)
    if abs_tol is None:
        abs_tol = _scalar_field(tol_doc.get("abs", Tolerance.abs), "tolerance.abs", issues)
    max_depth = tol_doc.get("max_depth", Tolerance.max_depth)
    tolerance = None
    if (_whole_field(max_depth, "tolerance.max_depth", issues)
            and rel is not None and abs_tol is not None):
        try:
            tolerance = Tolerance(rel, abs_tol, int(max_depth))
        except (ValueError, TypeError, OverflowError) as exc:
            issues.append(("tolerance", str(exc)))

    mc_doc = _options(doc, "mc", McConfig, issues)
    samples = overrides.get("mc_samples", mc_doc.get("samples", McConfig.samples))
    seed = overrides.get("seed", mc_doc.get("seed", McConfig.seed))
    mc = None
    # A list, not a generator: both fields are checked and reported.
    if all([_whole_field(samples, "mc.samples", issues), _whole_field(seed, "mc.seed", issues)]):
        try:
            mc = McConfig(int(samples), int(seed))
        except (ValueError, TypeError, OverflowError) as exc:
            issues.append(("mc", str(exc)))

    out_format = overrides.get("format") or doc.get("format", JobConfig.out_format)
    if out_format not in FORMATS:
        issues.append(("format", f"expected {' or '.join(map(repr, FORMATS))}, got {out_format!r}"))

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
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise ConfigError([(str(path), f"invalid JSON: {exc}")]) from exc
    return parse_job(doc, overrides)
