"""Job configuration: a JSON document describing the region, the axis, and
run options.

Schema (top level): {"region": ..., "axis": ..., "method"?, "tolerance"?,
"mc"?, "format"?}.  Region objects discriminate on "type": normal_x,
normal_y, polar, polygon, union.  Curve fields are expression strings in
the variant's variable (x, y, or theta); every scalar field also accepts a
constant expression string, so a bound can be written "-pi/3" or
"sqrt(2)/2" verbatim.  Axis forms: {"a","b","c"}, {"vertical_at": x0},
{"horizontal_at": y0}, or the shorthands "OX" / "OY".

The records are the schema: one table maps each region type to its
record, whose fields are the region's keys, and the keys of tolerance, mc
and an {"a","b","c"} axis are the fields of Tolerance, McConfig and Axis.
Every default is a class attribute of JobConfig, Tolerance or McConfig.
One builder reads them all: a field's annotation picks its reader.  A CLI
override of rel or abs, where not None, is taken as it is for Tolerance to
check; one of samples or seed stands for the document's value.

Validation never stops at the first problem: all issues are collected with
their field paths and raised together as ConfigError.
"""

from __future__ import annotations

import json
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

# The region variants by type; each record's fields are its document's keys.
_REGIONS = {"normal_x": NormalX, "normal_y": NormalY, "polar": PolarSector,
            "polygon": Polygon, "union": UnionRegion}
_TYPES = {cls: rtype for rtype, cls in _REGIONS.items()}

# Levels of unions the builder takes, each a part of the one above it: a
# level costs the builder, and every walk of the region, a few frames.
_MAX_UNION_NESTING = 100


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
    rtype = _TYPES.get(type(region))
    if rtype == "polygon":
        return {"type": rtype, "vertices": [[v.x, v.y] for v in region.vertices]}
    if rtype == "union":
        return {"type": rtype, "parts": [region_doc(p) for p in region.parts]}
    if rtype is None:
        raise TypeError(f"not a region: {region!r}")
    lo_key, hi_key, a_key, b_key = region._fields
    u_min, u_max, near, far = region.span
    return {"type": rtype, lo_key: u_min, hi_key: u_max, a_key: near.text, b_key: far.text}


# ---------------------------------------------------------------------------
# Readers ``(value, path, issues, cls)`` of a field of the record ``cls``, and
# builders: each returns None on failure and appends (path, message) to issues.

def _scalar_field(value, path, issues, cls=None):
    if value is None:
        issues.append((path, "missing required field"))
        return None
    try:
        return parse_scalar(value)
    except (ExprSyntaxError, DomainError) as exc:
        issues.append((path, f"not a number or constant expression: {exc}"))
        return None


def _int_field(value, path, issues, cls=None) -> int | None:
    """``value`` as an integer, an integer string such as "1000" too; None,
    with an issue at ``path``, where it is a bool, a float with a fraction,
    NaN or infinite, or anything else int() refuses."""
    try:
        if not (isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())):
            return int(value)
    except (TypeError, ValueError):
        pass
    issues.append((path, f"expected an integer, got {value!r}"))
    return None


def _curve_field(value, path, issues, cls):
    """An expression string in the variable of the curve leaf ``cls``."""
    if value is None:
        issues.append((path, "missing required field"))
        return None
    if not isinstance(value, str):
        issues.append((path, f"expected an expression string in {cls._var!r}"))
        return None
    try:
        return parse_expr(value, cls._var)
    except ExprSyntaxError as exc:
        issues.append((path, str(exc)))
        return None


def _vertices(value, path, issues, cls):
    if not isinstance(value, list):
        issues.append((path, "expected a list of [x, y] pairs"))
        return None
    verts = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            issues.append((f"{path}[{i}]", "expected an [x, y] pair"))
            verts.append(None)
            continue
        x = _scalar_field(pair[0], f"{path}[{i}][0]", issues)
        y = _scalar_field(pair[1], f"{path}[{i}][1]", issues)
        verts.append(None if x is None or y is None else Point(x, y))
    return None if None in verts else tuple(verts)


def _parts(value, path, issues, cls):
    if not isinstance(value, list) or not value:
        issues.append((path, "expected a non-empty list of regions"))
        return None
    parts = tuple(_build_region(part, f"{path}[{i}]", issues) for i, part in enumerate(value))
    return None if None in parts else parts


# A field's reader by its annotation, a string as annotations are postponed.
_READERS = {"float": _scalar_field, "int": _int_field, "ExprAst": _curve_field,
            "tuple[Point, ...]": _vertices, "tuple['Region', ...]": _parts}

# Each record's (field, reader, default) in order; None stands for no default.
_FIELDS = {cls: tuple((name, _READERS[cls.__dict__["__annotations__"][name]],
                       cls.__dict__.get(name)) for name in cls._fields)
           for cls in (*_REGIONS.values(), Axis, Tolerance, McConfig)}


def _build(cls, doc, path, issues, refused, given=()):
    """The record ``cls`` of the fields of ``doc``, each read by its
    annotation's reader at ``path``.field, or taken as it is from
    ``given``; None where a field is refused, or where ``cls`` raises one
    of ``refused``, which is reported at ``path``."""
    args = []
    for name, read, default in _FIELDS[cls]:  # a loop: a comprehension is slower here
        args.append(given[name] if name in given
                    else read(doc.get(name, default), f"{path}.{name}", issues, cls))
    if None in args:
        return None
    try:
        return cls(*args)
    except refused as exc:
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
    cls = _REGIONS.get(rtype) if type(rtype) is str else None
    if cls is None:
        issues.append((f"{path}.type", f"expected one of {sorted(_REGIONS)}, got {rtype!r}"))
        return None
    if cls is UnionRegion and path.count(".parts[") == _MAX_UNION_NESTING:  # one per union above
        issues.append((path, f"unions nested deeper than {_MAX_UNION_NESTING} levels"))
        return None
    _check_keys(doc, ("type",) + cls._fields, path, issues)
    return _build(cls, doc, path, issues, InvalidRegionError)


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
    for key, line in (("vertical_at", Axis.vertical), ("horizontal_at", Axis.horizontal)):
        if key in doc:
            _check_keys(doc, (key,), path, issues)
            at = _scalar_field(doc[key], f"{path}.{key}", issues)
            return None if at is None else line(at)
    _check_keys(doc, Axis._fields, path, issues)
    return _build(Axis, doc, path, issues, InvalidAxisError)


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

    method = overrides.get("method", doc.get("method", JobConfig.method))
    if method not in METHODS + ("all",):
        issues.append(("method", f"expected one of {list(METHODS) + ['all']}, got {method!r}"))

    given = {field: overrides[key] for key, field in (("rel_tol", "rel"), ("abs_tol", "abs"))
             if overrides.get(key) is not None} if overrides else ()
    tolerance = _build(Tolerance, _options(doc, "tolerance", Tolerance, issues), "tolerance",
                       issues, (ValueError, TypeError), given)  # TypeError: a non-number override
    mc_doc = _options(doc, "mc", McConfig, issues)
    if overrides:
        mc_doc = {**mc_doc, **{field: overrides[key] for key, field in
                               (("mc_samples", "samples"), ("seed", "seed")) if key in overrides}}
    mc = _build(McConfig, mc_doc, "mc", issues, ValueError)

    out_format = overrides.get("format", doc.get("format", JobConfig.out_format))
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
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an integer, too deep
        raise ConfigError([(str(path), f"invalid JSON: {exc}")]) from exc
    return parse_job(doc, overrides)
