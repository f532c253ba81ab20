"""Shared builders for test regions, axes, and randomized cases."""

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

import revolve as rv

AXIS_OY = rv.Axis.vertical(0.0)
AXIS_OX = rv.Axis.horizontal(0.0)

# Volume of the circular-sector fixture (unit circle between the rays at
# -pi/3 and pi/4) revolved about the y axis: pi*(sqrt(2)+sqrt(3))/3.
SECTOR_VOLUME = math.pi * (math.sqrt(2) + math.sqrt(3)) / 3

TORUS_VOLUME = 4.0 * math.pi**2  # ring of minor radius 1 at distance 2
CONE_VOLUME = math.pi / 3
SPHERE_VOLUME = 4.0 * math.pi / 3
SQUARE_VOLUME = 3.0 * math.pi  # unit square [1,2]x[0,1] about the y axis


def sector_polar():
    return rv.PolarSector(
        -math.pi / 3, math.pi / 4, rv.curve("0", "theta"), rv.curve("1", "theta")
    )


def sector_disk_union():
    return rv.UnionRegion((
        rv.NormalY(-math.sqrt(3) / 2, 0.0,
                   rv.curve("-y/sqrt(3)", "y"), rv.curve("sqrt(1-y^2)", "y")),
        rv.NormalY(0.0, math.sqrt(2) / 2,
                   rv.curve("y", "y"), rv.curve("sqrt(1-y^2)", "y")),
    ))


def sector_shell_union():
    return rv.UnionRegion((
        rv.NormalX(0.0, 0.5, rv.curve("-sqrt(3)*x", "x"), rv.curve("x", "x")),
        rv.NormalX(0.5, math.sqrt(2) / 2,
                   rv.curve("-sqrt(1-x^2)", "x"), rv.curve("x", "x")),
        rv.NormalX(math.sqrt(2) / 2, 1.0,
                   rv.curve("-sqrt(1-x^2)", "x"), rv.curve("sqrt(1-x^2)", "x")),
    ))


def torus_normal_x():
    return rv.NormalX(1.0, 3.0,
                      rv.curve("-sqrt(1-(x-2)^2)", "x"),
                      rv.curve("sqrt(1-(x-2)^2)", "x"))


def torus_normal_y():
    return rv.NormalY(-1.0, 1.0,
                      rv.curve("2-sqrt(1-y^2)", "y"),
                      rv.curve("2+sqrt(1-y^2)", "y"))


def cone_normal_x():
    return rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1-x", "x"))


def cone_triangle():
    return rv.Polygon((rv.Point(0, 0), rv.Point(1, 0), rv.Point(0, 1)))


def sphere_normal_y():
    return rv.NormalY(-1.0, 1.0, rv.curve("0", "y"), rv.curve("sqrt(1-y^2)", "y"))


def unit_square_polygon():
    return rv.Polygon((rv.Point(1, 0), rv.Point(2, 0), rv.Point(2, 1), rv.Point(1, 1)))


def square_normal_x():
    return rv.NormalX(1.0, 2.0, rv.curve("0", "x"), rv.curve("1", "x"))


def square_normal_y():
    return rv.NormalY(0.0, 1.0, rv.curve("1", "y"), rv.curve("2", "y"))


def straddling_disk_x():
    return rv.NormalX(-1.0, 1.0,
                      rv.curve("-sqrt(1-x^2)", "x"), rv.curve("sqrt(1-x^2)", "x"))


def straddling_disk_y():
    return rv.NormalY(-1.0, 1.0,
                      rv.curve("-sqrt(1-y^2)", "y"), rv.curve("sqrt(1-y^2)", "y"))


def squares_both_sides_x():
    """Unit squares at x in [-3, -1] and [1, 3]: about x = 0 both sweep the
    same solid, of volume 8*pi."""
    return rv.UnionRegion((rv.NormalX(-3.0, -1.0, rv.curve("0", "x"), rv.curve("1", "x")),
                           rv.NormalX(1.0, 3.0, rv.curve("0", "x"), rv.curve("1", "x"))))


def squares_both_sides_y():
    """The mirror image of ``squares_both_sides_x`` in y = x, as normal_y parts."""
    return rv.UnionRegion((rv.NormalY(0.0, 1.0, rv.curve("-3", "y"), rv.curve("-1", "y")),
                           rv.NormalY(0.0, 1.0, rv.curve("1", "y"), rv.curve("3", "y"))))


# ---------------------------------------------------------------------------
# Randomized-case builders (used by the property suites)

def poly_expr(coeffs, var):
    """Expression string for sum(coeffs[i] * var^i)."""
    terms = []
    for i, c in enumerate(coeffs):
        if i == 0:
            terms.append(f"({float(c)!r})")
        else:
            terms.append(f"({float(c)!r})*{var}^{i}")
    return "+".join(terms)


def random_normal_x(rng):
    """NormalX with cubic lower bound and lower + positive quadratic upper."""
    x0 = float(rng.uniform(-2.0, 2.0))
    x1 = x0 + float(rng.uniform(0.5, 2.0))
    lower = poly_expr(rng.uniform(-1.0, 1.0, size=4), "x")
    mid = float(rng.uniform(x0, x1))
    gap = float(rng.uniform(0.05, 1.5))
    bow = float(rng.uniform(0.0, 2.0))
    upper = f"({lower})+({gap!r})+({bow!r})*(x-({mid!r}))^2"
    return rv.NormalX(x0, x1, rv.curve(lower, "x"), rv.curve(upper, "x"))


def random_normal_y(rng):
    y0 = float(rng.uniform(-2.0, 2.0))
    y1 = y0 + float(rng.uniform(0.5, 2.0))
    left = poly_expr(rng.uniform(-1.0, 1.0, size=4), "y")
    mid = float(rng.uniform(y0, y1))
    gap = float(rng.uniform(0.05, 1.5))
    bow = float(rng.uniform(0.0, 2.0))
    right = f"({left})+({gap!r})+({bow!r})*(y-({mid!r}))^2"
    return rv.NormalY(y0, y1, rv.curve(left, "y"), rv.curve(right, "y"))


def random_convex_polygon(rng):
    """Convex CCW polygon: vertices on a circle at increasing angles."""
    k = int(rng.integers(3, 9))
    steps = rng.uniform(0.3, 1.0, size=k)
    angles = 2.0 * math.pi * np.cumsum(steps) / steps.sum()
    radius = float(rng.uniform(0.5, 2.0))
    cx, cy = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
    return rv.Polygon(tuple(
        rv.Point(cx + radius * math.cos(a), cy + radius * math.sin(a))
        for a in angles
    ))


def exterior_vertical_axis(rng, region):
    x_lo, x_hi, _, _ = rv.bounding_box(region)
    gap = float(rng.uniform(0.05, 2.0))
    if rng.uniform() < 0.5:
        return rv.Axis.vertical(x_lo - gap)
    return rv.Axis.vertical(x_hi + gap)


def exterior_horizontal_axis(rng, region):
    _, _, y_lo, y_hi = rv.bounding_box(region)
    gap = float(rng.uniform(0.05, 2.0))
    if rng.uniform() < 0.5:
        return rv.Axis.horizontal(y_lo - gap)
    return rv.Axis.horizontal(y_hi + gap)


def exterior_oblique_axis(rng, polygon):
    """Random-direction line kept clear of the polygon by a support offset."""
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    nx, ny = math.cos(phi), math.sin(phi)
    dots = [nx * v.x + ny * v.y for v in polygon.vertices]
    gap = float(rng.uniform(0.05, 2.0))
    if rng.uniform() < 0.5:
        return rv.Axis(nx, ny, gap - min(dots))  # region on the positive side
    return rv.Axis(nx, ny, -(max(dots) + gap))  # region on the negative side


# ---------------------------------------------------------------------------
# Rigid motions (for the invariance tests)

@dataclass(frozen=True)
class RigidMotion:
    """Rotation about the origin followed by a translation."""

    angle: float
    translation: tuple[float, float]


def apply_motion(m, p):
    c, s = math.cos(m.angle), math.sin(m.angle)
    return rv.Point(
        c * p.x - s * p.y + m.translation[0],
        s * p.x + c * p.y + m.translation[1],
    )


def apply_motion_axis(m, axis):
    # The normal rotates with the motion; the offset shifts by the moved
    # normal dotted with the translation.  Renormalization may flip sign.
    c, s = math.cos(m.angle), math.sin(m.angle)
    na = c * axis.a - s * axis.b
    nb = s * axis.a + c * axis.b
    nc = axis.c - (na * m.translation[0] + nb * m.translation[1])
    return rv.Axis(na, nb, nc)


def random_motion(rng):
    return RigidMotion(
        float(rng.uniform(0.0, 2.0 * math.pi)),
        (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))),
    )


def move_polygon(m, polygon):
    return rv.Polygon(tuple(apply_motion(m, v) for v in polygon.vertices))


# ---------------------------------------------------------------------------
# Parser conformance fixtures (shared with the acceptance suite).
# Every expected value is exact in double arithmetic.

PRECEDENCE_CASES = [
    ("2+3*4^2", 50.0),
    ("-2^2", -4.0),
    ("2^3^2", 512.0),
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("2*3+4", 10.0),
    ("100/5/2", 10.0),
    ("2-3-4", -5.0),
    ("8/2^2", 2.0),
    ("-2*-3", 6.0),
    ("--2", 2.0),
    ("-(1+2)", -3.0),
    ("2^-1", 0.5),
    ("4^0.5", 2.0),
    ("10-2^3", 2.0),
    ("(1+3)^2/8", 2.0),
    ("0.5*8", 4.0),
    ("pi*0", 0.0),
    ("e^0", 1.0),
    ("abs(-4)", 4.0),
    ("sqrt(16)", 4.0),
    ("cos(0)", 1.0),
    ("sin(0)*5+7", 7.0),
    ("1/4+3/4", 1.0),
]

MALFORMED_CASES = [
    ("x+", 2),
    ("", 0),
    ("(1+2", 4),
    ("1++2", 2),
    ("2x", 1),
    ("sqrt", 4),
    ("sin()", 4),
    (")", 0),
    ("1 + * 2", 4),
    ("1/", 2),
    ("foo(2)", 0),
    ("y", 0),
    ("1..2", 2),
    ("2*π", 2),
]


# Curves in x, n levels deep, as (make(n), position(n)): groups, calls,
# powers and minuses nest, up to expr._MAX_NESTING levels.  position(n) is
# the byte where the parser refuses the shape at n levels, past its bound:
# the token that opens the last level.
DEEP_SHAPES = {
    "groups": (lambda n: "(" * n + "x" + ")" * n, lambda n: n - 1),
    "calls": (lambda n: "sin(" * n + "x" + ")" * n, lambda n: 4 * n - 1),
    "powers": (lambda n: "^".join(["x"] * (n + 1)), lambda n: 2 * n - 1),
    "minuses": (lambda n: "-" * n + "x", lambda n: n - 1),
}


def chain(n: int) -> str:
    """A chain of n terms, ``1+x+...+x``: a tree n nodes high that nests
    nothing, so no length of it is refused."""
    return "1" + "+x" * (n - 1)


# ---------------------------------------------------------------------------
# Reference implementations: the tree-walking evaluators and the uncached
# side check that the compiled evaluators and the cached side check replace.

def ref_eval_node(node, x):
    """Scalar tree walk; raises DomainError like ``eval_expr``."""
    from revolve.errors import DomainError
    from revolve.expr import _FUNCTIONS, BinOp, Const, Neg, Var

    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -ref_eval_node(node.operand, x)
    if isinstance(node, BinOp):
        left = ref_eval_node(node.left, x)
        right = ref_eval_node(node.right, x)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            return math.pow(left, right)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"{node.op!r} failed on ({left!r}, {right!r})") from exc
    fn = _FUNCTIONS[node.func]
    arg = ref_eval_node(node.arg, x)
    try:
        return fn(arg)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{node.func}({arg!r}) is undefined") from exc


def ref_eval_expr(ast, value):
    from revolve.errors import DomainError

    result = ref_eval_node(ast.root, value)
    if not math.isfinite(result):
        raise DomainError(f"{ast.text!r} is not finite at {value!r}")
    return result


# numpy's function of each expression function, for the array tree walk.
_NP_FUNCTIONS = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "tan": np.tan,
                 "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
                 "exp": np.exp, "log": np.log, "abs": np.abs}


def ref_eval_node_array(node, xs):
    """Vectorized tree walk without masks: an intermediate inf or NaN is
    carried on, so a failure can vanish (1/(1/x) at 0 is 0)."""
    from revolve.expr import BinOp, Const, Neg, Var

    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return xs
    if isinstance(node, Neg):
        return -ref_eval_node_array(node.operand, xs)
    if isinstance(node, BinOp):
        left = ref_eval_node_array(node.left, xs)
        right = ref_eval_node_array(node.right, xs)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return np.divide(left, right)
        return np.power(left, right)
    return _NP_FUNCTIONS[node.func](ref_eval_node_array(node.arg, xs))


def ref_eval_array(ast, values):
    xs = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        out = np.asarray(ref_eval_node_array(ast.root, xs), dtype=np.float64)
        out = np.broadcast_to(out, xs.shape).copy()
        out[~np.isfinite(out)] = np.nan
    return out


# The inline operations of the reference compiler, where a table has none.
_REF_INLINE = {"+": (operator.add, "{} + {}"), "-": (operator.sub, "{} - {}"),
               "*": (operator.mul, "{} * {}"), "neg": (operator.neg, "-{}")}


def ref_helpers(table):
    """A compile table in the reference compiler's form: each operation as
    its (fold, template) pair, the template's fields the operands alone, or
    its (fold, helper) pair; the "const" lift as it is."""
    out = {}
    for op, entry in table.items():
        if op != "const":
            fold, template, helper = entry
            out[op] = (fold, template.format(None, "{}", "{}") if helper is None else helper)
        elif entry is not None:
            out[op] = entry
    return out


def ref_compile(root, helpers, fail=None, retry=None):
    """The expression compiler with its token maps, kept as the reference
    for ``expr._compile``: the function x -> value of ``root``, with ``/``, ``^``, the functions and any of
    ``_REF_INLINE`` taken from ``helpers``, where an entry is a helper or a
    (fold, template or helper) pair.  Its source goes through
    ``expr._code``, so a test can capture it."""
    from revolve import expr
    from revolve.errors import DomainError

    bound = {"__builtins__": {}}  # the function's globals
    held = {}    # token -> the constant or helper it stands for
    consts = set()  # the tokens that are constants
    named = {}   # token -> its bound name in the source
    lines = []
    height = 0   # how many of t0, t1, ... hold a value

    def bind(value):
        token = f"k{len(held)}"
        held[token] = value
        return token

    def name(arg):
        if arg not in held:
            return arg
        if arg not in named:
            named[arg] = f"b{len(named)}"
            bound[named[arg]] = held[arg]
        return named[arg]

    def apply(fold, code, args):
        nonlocal height
        if all(arg in consts for arg in args):
            try:
                token = bind(fold(*(held[arg] for arg in args)))
            except DomainError:
                pass
            else:
                consts.add(token)
                return token
        if not isinstance(code, str):
            code = name(bind(code)) + "(" + ", ".join(["{}"] * len(args)) + ")"
        top = height
        height -= sum(arg.startswith("t") for arg in args)
        lines.append(f"t{height} = " + code.format(*map(name, args)))
        lines.extend(f"del t{k}" for k in range(height + 1, top))
        height += 1
        return f"t{height - 1}"

    def op(name):
        entry = helpers[name] if name in helpers else _REF_INLINE[name]
        return entry if isinstance(entry, tuple) else (entry, entry)

    lift = helpers.get("const")

    def walk(node):
        if isinstance(node, expr.Const):
            value = node.value if lift is None else lift(node.value)
            token = bind(value)
            consts.add(token)
            return token
        if isinstance(node, expr.Var):
            return "x"
        if isinstance(node, expr.Neg):
            return apply(*op("neg"), [walk(node.operand)])
        if isinstance(node, expr.BinOp):
            return apply(*op(node.op), [walk(node.left), walk(node.right)])
        return apply(*op(node.func), [walk(node.arg)])

    result = walk(root)
    checked = fail is not None or retry is not None
    if result in consts and (not checked or math.isfinite(held[result])):
        value = held[result]
        return lambda x: value
    result = name(result)
    body = ["try:", *("    " + line for line in lines),
            f"    if isfinite({result}): return {result}"]
    if fail is not None:
        bound.update(isfinite=math.isfinite, fail=fail, OverflowError=OverflowError)
        lines = [*body, "except OverflowError as exc: raise fail(x) from exc", "raise fail(x)"]
    elif retry is not None:
        bound.update(isfinite=math.isfinite, retry=retry, errors=expr._BINOP_ERRORS)
        lines = [*body, "except errors: pass", "return retry(x)"]
    else:
        lines.append(f"return {result}")
    exec(expr._code("def evaluate(x):\n" + "".join(f"    {line}\n" for line in lines)), bound)
    return bound["evaluate"]


def ref_boundary_points(region):
    """The side check's boundary cloud, drawn afresh: a polygon's vertices;
    for any other leaf, its near and far curves at 1025 points of the outer
    interval carried to the plane, skipping points where a curve is NaN."""
    from revolve.region import POLAR, SWAP

    if isinstance(region, rv.UnionRegion):
        return [p for part in region.parts for p in ref_boundary_points(part)]
    if isinstance(region, rv.Polygon):
        return list(region.vertices)
    u0, u1, near, far = region.span
    cmap = region.map
    us = np.linspace(u0, u1, 1025)
    points = []
    for c in (near, far):
        vs = rv.eval_array(c, us)
        if cmap == POLAR:  # numpy's cos and sin, which may differ from math's in the last bit
            xs, ys = vs * np.cos(us), vs * np.sin(us)
        else:
            xs, ys = (vs, us) if cmap == SWAP else (us, vs)
        points.extend(rv.Point(float(x), float(y)) for x, y, v in zip(xs, ys, vs)
                      if not math.isnan(v))
    return points


def ref_axis_side_check(region, axis):
    """The side check with its samples drawn afresh on every call."""
    samples = [rv.signed_distance(axis, p) for p in ref_boundary_points(region)]
    if not samples:
        raise rv.InvalidRegionError("region produced no sample points")
    d_min, d_max = min(samples), max(samples)
    if d_min >= -1e-9:
        return 1
    if d_max <= 1e-9:
        return -1
    raise rv.AxisIntersectsRegion(
        f"axis meets the region: signed distances span [{d_min!r}, {d_max!r}]"
    )


# ---------------------------------------------------------------------------
# Quadrature pins: a seeded corpus of job documents and the results pinned
# for each (tests/quadrature_pins.json)

QUADRATURE_ROUTES = ("double_integral", "disk", "shell", "polar", "pappus")

# Seed of the pinned corpus.
QUADRATURE_PIN_SEED = 20261018


def _disk_doc(rng, kind):
    """A disk between two sqrt arcs, steep at its ends: panels crowd there."""
    u, v = ("x", "y") if kind == "normal_x" else ("y", "x")
    # Dyadic centre and radius: the ends, and r^2, are exact.
    cu, cv = (int(k) / 16.0 for k in rng.integers(-32, 33, size=2))
    r = int(rng.integers(5, 25)) / 16.0
    arc = f"sqrt({r * r!r}-({u}-({cu!r}))^2)"
    near, far = ("lower", "upper") if kind == "normal_x" else ("left", "right")
    return {"type": kind, f"{u}_min": repr(cu - r), f"{u}_max": repr(cu + r),
            near: f"({cv!r})-{arc}", far: f"({cv!r})+{arc}"}


def _poly_doc(rng, kind, shift=0.0):
    """A band between a cubic and the cubic plus a positive quadratic."""
    u = "x" if kind == "normal_x" else "y"
    lo = float(rng.uniform(-2, 1)) + shift
    hi = lo + float(rng.uniform(0.5, 2.0))
    near = poly_expr(rng.uniform(-1.0, 1.0, size=4), u)
    mid, gap, bow = (float(v) for v in (rng.uniform(lo, hi), rng.uniform(0.05, 1.5),
                                        rng.uniform(0.0, 2.0)))
    far = f"({near})+({gap!r})+({bow!r})*({u}-({mid!r}))^2"
    names = ("lower", "upper") if kind == "normal_x" else ("left", "right")
    return {"type": kind, f"{u}_min": repr(lo), f"{u}_max": repr(hi),
            names[0]: near, names[1]: far}


def _polar_doc(rng):
    t0 = float(rng.uniform(-3.0, 2.0))
    t1 = t0 + float(rng.uniform(0.5, 3.0))
    inner = float(rng.uniform(0.0, 0.8))
    outer = inner + float(rng.uniform(0.3, 1.2))
    wave = float(rng.uniform(0.0, 0.25)) * (outer - inner)
    k = int(rng.integers(1, 5))
    return {"type": "polar", "theta_min": repr(t0), "theta_max": repr(t1),
            "rho_min": repr(inner), "rho_max": f"{outer!r}+{wave!r}*cos({k}*theta)"}


def _polygon_doc(rng, shift=0.0):
    poly = random_convex_polygon(rng)
    return {"type": "polygon", "vertices": [[repr(v.x + shift), repr(v.y)] for v in poly.vertices]}


def _exterior_axis_doc(rng, region, orientation):
    """An axis clear of the region's bounding box by a random gap."""
    x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
    gap = float(rng.uniform(0.05, 2.0))
    below = rng.uniform() < 0.5
    if orientation == "vertical":
        return {"vertical_at": repr(x_lo - gap if below else x_hi + gap)}
    if orientation == "horizontal":
        return {"horizontal_at": repr(y_lo - gap if below else y_hi + gap)}
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    nx, ny = math.cos(phi), math.sin(phi)
    dots = [nx * x + ny * y for x in (x_lo, x_hi) for y in (y_lo, y_hi)]
    c = gap - min(dots) if below else -(max(dots) + gap)
    return {"a": repr(nx), "b": repr(ny), "c": repr(c)}


def quadrature_pin_cases(seed=QUADRATURE_PIN_SEED):
    """(id, job document) pairs: two regions of each of the five variants
    (sqrt disks and polynomial bands, polar sectors, convex polygons, unions
    of a band and a polygon), each about a vertical, a horizontal and an
    oblique exterior axis."""
    from revolve.config import parse_job

    rng = np.random.default_rng(seed)
    regions = [
        ("normal_x", _disk_doc(rng, "normal_x")), ("normal_x", _poly_doc(rng, "normal_x")),
        ("normal_y", _disk_doc(rng, "normal_y")), ("normal_y", _poly_doc(rng, "normal_y")),
        ("polar", _polar_doc(rng)), ("polar", _polar_doc(rng)),
        ("polygon", _polygon_doc(rng)), ("polygon", _polygon_doc(rng)),
    ]
    for _ in range(2):
        regions.append(("union", {"type": "union", "parts": [
            _poly_doc(rng, "normal_x", shift=-4.0), _polygon_doc(rng, shift=4.0)]}))
    cases = []
    for i, (kind, region_doc) in enumerate(regions):
        region = parse_job({"region": region_doc, "axis": "OY"}).region
        for orientation in ("vertical", "horizontal", "oblique"):
            doc = {"region": region_doc, "axis": _exterior_axis_doc(rng, region, orientation)}
            cases.append((f"{i}-{kind}-{orientation}", doc))
    return cases


def quadrature_pin(job, routes=QUADRATURE_ROUTES):
    """What the quadrature pins hold for a job: for each route of
    QUADRATURE_ROUTES, run in the order of ``routes``, [repr(value),
    repr(error estimate), evaluations] or the name of the error it raised;
    and the centroid with its moment pass.  The cached distance pass is
    cleared first, so the routes that read it read the pass of this job."""
    from revolve.methods import _distance_pass, _region_moments, run_route

    _distance_pass.cache_clear()
    pin = {}
    for name in routes:
        try:
            r = run_route(name, job.region, job.axis, job.tolerance)
        except rv.RevolveError as exc:
            pin[name] = type(exc).__name__
        else:
            pin[name] = [repr(r.value), repr(r.error_estimate), r.evaluations]
    try:
        c = rv.centroid(job.region, job.tolerance)
    except rv.RevolveError as exc:
        pin["centroid"] = type(exc).__name__
    else:
        m = _region_moments(job.region, job.tolerance)
        pin["centroid"] = [repr(c.centroid.x), repr(c.centroid.y), repr(c.area),
                           repr(m.value), repr(m.error_estimate), m.evaluations]
    return pin


# ---------------------------------------------------------------------------
# Reference quadrature: the per-node guarded Gauss-Kronrod pass that
# integrate_1d's one-pass-per-panel kernel replaces, with its heap loop.

def _ref_rule(half, samples):
    from revolve.quadrature import _ROUNDOFF, _WG, _WG_CENTER, _WGK, _WGK_CENTER

    fc = samples[0]
    lows = samples[1::2]
    highs = samples[2::2]
    resk = _WGK_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    for w, f1, f2 in zip(_WGK, lows, highs):
        resk += w * (f1 + f2)
        resabs += w * (abs(f1) + abs(f2))
    resg = _WG_CENTER * fc
    for w, f1, f2 in zip(_WG, lows[1::2], highs[1::2]):
        resg += w * (f1 + f2)
    err = abs(half * (resk - resg))
    return half * resk, max(err, _ROUNDOFF * abs(half) * resabs), abs(half) * resabs


def _ref_gk15(f, a, b):
    from revolve.quadrature import _XGK

    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    samples = [f(center)]
    for x in _XGK:
        dx = half * x
        samples.append(f(center - dx))
        samples.append(f(center + dx))
    if type(samples[0]) is not tuple:
        v, e, m = _ref_rule(half, samples)
        return (v,), (e,), (m,), False
    rules = [_ref_rule(half, component) for component in zip(*samples)]
    return (tuple(r[0] for r in rules), tuple(r[1] for r in rules),
            tuple(r[2] for r in rules), True)


def _ref_domain_guard(f, lo, hi, counter):
    from revolve.errors import DomainError, IntegrandError

    span = hi - lo
    edge = 1e-9 * span
    nudge = 1e-12 * span

    def attempt(x):
        counter[0] += 1
        try:
            y = f(x)
        except (DomainError, ValueError, ZeroDivisionError, OverflowError):
            return None
        if type(y) is tuple:
            return y if all(map(math.isfinite, y)) else None
        return y if math.isfinite(y) else None

    def guarded(x):
        y = attempt(x)
        if y is not None:
            return y
        if abs(x - lo) <= edge:
            y = attempt(x + nudge)
        elif abs(hi - x) <= edge:
            y = attempt(x - nudge)
        if y is None:
            raise IntegrandError(f"integrand undefined at {x!r} inside [{lo!r}, {hi!r}]")
        return y

    return guarded


def ref_integrate_1d(f, lo, hi, tol=None):
    """``integrate_1d`` with every node guarded on its own."""
    import heapq

    from revolve.errors import QuadratureNoConvergence
    from revolve.quadrature import _MAX_SUBDIVISIONS

    def fsum_components(values):
        if values and type(values[0]) is tuple:
            return tuple(math.fsum(component) for component in zip(*values))
        return math.fsum(values)

    def shown(components):
        return components[0] if len(components) == 1 else components

    tol = tol or rv.Tolerance()
    counter = [0]
    wf = _ref_domain_guard(f, lo, hi, counter)
    value, err, mass, vector = _ref_gk15(wf, lo, hi)
    scale = tuple(max(tol.abs, tol.rel * m) for m in mass) if vector else (1.0,)

    def priority(e):
        return max(ek / sk for ek, sk in zip(e, scale))

    heap = [(-priority(err), 0, lo, hi, value, err, mass, 0)]
    seq = 1
    total_value, total_err, total_mass = value, err, mass
    splits = 0
    while True:
        if vector:
            budget = tuple(max(tol.abs, tol.rel * m) for m in total_mass)
        else:
            budget = (max(tol.abs, tol.rel * abs(total_value[0])),)
        if all(e <= b for e, b in zip(total_err, budget)):
            break
        _, _, a, b, v0, e0, m0, depth = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if depth >= tol.max_depth or not a < mid < b:
            raise QuadratureNoConvergence(
                f"error estimate {shown(total_err)!r} above tolerance {shown(budget)!r} "
                f"after depth {depth} near [{a!r}, {b!r}]"
            )
        v1, e1, m1, _ = _ref_gk15(wf, a, mid)
        v2, e2, m2, _ = _ref_gk15(wf, mid, b)
        total_value = tuple(t + ((x + y) - z) for t, x, y, z in zip(total_value, v1, v2, v0))
        total_err = tuple(t + ((x + y) - z) for t, x, y, z in zip(total_err, e1, e2, e0))
        total_mass = tuple(t + ((x + y) - z) for t, x, y, z in zip(total_mass, m1, m2, m0))
        heapq.heappush(heap, (-priority(e1), seq, a, mid, v1, e1, m1, depth + 1))
        heapq.heappush(heap, (-priority(e2), seq + 1, mid, b, v2, e2, m2, depth + 1))
        seq += 2
        splits += 1
        if splits > _MAX_SUBDIVISIONS:
            raise QuadratureNoConvergence(
                f"exceeded {_MAX_SUBDIVISIONS} subdivisions with error {shown(total_err)!r}"
            )
    segments = sorted((item[2], item[4], item[5]) for item in heap)
    value = fsum_components([s[1] for s in segments])
    err = fsum_components([s[2] for s in segments])
    if vector:
        return rv.QuadratureResult(value, err, counter[0])
    return rv.QuadratureResult(value[0], err[0], counter[0])


# ---------------------------------------------------------------------------
# Reference distance form: the per-map closed form that the piece
# integrand's linear form of the kept moment sections replaces.

def ref_linear_form(cmap, scale, a, b, c):
    """g(u, near, far) = scale * (a*Sx + b*Sy + c*A) of the section of a
    piece with map ``cmap``, per map: a normal piece's repeats the
    operations of its moment section in place, a polar piece's reads its
    moment section."""
    from revolve.quadrature import _polar_section
    from revolve.region import POLAR, SWAP

    if cmap == POLAR:

        def polar_form(u, r, big):
            m1, mx, my = _polar_section(u, r, big)
            return scale * (a * mx + b * my + c * m1)

        return polar_form

    # The coefficients of u * width and of the inner moment; a SWAP
    # piece's outer coordinate is y.
    p, q = (b, a) if cmap == SWAP else (a, b)
    empty = scale * (a * 0.0 + b * 0.0 + c * 0.0)

    def form(u, lo, hi):
        if not hi > lo:
            return empty
        width = hi - lo
        return scale * (p * (u * width) + q * (0.5 * width * (hi + lo)) + c * width)

    return form


def ref_piece_integrand(piece, coefficients=None):
    """u -> the piece's section (``coefficients`` None) or ``ref_linear_form``
    of (scale, a, b, c), at u between near(u) and far(u), evaluated afresh."""
    from revolve.quadrature import _SECTIONS

    g = _SECTIONS[piece.map] if coefficients is None else ref_linear_form(piece.map, *coefficients)
    near, far = piece.near, piece.far
    return lambda u: g(u, near(u), far(u))


# ---------------------------------------------------------------------------
# Reference Monte Carlo: the chunk loop that volume_monte_carlo's reused
# buffers replace, with its raw-stream uniforms and its select.

def ref_monte_carlo(region, axis, cfg):
    """``volume_monte_carlo`` with fresh arrays per chunk: uniforms
    (raw >> 11) * 2^-53 of the raw Philox stream, and outside points zeroed
    by ``np.where``.  No side check."""
    from revolve.methods import _CHUNK
    from revolve.region import TWO_PI

    x_lo, x_hi, y_lo, y_hi = rv.bounding_box(region)
    width, height = x_hi - x_lo, y_hi - y_lo
    box_area = width * height
    bit_generator = np.random.Philox(key=cfg.seed)
    n, mean, m2 = 0, 0.0, 0.0
    for start in range(0, cfg.samples, _CHUNK):
        m = min(_CHUNK, cfg.samples - start)
        raw = bit_generator.random_raw(2 * m)
        u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        xs = x_lo + width * u[0::2]
        ys = y_lo + height * u[1::2]
        inside = rv.contains_mask(region, xs, ys)
        vals = np.where(inside, TWO_PI * np.abs(axis.a * xs + axis.b * ys + axis.c), 0.0)
        chunk_mean = float(vals.mean())
        vals -= chunk_mean
        chunk_m2 = float(np.square(vals, out=vals).sum())
        total = n + m
        delta = chunk_mean - mean
        mean += delta * m / total
        m2 += chunk_m2 + delta * delta * n * m / total
        n = total
    value = box_area * mean
    stderr = box_area * math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return rv.QuadratureResult(value, stderr, n)


# ---------------------------------------------------------------------------
# Reference cell lookup: the full-length construction that the sliced one
# in region._cell_codes replaces.

def ref_cell_index(grid, xs, ys):
    """The cell of each point in the border-padded grid: (y - y0) * sy and
    (x - x0) * sx, each clamped to [0, _GRID + 1] over the whole array
    (NaN to 0) where any lies off the grid, truncated, and joined as
    row * (_GRID + 2) + column."""
    from revolve.region import _GRID

    def axis_index(values, origin, scale):
        t = (np.asarray(values, dtype=np.float64) - origin) * scale
        if not (0.0 <= t.min() and t.max() <= _GRID + 1):
            t = np.fmin(np.fmax(t, 0.0), _GRID + 1)
        return t.astype(np.int32)

    return axis_index(ys, grid.y0, grid.sy) * (_GRID + 2) + axis_index(xs, grid.x0, grid.sx)


# ---------------------------------------------------------------------------
# Reference polygon checks: the all-pairs simplicity test and the per-cut
# edge scan that region._is_simple and region._slabs replace.

def ref_is_simple(verts):
    """No two edges meet, except neighbours at their shared vertex, nor
    fold back along each other: every pair of edges tested."""
    from revolve.region import _orient, _segments_meet

    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i, (a, b) in enumerate(edges):
        c = edges[(i + 1) % n][1]
        forward = (b.x - a.x) * (c.x - b.x) + (b.y - a.y) * (c.y - b.y)
        if _orient(a, b, c) == 0.0 and forward < 0.0:
            return False
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # the closing edge is edge 0's other neighbour
            if _segments_meet(a, b, *edges[j]):
                return False
    return True


def ref_slabs(verts):
    """The x-slabs (x_lo, x_hi, lower_fn, upper_fn) of a simple polygon:
    at each pair of neighbouring vertex abscissas, every edge is scanned,
    and those covering the slab are sorted by their value at its middle."""
    from revolve.region import _edge_interp

    n = len(verts)
    cuts = sorted({v.x for v in verts})
    slabs = []
    for xa, xb in zip(cuts, cuts[1:]):
        mid = 0.5 * (xa + xb)
        covering = []
        for i in range(n):
            p, q = verts[i], verts[(i + 1) % n]
            if p.x == q.x:
                continue
            if min(p.x, q.x) <= xa and max(p.x, q.x) >= xb:
                covering.append((_edge_interp(p, q)(mid), p, q))
        covering.sort(key=lambda item: item[0])
        if len(covering) % 2:
            raise rv.InvalidRegionError(f"polygon slab [{xa!r}, {xb!r}] has an odd edge count")
        for j in range(0, len(covering), 2):
            slabs.append((xa, xb, _edge_interp(covering[j][1], covering[j][2]),
                          _edge_interp(covering[j + 1][1], covering[j + 1][2])))
    return slabs


def random_polygon_vertices(rng):
    """3 to 12 vertices: on a 5 x 5 integer grid one time in three, which
    makes collinear, touching and folded edges common, else uniform in the
    square [-1, 1]^2; half the time in order of their angle about their
    mean, which makes most of them simple, else in random order."""
    n = rng.randint(3, 12)
    if rng.random() < 1.0 / 3.0:
        points = [(float(rng.randint(0, 4)), float(rng.randint(0, 4))) for _ in range(n)]
    else:
        points = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
    if rng.random() < 0.5:
        mx, my = sum(x for x, _ in points) / n, sum(y for _, y in points) / n
        points.sort(key=lambda p: math.atan2(p[1] - my, p[0] - mx))
    return tuple(rv.Point(x, y) for x, y in points)


def regular_polygon(n, radius=1.0, centre=(0.0, 0.0)):
    """The regular n-gon inscribed in the circle of ``radius`` about
    ``centre``, counterclockwise from angle 0."""
    return rv.Polygon(tuple(
        rv.Point(centre[0] + radius * math.cos(2.0 * math.pi * k / n),
                 centre[1] + radius * math.sin(2.0 * math.pi * k / n)) for k in range(n)))


# ---------------------------------------------------------------------------
# Named defects with closed-form volumes: normal_x regions on [0, 1] with
# lower 0, revolved about x = -1, whose upper curve has a feature narrower
# than the points a check or a panel samples.

DEFECT_AXIS = rv.Axis.vertical(-1.0)
SPIKE = "1 + 3*exp(-((x-0.50048828125)/0.0002)^2)"
OSCILLATION = "1 + 0.5*sin(1537*pi*x)^64"
DIP = "1 - 2*exp(-((x-0.5001)/0.0001)^2)"


def defect_region(upper):
    return rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve(upper, "x"))


def bump_volume(h, c, s):
    """The volume of the region under 1 + h*exp(-((x-c)/s)^2) about x = -1:
    2*pi times the integral over [0, 1] of (x + 1) times the curve, from
    the Gaussian's integral (erf) and its first moment about c (exp)."""
    gauss = 0.5 * s * math.sqrt(math.pi) * (math.erf((1.0 - c) / s) + math.erf(c / s))
    moment = 0.5 * s * s * (math.exp(-(c / s) ** 2) - math.exp(-((1.0 - c) / s) ** 2))
    return 2.0 * math.pi * (1.5 + h * ((c + 1.0) * gauss + moment))


def bump_corpus(seed, n=200):
    """The seeded bump corpus: n curves 1 + h*exp(-((x-c)/s)^2) for
    ``defect_region``, each as (text, bump_volume).  ``random.Random(seed)``
    draws s = 10^U(-5, -2), then h = U(0.1, 3), then c = U(0.05, 0.95)."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(n):
        s = 10.0 ** rng.uniform(-5.0, -2.0)
        h = rng.uniform(0.1, 3.0)
        c = rng.uniform(0.05, 0.95)
        corpus.append((f"1 + {h!r}*exp(-((x-{c!r})/{s!r})^2)", bump_volume(h, c, s)))
    return corpus


def oscillation_volume():
    """The volume of the region under OSCILLATION about x = -1:
    3*pi*(1 + C(64,32)/2^65), as [0, 1] holds 1537 whole periods, over
    each of which sin^64 averages C(64,32)/2^64."""
    return 3.0 * math.pi * (1.0 + math.comb(64, 32) / 2.0**65)


def confidently_wrong(value, estimate, reference, rel):
    """A volume off its reference by more than ten times its own error
    estimate and more than ten times the requested relative tolerance."""
    return abs(value - reference) > max(10.0 * estimate, 10.0 * rel * abs(reference))


def overflowing_union_doc():
    """A job document whose volume is beyond float range while its area and
    moments are not: three normal_x leaves of height 4.7e153 on [0, 1],
    [2, 3] and [4, 5], about the x axis.  Each leaf's distance pass is
    finite, and their sum, like 2*pi*|d|*A, overflows."""
    leaf = {"type": "normal_x", "lower": "0", "upper": "4.7e153"}
    return {"region": {"type": "union", "parts": [{**leaf, "x_min": x, "x_max": x + 1}
                                                  for x in (0, 2, 4)]},
            "axis": "OX"}
