"""Single-variable expression parsing and evaluation.

Boundary curves are given as strings like ``"sqrt(1-x^2)"`` and parsed into
immutable ASTs.  Grammar (loosest to tightest binding):

    sum     := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

so ``^`` is right-associative and binds tighter than unary minus
(``-2^2 == -4``, ``2^3^2 == 512``).  There is no implicit multiplication.
Identifiers must be the declared variable, a known function (sqrt, sin, cos,
tan, asin, acos, atan, exp, log, abs) or a known constant (pi, e; lowercase).
Nesting is bounded, so that neither the parser nor the compiler's walk can
recurse past the interpreter's limit: a group's or call's '(', unary '-' and
the exponent of '^' each open a level, at most 100 deep.  Past the bound the
parse is an ExprSyntaxError at the token that crossed it.  A chain of terms
or factors of any length is fine: the parser reads it in a loop, and the
compiler's walk follows its left operands in a loop, recursing only into
right operands, which nest.  A node's ``==``, ``hash`` and ``repr`` are the
record's, and follow a chain in a loop too.

Evaluation is pure.  Any operation that leaves the real domain (sqrt of a
negative, log of a non-positive, division by zero) raises DomainError, and a
non-finite result (NaN or +/-Inf, e.g. from overflow) is normalized to
DomainError as well, so quadrature can treat all failures uniformly.

An ``ExprAst`` is the record (text, variable): it compares, hashes and
prints by them, never by walking a tree.  Its AST (``root``) and its
evaluators are derived, not fields.  The text is parsed when the ExprAst
is built, and each evaluator is compiled into a straight-line Python
function (see Compilation below) in one walk of the AST, with one table of
operations each: the scalar evaluator when the ExprAst is built
(``parse_expr`` is a bounded cache by text and variable), the array and
interval evaluators on first use.  The generated source holds no constant,
so expressions of one shape share one compiled code object, each with its
own constants bound.
``parse_scalar`` takes a finite number literal, or its negation, as its
float, unparsed.  Only the array evaluators need numpy, and they import it
then.  The scalar evaluator calls math inline; where it fails, it hands
over to a checked twin, compiled on the first failure, whose DomainError
names the failing operation.

Array evaluation is NaN exactly where scalar evaluation raises: its helpers
return NaN for a zero divisor and for a non-finite result from finite
operands, and ``^`` keeps a NaN operand NaN (``nan^0`` would be 1).  The
exceptions lie past an infinity that the scalar path carries on without
raising (an overflow of + - or *, as in ``1e308*10``, or a literal like
``1e999``): from there the two may part, as at ``(0-1e999)^0.5``, which is
inf for ``math.pow`` and NaN for numpy.

Interval evaluation maps an interval (lo, hi) of the variable to an
enclosure: an interval that holds the scalar value at every point of
(lo, hi) where the scalar evaluator returns (Moore, Kearfott and Cloud,
*Introduction to Interval Analysis*, SIAM 2009).  Its helpers round
outward with ``math.nextafter`` and clip operands to a function's domain,
so points where the curve is undefined add nothing; a result they cannot
bound (a pole, a divisor interval that holds 0, an overflow) is
(-inf, inf).  Past an infinity or a NaN, as above, the enclosure holds no
promise.  The defined-only enclosure is the same, but None wherever the
helpers would clip an operand or give an unbounded result, so a finite one
also certifies that the expression is defined on the whole interval.
The array interval evaluators do the same for many intervals per call, by
array twins of the same helpers (``revolve._intervals``, imported on first
use).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Callable

from ._record import record
from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = ["ExprAst", "parse_expr", "parse_scalar", "eval_expr", "eval_array"]

_FUNCTIONS = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "exp": math.exp,
    "log": math.log,
    "abs": abs,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# Distinct (text, variable) pairs that parse_expr keeps parsed and compiled;
# the number literals that parse_scalar takes as they are do not use it.
_PARSE_CACHE_SIZE = 256

# Distinct generated sources that _compile keeps compiled to code objects.
_CODE_CACHE_SIZE = 1024

# Levels of nesting the parser takes: each group or call's '(', unary '-'
# and '^' opens one, and one level costs the parser up to six frames.
_MAX_NESTING = 100


# ---------------------------------------------------------------------------
# AST nodes

@record
class Const:
    value: float


@record
class Var:
    name: str


@record
class Neg:
    operand: "Node"


@record
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"

    # The record's ==, hash and repr, with the chain of left operands (a sum,
    # a product) followed in a loop, as _compile's walk does: _chain gives
    # its foot, the first left operand that is not a BinOp, and each link's
    # (op, right) from self down.

    def _chain(self) -> tuple["Node", list]:
        links, node = [], self
        while type(node) is BinOp:
            links.append((node.op, node.right))
            node = node.left
        return node, links

    def __eq__(self, other):
        if other.__class__ is not BinOp:
            return NotImplemented
        return self is other or self._chain() == other._chain()

    def __hash__(self):
        node, links = self._chain()
        h = hash(node)
        for op, right in reversed(links):
            h = hash((op, _Hashed(h), right))
        return h

    def __repr__(self):
        node, links = self._chain()
        return "".join([*(f"BinOp(op={op!r}, left=" for op, _ in links), repr(node),
                        *(f", right={right!r})" for _, right in reversed(links))])


class _Hashed(int):
    """A value's hash, standing for the value in a tuple being hashed: the
    hash of _Hashed(h) is h for every h that ``hash`` returns."""

    __hash__ = int.__index__


@record
class Call:
    func: str
    arg: "Node"


Node = Const | Var | Neg | BinOp | Call


@record
class ExprAst:
    """Immutable parsed expression in (at most) one variable, with its
    compiled evaluators: ``scalar`` is ``eval_expr``'s, ``array`` is
    ``eval_array``'s and ``interval`` maps an interval (lo, hi) of the
    variable to an enclosure of the values there; ``intervals`` does so for
    arrays of intervals.  The value is (text, variable): ``root``, the
    parsed text, and ``scalar`` are set at construction, the other
    evaluators on first use, as are the defined-only ``defined_interval``
    and ``defined_intervals``, and none of them is a field."""

    text: str
    variable: str | None

    def __post_init__(self):
        if self.variable is not None:
            if not _IDENT_RE.fullmatch(self.variable):
                raise ValueError(f"invalid variable name {self.variable!r}")
            if self.variable in _FUNCTIONS or self.variable in _CONSTANTS:
                raise ValueError(f"variable name {self.variable!r} shadows a builtin")
        if not self.text:
            raise ExprSyntaxError("empty expression", 0)
        # Plain attributes: eval_expr reads them faster than a cached_property.
        root = _Parser(self.text, self.variable).parse()
        checked = _compiled_on_first_call(
            root, functools.partial(_not_finite, self.text, self.variable))
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "scalar", _compile(root, _INLINE_SCALAR, retry=checked))

    def __call__(self, value: float) -> float:
        """``eval_expr(self, value)``."""
        return self.scalar(value)

    @functools.cached_property
    def array(self) -> Callable:
        import numpy as np

        with np.errstate(all="ignore"):  # folding a constant may divide by zero
            return _compile(self.root, _array_helpers())

    @functools.cached_property
    def interval(self) -> Callable[[tuple[float, float]], tuple[float, float]]:
        return _compile(self.root, _INTERVAL_TABLE)

    @functools.cached_property
    def defined_interval(self) -> Callable[[tuple[float, float]], tuple[float, float] | None]:
        """``interval``, but None where that would clip an operand to a
        function's domain or not be finite: a result certifies that the
        expression is defined, and finite, on the whole interval."""
        return _compile(self.root, _DEFINED_TABLE)

    @functools.cached_property
    def intervals(self) -> Callable:
        """``interval`` over many boxes per call: (lo, hi), two arrays, to
        the enclosures over each box, two arrays of their shape."""
        return _array_intervals(self.root, False)

    @functools.cached_property
    def defined_intervals(self) -> Callable:
        """``intervals`` and where ``defined_interval`` would certify each
        box: (lo, hi) to (lo, hi, defined), ``defined`` a bool array, False
        exactly where ``defined_interval`` gives None.  Where it is True,
        (lo, hi) is the defined-only enclosure."""
        return _array_intervals(self.root, True)

    def __reduce__(self):
        # Generated functions do not pickle; a copy is parsed again.
        return parse_expr, (self.text, self.variable)


# ---------------------------------------------------------------------------
# Tokenizer

# A token is a tuple (kind, text, pos): kind is "num", "ident", "op" or
# "end", and pos the character offset into the source.
_Token = tuple[str, str, int]

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^])"
)


def _byte_pos(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {text[i]!r}", _byte_pos(text, i)
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, variable: str | None):
        self.text = text
        self.variable = variable
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # levels of nesting open

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str, tok: _Token):
        kind, text, pos = tok
        found = "end of input" if kind == "end" else repr(text)
        raise ExprSyntaxError(
            f"expected {expected}, found {found}", _byte_pos(self.text, pos)
        )

    def nested(self, parse: Callable[[], Node]) -> Node:
        """``parse()``, one level deeper than the token just read."""
        if self.depth == _MAX_NESTING:
            pos = self.tokens[self.i - 1][2]
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING} levels",
                                  _byte_pos(self.text, pos))
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expect_op(self, op: str):
        tok = self.peek()
        if tok[:2] == ("op", op):
            return self.advance()
        self.fail(f"'{op}'", tok)

    def parse(self) -> Node:
        node = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            self.fail("end of input", tok)
        return node

    def sum(self) -> Node:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.nested(self.unary))
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            node = BinOp("^", node, self.nested(self.unary))
        return node

    def atom(self) -> Node:
        tok = self.peek()
        kind, name, pos = tok
        if kind == "num":
            self.advance()
            return Const(float(name))
        if tok[:2] == ("op", "("):
            self.advance()
            node = self.nested(self.sum)
            self.expect_op(")")
            return node
        if kind == "ident":
            self.advance()
            if name in _FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.sum)
                self.expect_op(")")
                return Call(name, arg)
            if name == self.variable:
                return Var(name)
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            raise UnknownIdentifierError(name, _byte_pos(self.text, pos))
        self.fail("a value", tok)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_expr(text: str, variable: str | None) -> ExprAst:
    """``ExprAst(text, variable)``, cached: an expression in the single
    variable ``variable``, parsed with its scalar evaluator compiled.

    ``variable=None`` parses a constant expression (no variable allowed).
    Raises ExprSyntaxError or UnknownIdentifierError with a byte position,
    ValueError for a bad variable name.  An ExprAst is the value (text,
    variable), so parsing the same text again returns the same object.
    """
    return ExprAst(text, variable)


def parse_scalar(text) -> float:
    """Evaluate a constant expression string (or pass a number through);
    raises DomainError unless the value is a finite float."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        try:
            value = float(text)
        except OverflowError as exc:
            raise DomainError("integer beyond float range") from exc
        if not math.isfinite(value):
            raise DomainError(f"non-finite scalar {text!r}")
        return value
    text = str(text)
    # One number token, or its negation: the compiler folds it to its float.
    literal = _TOKEN_RE.fullmatch(text, 1 if text[:1] == "-" else 0)
    if literal and literal.lastgroup == "num" and math.isfinite(value := float(text)):
        return value
    # A constant folds while it is compiled; its function checks the value.
    return parse_expr(text, None)(0.0)


# ---------------------------------------------------------------------------
# Compilation
#
# An expression is evaluated by one straight-line function generated from
# its AST in one left-to-right, depth-first walk: one assignment per
# operation.  An operand is x, an intermediate result in a stack of names
# t0, t1, ... (an operation replaces its operands, so each is released once
# used, as in a tree walk, which matters for large arrays) or a constant
# held as its value.  A table, normalised once where it is defined
# (``_table``), gives each operation as (fold, template, helper): a node
# whose operands are all constants is computed while compiling with
# ``fold``, unless that fails, and any other is written as ``template``,
# which may call ``helper`` (+ - * and negation are inline unless the table
# has its own).  The table's "const", if any, turns each constant into a
# value of its kind (an interval).  Constants and helpers are never written
# into the source: each is bound (in the function's globals) to a name b0,
# b1, ... where the source first writes it.  So the source depends only on
# the shape of the AST once constants are folded (``-0.5 - 0.5*x`` is
# ``0.75 - 0.5*x``) and on the table, never on a constant's value or the
# expression's text: it is compiled once per distinct source (``_code``, a
# bounded cache), and each expression executes that code object into its
# own globals.
#
# The scalar evaluator is two functions.  The one eval_expr calls divides
# and calls math.pow and the math functions inline; where an operation
# raises or the value is not finite, it returns what the checked one does.
# That one calls the helpers below, which name the failing operation in a
# DomainError, and ends in eval_expr's check; it is compiled on the first
# failure, so a curve that never fails has one function.  Both do the same
# operations in the same order, so their values are the same.

_INLINE = {"+": (operator.add, "{1} + {2}"), "-": (operator.sub, "{1} - {2}"),
           "*": (operator.mul, "{1} * {2}"), "neg": (operator.neg, "-{1}")}


def _table(helpers: dict) -> dict:
    """The table ``_compile`` reads: each operation of ``helpers`` (a helper,
    which also folds, or a pair (fold, template or helper)) or else of
    ``_INLINE`` as (fold, template, helper), where the template's field 0 is
    the helper, 1 and 2 the operands; "const" lifts a constant, or is None."""
    table = {"const": helpers.get("const")}
    for op, entry in {**_INLINE, **helpers}.items():
        if op != "const":
            fold, code = entry if type(entry) is tuple else (entry, entry)
            call = "{0}({1}, {2})" if op in "+-*/^" else "{0}({1})"
            table[op] = (fold, code, None) if type(code) is str else (fold, call, code)
    return table


def _compile(root: Node, table: dict, fail: Callable | None = None,
             retry: Callable | None = None) -> Callable:
    """The function x -> value of the expression ``root``, each operation
    as ``table`` (``_table``) gives it.  With ``fail`` (the checked scalar
    evaluator), it raises ``fail(x)`` where the value is not finite or int
    arithmetic leaves float range.  With ``retry``, it returns ``retry(x)``
    where the value is not finite or an operation raises ValueError,
    ZeroDivisionError or OverflowError."""
    bound: dict[str, object] = {"__builtins__": {}}  # the function's globals
    lines: list[str] = []
    height = 0  # how many of t0, t1, ... hold a value
    lift = table["const"]

    def name(operand) -> str:
        """``operand`` as the source writes it: a constant or helper as the
        next bound name, so a constant folded away leaves no gap."""
        if type(operand) is str:
            return operand
        key = f"b{len(bound) - 1}"
        bound[key] = operand
        return key

    def walk(node: Node):
        # A chain of left operands (a sum, a product) is followed in a loop:
        # only a right operand, or the operand of a call or negation, is a
        # frame deeper, and those nest, which the parser bounds.
        chain = []
        while type(node) is BinOp:
            chain.append(node)
            node = node.left
        kind = type(node)
        if kind is Const:
            operand = node.value if lift is None else lift(node.value)
        elif kind is Var:
            operand = "x"
        elif kind is Call:
            operand = emit(node.func, (walk(node.arg),))
        else:
            operand = emit("neg", (walk(node.operand),))
        for binop in reversed(chain):
            operand = emit(binop.op, (operand, walk(binop.right)))
        return operand

    def emit(op: str, args: tuple):
        """The operand holding ``op`` on ``args``: its value if they are all
        constants and it folds, else the next t, assigned."""
        nonlocal height
        fold, template, helper = table[op]
        # The operands that are intermediate results are the top of the stack.
        top = height
        constant = True
        for arg in args:
            if type(arg) is str:
                constant = False
                if arg != "x":
                    height -= 1
        if constant:
            try:
                return fold(*args)
            except DomainError:
                pass  # keep the failing operation, it raises when evaluated
        lines.append(f"t{height} = " + template.format(helper and name(helper), *map(name, args)))
        if top - height == 2:
            lines.append(f"del t{height + 1}")
        height += 1
        return f"t{height - 1}"

    result = walk(root)
    checked = fail is not None or retry is not None
    if type(result) is not str and (not checked or math.isfinite(result)):
        return lambda x: result  # a constant that needs no check
    out = name(result)
    body = ["try:", *("    " + line for line in lines),
            f"    if isfinite({out}): return {out}"]
    if fail is not None:
        bound.update(isfinite=math.isfinite, fail=fail, OverflowError=OverflowError)
        lines = [*body, "except OverflowError as exc: raise fail(x) from exc", "raise fail(x)"]
    elif retry is not None:
        bound.update(isfinite=math.isfinite, retry=retry, errors=_BINOP_ERRORS)
        lines = [*body, "except errors: pass", "return retry(x)"]
    else:
        lines.append(f"return {out}")
    exec(_code("def evaluate(x):\n" + "".join(f"    {line}\n" for line in lines)), bound)
    return bound["evaluate"]


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str):
    """``source`` compiled; sources that recur (same-shaped expressions)
    are compiled once."""
    return compile(source, "<string>", "exec")


def _compiled_on_first_call(root: Node, fail: Callable) -> Callable:
    """The checked scalar evaluator of ``root``, compiled when first
    called."""
    compiled = functools.cache(lambda: _compile(root, _SCALAR_TABLE, fail))
    return lambda x: compiled()(x)


# ---------------------------------------------------------------------------
# Scalar evaluation: a failing operation raises DomainError

_BINOP_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _divide(left, right):
    try:
        return left / right
    except _BINOP_ERRORS as exc:
        raise DomainError(f"'/' failed on ({left!r}, {right!r})") from exc


def _power(left, right):
    try:
        return math.pow(left, right)
    except _BINOP_ERRORS as exc:
        raise DomainError(f"'^' failed on ({left!r}, {right!r})") from exc


def _scalar_call(name: str, fn: Callable) -> Callable:
    def call(arg):
        try:
            return fn(arg)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{name}({arg!r}) is undefined") from exc

    return call


_SCALAR_HELPERS = {"/": _divide, "^": _power,
                   **{name: _scalar_call(name, fn) for name, fn in _FUNCTIONS.items()}}
_SCALAR_TABLE = _table(_SCALAR_HELPERS)

# The same operations, inline: each folds constants with its helper above.
_INLINE_SCALAR = _table({"/": (_divide, "{1} / {2}"), "^": (_power, math.pow),
                         **{name: (_SCALAR_HELPERS[name], fn) for name, fn in _FUNCTIONS.items()}})


def _not_finite(text: str, variable: str | None, value) -> DomainError:
    """The error of a value of ``text`` at ``value`` that is not finite."""
    if variable is None:
        return DomainError(f"non-finite scalar {text!r}")
    return DomainError(f"{text!r} is not finite at {value!r}")


def eval_expr(ast: ExprAst, value: float) -> float:
    """Evaluate at ``value``; deterministic, raises DomainError when the
    result is not a finite real."""
    return ast.scalar(value)


# ---------------------------------------------------------------------------
# Vectorized evaluation: NaN wherever scalar evaluation raises

@functools.cache
def _array_helpers() -> dict:
    """The array evaluator's table of helpers; built, and numpy imported,
    on first use."""
    import numpy as np

    def nan_where(out, bad):
        """``out`` with NaN where ``bad`` (nowhere if None); an array is
        changed in place."""
        if bad is None:
            return out
        if isinstance(out, np.ndarray):
            np.copyto(out, np.nan, where=bad)
            return out
        return np.nan if bad else out

    def overflow(out, *args):
        """Where ``out`` is infinite although every one of ``args`` is
        finite (there the scalar operation raises), or None if nowhere."""
        bad = np.isinf(out)
        if not bad.any():
            return None
        for arg in args:
            bad &= np.isfinite(arg)
        return bad

    def divide(left, right):
        out = np.divide(left, right)
        zero = np.equal(right, 0.0)
        return nan_where(out, zero if zero.any() else None)

    def power(left, right):
        out = np.power(left, right)
        bad = overflow(out, left, right)
        if np.ndim(right) or right == 0.0 or math.isnan(right):
            # nan^0 and 1^nan are 1: keep such a NaN operand NaN, so that a
            # failure below the power does not vanish.
            absorbed = (out == 1.0) & (np.isnan(left) | np.isnan(right))
            bad = absorbed if bad is None else bad | absorbed
        return nan_where(out, bad)

    def finite_or_nan(fn: Callable) -> Callable:
        def call(arg):
            out = fn(arg)
            return nan_where(out, overflow(out, arg))

        return call

    # numpy's functions give NaN by themselves wherever math's raise, except
    # that exp overflows to inf and log(0) is -inf.
    return _table({"/": divide, "^": power, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
                   "tan": np.tan, "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
                   "exp": finite_or_nan(np.exp), "log": finite_or_nan(np.log), "abs": np.abs})


def eval_array(ast: ExprAst, values):
    """Evaluate over an array.  Points where ``eval_expr`` raises come back
    as NaN instead, which comparison-based callers treat as "outside"."""
    import numpy as np

    xs = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        out = ast.array(xs)
        if out is xs or not isinstance(out, np.ndarray):
            out = np.array(np.broadcast_to(out, xs.shape))
        np.copyto(out, np.nan, where=np.isinf(out))  # NaN stays NaN
    return out


# ---------------------------------------------------------------------------
# Interval evaluation: an enclosure of the values over an interval of x
#
# An interval is a pair (lo, hi) with lo <= hi, possibly infinite.  Each
# helper returns an interval holding its scalar helper's result at every
# choice of operand points where that returns.  Results round outward:
# one step of math.nextafter for the correctly rounded + - * and /, two for
# the math library's functions and pow, which are faithful (within one
# ulp) but need not be monotone to the last bit; a function's computed
# extreme of +-1 is exact.  Operands are clipped to a function's domain
# first.

_WHOLE = (-math.inf, math.inf)


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _ilift(v: float) -> tuple[float, float]:
    return (v, v)


def _ineg(x):
    return (-x[1], -x[0])


def _iadd(x, y):
    return (_down(x[0] + y[0]), _up(x[1] + y[1]))


def _isub(x, y):
    return (_down(x[0] - y[1]), _up(x[1] - y[0]))


def _imul(x, y):
    (a, b), (c, d) = x, y
    # 0 * inf is NaN; a real 0 times any real is 0.
    ps = [p if p == p else 0.0 for p in (a * c, a * d, b * c, b * d)]
    return (_down(min(ps)), _up(max(ps)))


def _idiv(x, y):
    (a, b), (c, d) = x, y
    if not (c > 0.0 or d < 0.0):
        return _WHOLE  # the divisor can be 0, or is NaN
    qs = (a / c, a / d, b / c, b / d)
    if any(q != q for q in qs):
        return _WHOLE  # inf / inf
    return (_down(min(qs)), _up(max(qs)))


def _pow_points(pairs) -> tuple[float, float]:
    """Enclosure of math.pow over points where it takes its extremes."""
    try:
        values = [math.pow(p, q) for p, q in pairs]
    except (ValueError, OverflowError):
        return _WHOLE  # 0 to a negative power (a pole), or an overflow
    return (_down(_down(min(values))), _up(_up(max(values))))


def _ipow(x, y):
    (a, b), (c, d) = x, y
    if c == d and c.is_integer():
        # x^n is monotone on each side of 0; any base has a value.
        if c < 0.0 and a <= 0.0 <= b:
            return _WHOLE
        lo, hi = _pow_points(((a, c), (b, c)))
        if c > 0.0 and c % 2.0 == 0.0 and a < 0.0 < b:
            lo = 0.0
        return (lo, hi)
    if a < 0.0 and c != d:
        return _WHOLE  # a negative base has values at the integers in y alone
    # A base >= 0: monotone in each operand, so the extremes are at corners.
    a, b = max(a, 0.0), max(b, 0.0)
    return _pow_points(((a, c), (a, d), (b, c), (b, d)))


def _at(fn: Callable, v: float, failed: float) -> float:
    try:
        return fn(v)
    except (ValueError, OverflowError):
        return failed


def _monotone(fn: Callable, low: float, high: float, rising: bool = True) -> Callable:
    """The helper of ``fn``, monotone on its domain [low, high] (kept as
    ``domain``)."""

    def enclose(x):
        a, b = (min(max(v, low), high) for v in x)
        if not rising:
            a, b = b, a
        return (_down(_down(_at(fn, a, -math.inf))), _up(_up(_at(fn, b, math.inf))))

    enclose.domain = (low, high)
    return enclose


def _hits(a: float, b: float, phase: float, period: float) -> bool:
    """Whether some phase + k*period may lie in [a, b]; when rounding leaves
    it unsure, it does."""
    slack = 1e-12 * (1.0 + abs(a) + abs(b))
    if slack == math.inf:  # |a| + |b| overflows: k * period rounds by far more than 2*pi
        return True
    k = math.floor((b + slack - phase) / period)
    return phase + k * period >= a - slack


def _periodic(fn: Callable, peak: float) -> Callable:
    """The helper of sin or cos: 1 at peak + 2k*pi, -1 half a period on,
    monotone between."""

    def enclose(x):
        a, b = x
        if not b - a < 2.0 * math.pi:
            return (-1.0, 1.0)
        fa, fb = fn(a), fn(b)
        lo = -1.0 if _hits(a, b, peak + math.pi, 2.0 * math.pi) else _down(_down(min(fa, fb)))
        hi = 1.0 if _hits(a, b, peak, 2.0 * math.pi) else _up(_up(max(fa, fb)))
        return (lo, hi)

    return enclose


_isin = _periodic(math.sin, 0.5 * math.pi)
_icos = _periodic(math.cos, 0.0)


def _itan(x):
    a, b = x
    if not b - a < math.pi or _hits(a, b, 0.5 * math.pi, math.pi):
        return _WHOLE  # a pole may lie inside
    return (_down(_down(math.tan(a))), _up(_up(math.tan(b))))


def _iabs(x):
    a, b = x
    if a >= 0.0:
        return x
    if b <= 0.0:
        return (-b, -a)
    return (0.0, max(-a, b))


_INTERVAL_HELPERS = {
    "const": _ilift, "neg": _ineg, "+": _iadd, "-": _isub, "*": _imul, "/": _idiv, "^": _ipow,
    "sqrt": _monotone(math.sqrt, 0.0, math.inf),
    "sin": _isin,
    "cos": _icos,
    "tan": _itan,
    "asin": _monotone(math.asin, -1.0, 1.0),
    "acos": _monotone(math.acos, -1.0, 1.0, rising=False),
    "atan": _monotone(math.atan, -math.inf, math.inf),
    "exp": _monotone(math.exp, -math.inf, math.inf),
    "log": _monotone(math.log, 0.0, math.inf),
    "abs": _iabs,
}
_INTERVAL_TABLE = _table(_INTERVAL_HELPERS)


# The defined-only table: each helper above, None for an operand that is
# None, that it would clip (outside its domain, or a negative base to a
# power that is not one integer), or for a result that is not finite.

def _ipow_unclipped(x, y):
    if x[0] < 0.0 and not (y[0] == y[1] and y[0].is_integer()):
        return _WHOLE
    return _ipow(x, y)


def _defined(helper: Callable) -> Callable:
    low, high = getattr(helper, "domain", _WHOLE)

    def enclose(*operands):
        if None in operands or not low <= operands[0][0] <= operands[0][1] <= high:
            return None
        lo, hi = helper(*operands)
        return (lo, hi) if -math.inf < lo <= hi < math.inf else None

    return enclose


_DEFINED_TABLE = _table({name: _defined(_ipow_unclipped if name == "^" else helper)
                         for name, helper in _INTERVAL_HELPERS.items() if name != "const"}
                        | {"const": lambda v: (v, v) if math.isfinite(v) else None})


# ---------------------------------------------------------------------------
# Array interval evaluation: many boxes per call
#
# ``ExprAst.intervals`` maps boxes given as two arrays (lo, hi) to the
# enclosures over each, as two arrays, and ``defined_intervals`` also says
# where the defined-only table would certify each box.  Their table, the
# scalar helpers' array twins, is in ``revolve._intervals``, imported (and
# compiled) on first use.

def _array_intervals(root: Node, defined: bool) -> Callable:
    """``root``'s array interval evaluator: (lo, hi) to the enclosures over
    each box, as arrays of the boxes' shape, and if ``defined`` a bool
    array too, False where the defined-only enclosure is None."""
    import numpy as np

    from ._intervals import table

    with np.errstate(all="ignore"):  # folding a constant may divide by zero
        evaluate = _compile(root, table(defined))

    def intervals(box):
        shape = np.shape(box[0])
        with np.errstate(all="ignore"):
            out = evaluate((*box, True) if defined else box)
        return tuple(v if np.shape(v) == shape else np.broadcast_to(v, shape) for v in out)

    return intervals
