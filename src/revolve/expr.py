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

Evaluation is pure.  Any operation that leaves the real domain (sqrt of a
negative, log of a non-positive, division by zero) raises DomainError, and a
non-finite result (NaN or +/-Inf, e.g. from overflow) is normalized to
DomainError as well, so quadrature can treat all failures uniformly.

Each expression is compiled once per distinct text and variable, when
parsed (``parse_expr`` is a bounded cache), into a straight-line Python
function per evaluator (see Compilation below); scalar and array
evaluation compile alike, with two tables of helpers.  Array
evaluation is NaN exactly where scalar evaluation raises: its helpers
return NaN for a zero divisor and for a non-finite result from finite
operands, and ``^`` keeps a NaN operand NaN (``nan^0`` would be 1).  The
exceptions lie past an infinity that the scalar path carries on without
raising (an overflow of + - or *, as in ``1e308*10``, or a literal like
``1e999``): from there the two may part, as at ``(0-1e999)^0.5``, which is
inf for ``math.pow`` and NaN for numpy.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = ["ExprAst", "parse_expr", "parse_scalar", "eval_expr", "eval_array"]

_FUNCTIONS = {
    "sqrt": (math.sqrt, np.sqrt),
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "tan": (math.tan, np.tan),
    "asin": (math.asin, np.arcsin),
    "acos": (math.acos, np.arccos),
    "atan": (math.atan, np.arctan),
    "exp": (math.exp, np.exp),
    "log": (math.log, np.log),
    "abs": (abs, np.abs),
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# Distinct (text, variable) pairs that parse_expr keeps parsed and compiled.
_PARSE_CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Const | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class ExprAst:
    """Immutable parsed expression in (at most) one variable, with its
    compiled evaluators: ``scalar`` is ``eval_expr``'s, ``array`` is
    ``eval_array``'s.  They are not part of the value."""

    root: Node
    variable: str | None
    text: str
    scalar: Callable[[float], float] = field(repr=False, compare=False)
    array: Callable = field(repr=False, compare=False)

    def __call__(self, value: float) -> float:
        """``eval_expr(self, value)``."""
        return self.scalar(value)

    def __reduce__(self):
        # Generated functions do not pickle; a copy is parsed again.
        return parse_expr, (self.text, self.variable)


# ---------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int  # character offset into the source


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
            tokens.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, variable: str | None):
        self.text = text
        self.variable = variable
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str, tok: _Token):
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(
            f"expected {expected}, found {found}", _byte_pos(self.text, tok.pos)
        )

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        self.fail(f"'{op}'", tok)

    def parse(self) -> Node:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            self.fail("end of input", tok)
        return node

    def sum(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.sum()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(name, arg)
            if name == self.variable:
                return Var(name)
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            raise UnknownIdentifierError(name, _byte_pos(self.text, tok.pos))
        self.fail("a value", tok)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_expr(text: str, variable: str | None) -> ExprAst:
    """Parse ``text`` as an expression in the single variable ``variable``
    and compile its evaluators.

    ``variable=None`` parses a constant expression (no variable allowed).
    Raises ExprSyntaxError or UnknownIdentifierError with a byte position.
    ASTs are frozen and compare by value, so the result is cached by
    (text, variable): parsing the same text again returns the same object.
    """
    if variable is not None:
        if not _IDENT_RE.fullmatch(variable):
            raise ValueError(f"invalid variable name {variable!r}")
        if variable in _FUNCTIONS or variable in _CONSTANTS:
            raise ValueError(f"variable name {variable!r} shadows a builtin")
    if not text:
        raise ExprSyntaxError("empty expression", 0)
    root = _Parser(text, variable).parse()
    scalar = _compile(root, _SCALAR_HELPERS, functools.partial(_not_finite, text, variable))
    with np.errstate(all="ignore"):  # folding a constant may divide by zero
        array = _compile(root, _ARRAY_HELPERS)
    return ExprAst(root, variable, text, scalar, array)


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
    # A constant folds while it is compiled; its function checks the value.
    return parse_expr(str(text), None)(0.0)


# ---------------------------------------------------------------------------
# Compilation
#
# An expression is evaluated by one straight-line function generated from
# its AST: one assignment per operation, in the order of a left-to-right,
# depth-first walk.  Constants and helpers are bound by name (as the
# function's globals), never written into the source; + - * and negation
# are inline, and / ^ and the functions call the helpers of the table the
# function is compiled with.  Intermediate results live in a stack of
# names t0, t1, ...: an operation replaces its operands, so each one is
# released once used, as in a tree walk (which matters for large arrays).
# A node whose operands are all constants is computed while compiling,
# with the same operation, unless that fails.  The scalar function ends in
# eval_expr's check, so the curves' pieces can call it directly.

_INLINE = {"+": (operator.add, "{} + {}"), "-": (operator.sub, "{} - {}"),
           "*": (operator.mul, "{} * {}")}
_NEGATE = (operator.neg, "-{}")


def _compile(root: Node, helpers: dict[str, Callable], fail: Callable | None = None) -> Callable:
    """The function x -> value of the expression ``root``, with ``/``, ``^``
    and the functions taken from ``helpers``.  With ``fail`` (the scalar
    evaluator), it raises ``fail(x)`` where the value is not finite or int
    arithmetic leaves float range."""
    bound: dict[str, object] = {"__builtins__": {}}  # the function's globals
    consts: dict[str, float] = {}  # the bound names that are constants
    lines: list[str] = []
    height = 0                     # how many of t0, t1, ... hold a value

    def bind(value) -> str:
        name = f"b{len(bound)}"
        bound[name] = value
        return name

    def apply(fn, template: str | None, args: list[str]) -> str:
        nonlocal height
        if all(arg in consts for arg in args):
            try:
                name = bind(fn(*(consts[arg] for arg in args)))
            except DomainError:
                pass  # keep the failing operation, it raises when evaluated
            else:
                consts[name] = bound[name]
                return name
        if template is None:
            template = bind(fn) + "(" + ", ".join(["{}"] * len(args)) + ")"
        # The operands that are intermediate results are the top of the stack.
        top = height
        height -= sum(arg.startswith("t") for arg in args)
        lines.append(f"t{height} = " + template.format(*args))
        lines.extend(f"del t{k}" for k in range(height + 1, top))
        height += 1
        return f"t{height - 1}"

    def walk(node: Node) -> str:
        if isinstance(node, Const):
            name = bind(node.value)
            consts[name] = node.value
            return name
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Neg):
            return apply(*_NEGATE, [walk(node.operand)])
        if isinstance(node, BinOp):
            args = [walk(node.left), walk(node.right)]
            if node.op in _INLINE:
                return apply(*_INLINE[node.op], args)
            return apply(helpers[node.op], None, args)
        return apply(helpers[node.func], None, [walk(node.arg)])

    result = walk(root)
    if result in consts and (fail is None or math.isfinite(consts[result])):
        value = consts[result]
        return lambda x: value  # a constant that needs no check
    if fail is None:
        lines.append(f"return {result}")
    else:
        bound.update(isfinite=math.isfinite, fail=fail, OverflowError=OverflowError)
        lines = ["try:", *("    " + line for line in lines),
                 f"    if isfinite({result}): return {result}",
                 "except OverflowError as exc: raise fail(x) from exc", "raise fail(x)"]
    exec("def evaluate(x):\n" + "".join(f"    {line}\n" for line in lines), bound)
    return bound["evaluate"]


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
                   **{name: _scalar_call(name, fns[0]) for name, fns in _FUNCTIONS.items()}}


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

def _nan_where(out, bad):
    """``out`` with NaN where ``bad`` (nowhere if None); an array is
    changed in place."""
    if bad is None:
        return out
    if isinstance(out, np.ndarray):
        np.copyto(out, np.nan, where=bad)
        return out
    return np.nan if bad else out


def _overflow(out, *args):
    """Where ``out`` is infinite although every one of ``args`` is finite
    (there the scalar operation raises), or None if nowhere."""
    bad = np.isinf(out)
    if not bad.any():
        return None
    for arg in args:
        bad &= np.isfinite(arg)
    return bad


def _divide_array(left, right):
    out = np.divide(left, right)
    zero = np.equal(right, 0.0)
    return _nan_where(out, zero if zero.any() else None)


def _power_array(left, right):
    out = np.power(left, right)
    bad = _overflow(out, left, right)
    if np.ndim(right) or right == 0.0 or math.isnan(right):
        # nan^0 and 1^nan are 1: keep such a NaN operand NaN, so that a
        # failure below the power does not vanish.
        absorbed = (out == 1.0) & (np.isnan(left) | np.isnan(right))
        bad = absorbed if bad is None else bad | absorbed
    return _nan_where(out, bad)


def _finite_or_nan(fn: Callable) -> Callable:
    def call(arg):
        out = fn(arg)
        return _nan_where(out, _overflow(out, arg))

    return call


# numpy's functions give NaN by themselves wherever math's raise, except
# that exp overflows to inf and log(0) is -inf.
_ARRAY_HELPERS = {"/": _divide_array, "^": _power_array,
                  **{name: fns[1] for name, fns in _FUNCTIONS.items()},
                  "exp": _finite_or_nan(np.exp), "log": _finite_or_nan(np.log)}


def eval_array(ast: ExprAst, values: np.ndarray) -> np.ndarray:
    """Evaluate over an array.  Points where ``eval_expr`` raises come back
    as NaN instead, which comparison-based callers treat as "outside"."""
    xs = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        out = ast.array(xs)
        if out is xs or not isinstance(out, np.ndarray):
            out = np.array(np.broadcast_to(out, xs.shape))
        np.copyto(out, np.nan, where=np.isinf(out))  # NaN stays NaN
    return out
