"""Single-variable expression parsing and evaluation.

Boundary curves are given as strings like ``"sqrt(1-x^2)"`` and parsed into
postfix programs.  Grammar (loosest to tightest binding):

    sum     := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

so ``^`` is right-associative and binds tighter than unary minus
(``-2^2 == -4``, ``2^3^2 == 512``).  There is no implicit multiplication.
Identifiers must be the declared variable, a known function (sqrt, sin, cos,
tan, asin, acos, atan, exp, log, abs) or a known constant (pi, e; lowercase).
Nesting is bounded, so that the parser cannot recurse past the
interpreter's limit: a group's or call's '(', unary '-' and the exponent of
'^' each open a level, at most 100 deep.  Past the bound the parse is an
ExprSyntaxError at the token that crossed it.  A chain of terms or factors
of any length is fine: the parser reads it in a loop, and the program is
flat.

A program is a tuple of items in postfix order: a float is a constant (pi
and e included), None the variable, and a name (``"neg"``, a function's
name or one of ``+ - * / ^``) an operation, which replaces the one or two
values before it.

Evaluation is pure.  Any operation that leaves the real domain (sqrt of a
negative, log of a non-positive, division by zero) raises DomainError, and a
non-finite result (NaN or +/-Inf, e.g. from overflow) is normalized to
DomainError as well, so quadrature can treat all failures uniformly.

An ``ExprAst`` is the record (text, variable): it compares, hashes and
prints by them.  Its program (``program``) and its evaluators are derived,
not fields.  The text is parsed when the ExprAst is built, and each
evaluator is compiled into a straight-line Python function (see
Compilation below) in one pass over the program, with one table of
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
outward and clip operands to a function's domain, so points where the
curve is undefined add nothing; a result they cannot bound (a pole, a
divisor interval that holds 0, an overflow) is (-inf, inf).  Past an
infinity or a NaN, as above, the enclosure holds no promise.  The
defined-only enclosure is the same, but None wherever the helpers would
clip an operand or give an unbounded result, so a finite one also
certifies that the expression is defined on the whole interval.  The
array interval evaluators do the same for many intervals per call.  The
helpers are written once, for floats and for numpy arrays, in
``revolve._intervals``.
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


@record
class ExprAst:
    """Immutable parsed expression in (at most) one variable, with its
    compiled evaluators: ``scalar`` is ``eval_expr``'s, ``array`` is
    ``eval_array``'s and ``interval`` maps an interval (lo, hi) of the
    variable to an enclosure of the values there; ``intervals`` does so for
    arrays of intervals.  The value is (text, variable): ``program``, the
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
        program = _Parser(self.text, self.variable).parse()
        checked = _compiled_on_first_call(
            program, functools.partial(_not_finite, self.text, self.variable))
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "scalar", _compile(program, _INLINE_SCALAR, retry=checked))

    def __call__(self, value: float) -> float:
        """``eval_expr(self, value)``."""
        return self.scalar(value)

    @functools.cached_property
    def array(self) -> Callable:
        import numpy as np

        with np.errstate(all="ignore"):  # folding a constant may divide by zero
            return _compile(self.program, _array_helpers())

    @functools.cached_property
    def interval(self) -> Callable[[tuple[float, float]], tuple[float, float]]:
        return _interval_evaluator(self.program, False, False)

    @functools.cached_property
    def defined_interval(self) -> Callable[[tuple[float, float]], tuple[float, float] | None]:
        """``interval``, but None where that would clip an operand to a
        function's domain or not be finite: a result certifies that the
        expression is defined, and finite, on the whole interval."""
        return _interval_evaluator(self.program, False, True)

    @functools.cached_property
    def intervals(self) -> Callable:
        """``interval`` over many boxes per call: (lo, hi), two arrays, to
        the enclosures over each box, two arrays of their shape."""
        return _interval_evaluator(self.program, True, False)

    @functools.cached_property
    def defined_intervals(self) -> Callable:
        """``intervals`` and where ``defined_interval`` would certify each
        box: (lo, hi) to (lo, hi, defined), ``defined`` a bool array, False
        exactly where ``defined_interval`` gives None.  Where it is True,
        (lo, hi) is the defined-only enclosure."""
        return _interval_evaluator(self.program, True, True)

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
        self.program: list = []  # the items read so far, in postfix order

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

    def nested(self, parse: Callable[[], None]):
        """``parse()``, one level deeper than the token just read."""
        if self.depth == _MAX_NESTING:
            pos = self.tokens[self.i - 1][2]
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING} levels",
                                  _byte_pos(self.text, pos))
        self.depth += 1
        parse()
        self.depth -= 1

    def expect_op(self, op: str):
        tok = self.peek()
        if tok[:2] == ("op", op):
            return self.advance()
        self.fail(f"'{op}'", tok)

    def parse(self) -> tuple:
        self.sum()
        tok = self.peek()
        if tok[0] != "end":
            self.fail("end of input", tok)
        return tuple(self.program)

    def sum(self):
        self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            self.term()
            self.program.append(op)

    def term(self):
        self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            self.unary()
            self.program.append(op)

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            self.nested(self.unary)
            self.program.append("neg")
        else:
            self.power()

    def power(self):
        self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            self.nested(self.unary)
            self.program.append("^")

    def atom(self):
        tok = self.peek()
        kind, name, pos = tok
        if kind == "num":
            self.advance()
            self.program.append(float(name))
        elif tok[:2] == ("op", "("):
            self.advance()
            self.nested(self.sum)
            self.expect_op(")")
        elif kind == "ident":
            self.advance()
            if name in _FUNCTIONS:
                self.expect_op("(")
                self.nested(self.sum)
                self.expect_op(")")
                self.program.append(name)
            elif name == self.variable:
                self.program.append(None)
            elif name in _CONSTANTS:
                self.program.append(_CONSTANTS[name])
            else:
                raise UnknownIdentifierError(name, _byte_pos(self.text, pos))
        else:
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
# its program in one pass: one assignment per operation.  An operand is x,
# an intermediate result in a stack of names t0, t1, ... (an operation
# replaces its operands, so each is released once used, which matters for
# large arrays) or a constant held as its value.  A table, normalised once
# where it is defined (``_table``), gives each operation as (fold, template,
# helper): an operation whose operands are all constants is computed while compiling with
# ``fold``, unless that fails, and any other is written as ``template``,
# which may call ``helper`` (+ - * and negation are inline unless the table
# has its own).  The table's "const", if any, turns each constant into a
# value of its kind (an interval).  Constants and helpers are never written
# into the source: each is bound (in the function's globals) to a name b0,
# b1, ... where the source first writes it.  So the source depends only on
# the shape of the program once constants are folded (``-0.5 - 0.5*x`` is
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


def _compile(program: tuple, table: dict, fail: Callable | None = None,
             retry: Callable | None = None) -> Callable:
    """The function x -> value of the expression ``program``, each operation
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

    operands: list = []  # a stack: constants, "x" and t's
    for item in program:
        if item is None:
            operands.append("x")
        elif type(item) is float:
            operands.append(item if lift is None else lift(item))
        else:
            # An operation replaces its operands: by its value if they are
            # all constants and it folds, else by the next t, assigned.
            fold, template, helper = table[item]
            args = operands[-2:] if item in "+-*/^" else operands[-1:]
            del operands[-len(args):]
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
                    operands.append(fold(*args))
                    continue
                except DomainError:
                    pass  # keep the failing operation, it raises when evaluated
            lines.append(f"t{height} = " + template.format(helper and name(helper), *map(name, args)))
            if top - height == 2:
                lines.append(f"del t{height + 1}")
            operands.append(f"t{height}")
            height += 1
    [result] = operands
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


def _compiled_on_first_call(program: tuple, fail: Callable) -> Callable:
    """The checked scalar evaluator of ``program``, compiled when first
    called."""
    compiled = functools.cache(lambda: _compile(program, _SCALAR_TABLE, fail))
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
# The helpers, over floats and over numpy arrays, are written once in
# ``revolve._intervals``: each evaluator is ``_compile`` on its table.

def _interval_evaluator(program: tuple, arrays: bool, defined: bool) -> Callable:
    """``program``'s interval evaluator: a box (lo, hi) to the enclosure over
    it, of floats, or if ``arrays`` of arrays of the boxes' shape.  If
    ``defined``, the defined-only one: over floats, None where that is not
    defined, and over arrays also a bool array, False there."""
    from ._intervals import table

    if not arrays:
        evaluate = _compile(program, table(False, defined))
        if not defined:
            return evaluate

        def defined_interval(box):
            lo, hi, ok = evaluate((*box, True))
            return (lo, hi) if ok else None

        return defined_interval

    import numpy as np

    with np.errstate(all="ignore"):  # folding a constant may divide by zero
        evaluate = _compile(program, table(True, defined))

    def intervals(box):
        shape = np.shape(box[0])
        with np.errstate(all="ignore"):
            out = evaluate((*box, True) if defined else box)
        return tuple(v if np.shape(v) == shape else np.broadcast_to(v, shape) for v in out)

    return intervals
