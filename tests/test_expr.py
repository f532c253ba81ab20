import itertools
import json
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest

import revolve as rv
from revolve import _intervals, expr, region
from revolve.errors import DomainError, ExprSyntaxError, UnknownIdentifierError

from helpers import (DEEP_SHAPES, MALFORMED_CASES, PRECEDENCE_CASES, chain, ref_compile,
                     ref_eval_array, ref_eval_expr, ref_eval_program, ref_helpers)


def ev(text, value=0.0, var="x"):
    return rv.eval_expr(rv.parse_expr(text, var), value)


class TestParse:
    def test_unit_circle_apex(self):
        assert ev("sqrt(1-x^2)", 0.0) == 1.0

    def test_named_constant(self):
        assert ev("2*pi") == 6.283185307179586

    def test_incomplete_expression_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            rv.parse_expr("x+", "x")
        assert err.value.position == 2

    def test_lower_boundary_line(self):
        # y = -sqrt(3)*x at x = 1/2
        assert ev("-sqrt(3)*x", 0.5) == -math.sqrt(3) * 0.5
        assert ev("-sqrt(3)*x", 0.5) == pytest.approx(-0.8660254037844386, abs=0)

    def test_scientific_notation(self):
        assert ev("1e-3") == 1e-3
        assert ev("2.5e2+0.5") == 250.5

    @pytest.mark.parametrize("text,expected", PRECEDENCE_CASES)
    def test_precedence(self, text, expected):
        assert ev(text) == expected

    @pytest.mark.parametrize("text,position", MALFORMED_CASES)
    def test_malformed_has_position(self, text, position):
        with pytest.raises(ExprSyntaxError) as err:
            rv.parse_expr(text, "x")
        assert err.value.position == position

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            rv.parse_expr("1+zz*2", "x")
        assert err.value.position == 2
        assert err.value.name == "zz"

    def test_constants_case_sensitive(self):
        with pytest.raises(UnknownIdentifierError):
            rv.parse_expr("PI", "x")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            rv.parse_expr("2x+1", "x")

    def test_variable_name_validation(self):
        with pytest.raises(ValueError):
            rv.parse_expr("x", "pi")
        with pytest.raises(ValueError):
            rv.parse_expr("x", "2bad")

    @pytest.mark.parametrize("build", [rv.parse_expr, rv.ExprAst], ids=["parse_expr", "ExprAst"])
    def test_both_constructors_check_their_inputs(self, build):
        with pytest.raises(ValueError, match="^variable name 'pi' shadows a builtin$"):
            build("pi*2", "pi")
        with pytest.raises(ValueError, match="^invalid variable name '2bad'$"):
            build("x", "2bad")
        with pytest.raises(ExprSyntaxError, match=r"^empty expression \(at position 0\)$"):
            build("", "x")
        with pytest.raises(ExprSyntaxError, match=r"^empty expression \(at position 0\)$"):
            build("", None)

    def test_parse_determinism(self):
        a = rv.parse_expr("sin(x)^2 + cos(x)^2", "x")
        b = rv.parse_expr("sin(x)^2 + cos(x)^2", "x")
        assert a == b
        assert repr(rv.eval_expr(a, 0.7)) == repr(rv.eval_expr(b, 0.7))


def _every_evaluator_works(text):
    """The curve ``text`` in x through every compiled table, and ==, hash
    and repr between it and a second parse of it."""
    rv.parse_expr.cache_clear()
    try:
        ast = rv.parse_expr(text, "x")
        assert rv.parse_expr(text, "x") is ast
        assert expr.ExprAst(text, "x") == ast
        value = ast(0.5)
        assert math.isfinite(value)
        assert rv.eval_array(ast, np.array([0.5]))[0] == pytest.approx(value, rel=1e-12)
        lo, hi = ast.interval((0.5, 0.5))
        assert lo <= value <= hi
        assert ast.defined_interval((0.25, 0.75)) is not None
        with pytest.raises(DomainError):  # compiles the checked evaluator
            ast(math.inf)
        # A second program: ==, hash and repr read the text, not the programs.
        rv.parse_expr.cache_clear()
        fresh = rv.parse_expr(text, "x")
        assert fresh.program is not ast.program and fresh == ast and hash(fresh) == hash(ast)
        assert repr(fresh) == repr(ast) == f"ExprAst(text={text!r}, variable='x')"
    finally:
        rv.parse_expr.cache_clear()


class TestDepthBounds:
    """The parser's nesting is bounded, so a deeply nested curve is a syntax
    error at the offending token, never a RecursionError.  A chain nests
    nothing: no length of it is refused."""

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_one_past_the_bound_is_refused_at_its_token(self, shape):
        make, position = DEEP_SHAPES[shape]
        n = expr._MAX_NESTING + 1
        with pytest.raises(ExprSyntaxError) as err:
            rv.parse_expr(make(n), "x")
        assert err.value.position == position(n)
        assert str(err.value) == f"nesting deeper than 100 levels (at position {position(n)})"
        # Far past it too: the parser stops at the same token.
        with pytest.raises(ExprSyntaxError, match=re.escape(f"(at position {position(n)})")):
            rv.parse_expr(make(4 * n), "x")

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_at_the_bound_every_evaluator_works(self, shape):
        make, _ = DEEP_SHAPES[shape]
        _every_evaluator_works(make(expr._MAX_NESTING))

    def test_a_long_chain_every_evaluator_works(self):
        _every_evaluator_works(chain(20000))

    def test_a_long_chain_compares_hashes_and_prints(self):
        # A chain's program is flat: ==, hash and repr are a tuple's.
        rv.parse_expr.cache_clear()
        try:
            first = rv.parse_expr(chain(20000), "x").program
            rv.parse_expr.cache_clear()
            second = rv.parse_expr(chain(20000), "x").program
        finally:
            rv.parse_expr.cache_clear()
        assert second is not first
        assert first == second and not first != second and hash(first) == hash(second)
        # Unequal at the top of the chain, and at its foot.
        last = first[:-1] + ("-",)
        foot = (2.0,) + first[1:]
        assert first != last and first != foot and first != (1.0,)
        assert repr(first) == "(1.0" + ", None, '+'" * 19999 + ")"

    def test_bounds_add_up_in_mixed_shapes(self):
        # Nesting counts every kind of level together.
        text = "sin(" * 50 + "-" * 25 + "(" * 24 + "x^x" + ")" * 74
        value = -math.pow(0.5, 0.5)
        for _ in range(50):
            value = math.sin(value)
        assert rv.parse_expr(text, "x")(0.5) == value
        with pytest.raises(ExprSyntaxError, match="nesting deeper than 100 levels"):
            rv.parse_expr("-" + text, "x")
        # Chains inside chains: a grouped chain of 450 terms heads one of 5 000.
        text = "(" + chain(450) + ")" + "+x" * 5000
        assert rv.parse_expr(text, "x")(1.0) == 5450.0

    def test_a_region_rebuilt_on_a_new_parse_hits_the_probe_cache(self):
        # The probe cache compares the two parses by value, (text, variable):
        # a new parse of the same curve is a hit.
        text = "1" + "+x*0" * 450
        first = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve(text, "x"))
        rv.parse_expr.cache_clear()
        try:
            upper = rv.curve(text, "x")
            assert upper is not first.upper and upper.program is not first.upper.program
            hits = region._probe_values.cache_info().hits
            again = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), upper)
            assert region._probe_values.cache_info().hits == hits + 2
            assert again == first and hash(again) == hash(first)
        finally:
            rv.parse_expr.cache_clear()


class TestEval:
    def test_power(self):
        assert ev("x^2", 3.0) == 9.0

    def test_sqrt_outside_domain(self):
        with pytest.raises(DomainError):
            ev("sqrt(1-x^2)", 2.0)

    def test_sinc_near_zero(self):
        assert abs(ev("sin(x)/x", 1e-8) - 1.0) <= 1e-15
        with pytest.raises(DomainError):
            ev("sin(x)/x", 0.0)

    @pytest.mark.parametrize("text", ["1/0", "log(0)", "log(0-1)", "(0-1)^0.5",
                                      "asin(2)", "exp(800)", "1e308*10"])
    def test_failures_become_domain_errors(self, text):
        with pytest.raises(DomainError):
            ev(text, 1.0)

    @pytest.mark.parametrize("text", ["x", "-x", "x+1", "x*2", "x*x"])
    def test_integer_beyond_float_range(self, text):
        with pytest.raises(DomainError):
            ev(text, 10**400)

    def test_integer_power_of_negative_base(self):
        assert ev("(0-2)^2") == 4.0

    def test_repeated_eval_bit_identical(self):
        ast = rv.parse_expr("exp(sin(x)*3)/7", "x")
        vals = {rv.eval_expr(ast, 1.2345) for _ in range(5)}
        assert len(vals) == 1

    def test_parse_scalar(self):
        assert rv.parse_scalar("-pi/3") == -math.pi / 3
        assert rv.parse_scalar("sqrt(2)/2") == math.sqrt(2) / 2
        assert rv.parse_scalar(2) == 2.0
        assert rv.parse_scalar(0.75) == 0.75
        with pytest.raises(ExprSyntaxError):
            rv.parse_scalar("x+1")

    @pytest.mark.parametrize("value", [10**400, -(10**400), "1e999", "1e308*10"],
                             ids=["int", "negative-int", "literal", "product"])
    def test_parse_scalar_beyond_float_range(self, value):
        with pytest.raises(DomainError):
            rv.parse_scalar(value)


class TestEvalArray:
    def test_matches_scalar_inside_domain(self):
        ast = rv.parse_expr("sqrt(1-x^2)*exp(x/3)", "x")
        xs = np.linspace(-1.0, 1.0, 11)
        out = rv.eval_array(ast, xs)
        for x, v in zip(xs, out):
            assert v == rv.eval_expr(ast, float(x))

    def test_out_of_domain_is_nan(self):
        ast = rv.parse_expr("sqrt(1-x^2)", "x")
        out = rv.eval_array(ast, np.array([0.0, 2.0, -3.0]))
        assert out[0] == 1.0
        assert np.isnan(out[1]) and np.isnan(out[2])

    def test_constant_expression_broadcasts(self):
        ast = rv.parse_expr("pi/2", "x")
        out = rv.eval_array(ast, np.zeros(4))
        assert out.shape == (4,)
        assert np.all(out == math.pi / 2)

    def test_nonfinite_normalized_to_nan(self):
        ast = rv.parse_expr("1/x", "x")
        out = rv.eval_array(ast, np.array([2.0, 0.0]))
        assert out[0] == 0.5
        assert np.isnan(out[1])

    def test_failure_does_not_vanish(self):
        # The scalar evaluator raises at these points; an intermediate
        # inf must not turn into a finite array value.
        for text, x in [("1/(1/x)", 0.0), ("1/(1+exp(1000*x))", 1.0), ("(1/x)^0", 0.0),
                        ("1^log(x)", 0.0), ("1/(2^(1100*x))", 1.0), ("atan(1/x)", 0.0),
                        ("x*(1-x)^0.5", 2.0)]:
            ast = rv.parse_expr(text, "x")
            with pytest.raises(DomainError):
                rv.eval_expr(ast, x)
            out = rv.eval_array(ast, np.array([x, 0.5]))
            assert np.isnan(out[0]), text
            assert out[1] == rv.eval_expr(ast, 0.5), text

    def test_intermediate_arrays_are_released(self):
        # Each result replaces its operands on the stack: a long chain
        # holds about two arrays at a time, not one per operation.
        xs = np.linspace(-1.0, 1.0, 500_000)
        ast = rv.parse_expr("sqrt(((((((x+1)*2+1)*2+1)*2+1)*2+1)^2)*(x+3)+1)", "x")
        rv.eval_array(ast, xs)
        tracemalloc.start()
        try:
            rv.eval_array(ast, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * xs.nbytes

    def test_input_array_untouched(self):
        xs = np.array([1.0, np.inf, 2.0])
        out = rv.eval_array(rv.parse_expr("x", "x"), xs)
        assert np.isnan(out[1]) and xs[1] == np.inf
        out[0] = 5.0
        assert xs[0] == 1.0


# ---------------------------------------------------------------------------
# The compiled evaluators against the reference stack walks

_FUNCS = sorted(expr._FUNCTIONS)
_CONSTS = [0.0, 1.0, 2.0, 0.5, 3.0, 1e-3, 10.0, 1000.0, math.pi]
_POINTS = [-2.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 700.0]


def _random_text(rng, depth):
    """Fully parenthesized expression text in x; every operator and
    function, with constants that put some points outside the domain."""
    kind = rng.random() if depth > 0 else rng.random() * 0.3
    if kind < 0.15:
        return "x"
    if kind < 0.3:
        return repr(rng.choice(_CONSTS))
    if kind < 0.4:
        return f"-({_random_text(rng, depth - 1)})"
    if kind < 0.75:
        op = rng.choice("+-*/^")
        return f"({_random_text(rng, depth - 1)}){op}({_random_text(rng, depth - 1)})"
    return f"{rng.choice(_FUNCS)}({_random_text(rng, depth - 1)})"


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return (str(exc), type(exc.__cause__))


def _random_asts(count=300, seed=20261018):
    rng = random.Random(seed)
    return [rv.parse_expr(_random_text(rng, rng.randint(1, 5)), "x") for _ in range(count)]


class TestCompiledMatchesTreeWalk:
    def test_scalar_values_and_errors(self):
        failures = values = 0
        for ast in _random_asts():
            for x in _POINTS:
                got = _outcome(rv.eval_expr, ast, x)
                assert got == _outcome(ref_eval_expr, ast, x), (ast.text, x)
                failures += isinstance(got, tuple)
                values += isinstance(got, str)
        assert failures > 200 and values > 1000  # both paths exercised

    def test_array_nan_exactly_where_scalar_raises(self):
        xs = np.array(_POINTS)
        masked = 0
        for ast in _random_asts():
            new, old = rv.eval_array(ast, xs), ref_eval_array(ast, xs)
            for i, x in enumerate(_POINTS):
                if isinstance(_outcome(ref_eval_expr, ast, x), tuple):
                    assert np.isnan(new[i]), (ast.text, x)
                    masked += not np.isnan(old[i])
                else:
                    assert repr(new[i]) == repr(old[i]), (ast.text, x)
        assert masked > 0  # the reference walk let some failures vanish

    def test_parse_scalar(self):
        for ast in _random_asts(seed=7):
            const = rv.parse_expr(re.sub(r"\bx\b", "2.0", ast.text), None)
            try:
                expected = repr(ref_eval_program(const.program, 0.0))
            except DomainError as exc:
                expected = (str(exc), type(exc.__cause__))
            assert _outcome(rv.parse_scalar, const.text) == expected, const.text

    @pytest.mark.parametrize("text", [
        "+".join(["x"] * 300),                   # a long left-leaning chain
        "sqrt(" * 60 + "x" + ")" * 60,           # nested calls
        "-" * 100 + "x",
        "(" * 45 + "x" + "+1)" * 45,
        "exp(" * 5 + "-(" * 40 + "x" + ")" * 45,
    ])
    def test_deep_expressions(self, text):
        ast = rv.parse_expr(text, "x")
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert _outcome(rv.eval_expr, ast, x) == _outcome(ref_eval_expr, ast, x)
        xs = np.array([-1.0, 0.0, 0.5, 2.0])
        assert repr(rv.eval_array(ast, xs)) == repr(ref_eval_array(ast, xs))

    def test_failure_order_kept(self):
        # The left operand fails first, so its message wins.
        ast = rv.parse_expr("sqrt(x) + log(x) + 1/0", "x")
        with pytest.raises(DomainError, match=r"sqrt\(-1.0\)"):
            rv.eval_expr(ast, -1.0)
        with pytest.raises(DomainError, match="log"):
            rv.eval_expr(ast, 0.0)
        with pytest.raises(DomainError, match="'/' failed on"):
            rv.eval_expr(ast, 1.0)

    def test_compiled_once_and_not_part_of_the_value(self):
        ast = rv.parse_expr("x^2 - 1", "x")
        assert rv.parse_expr("x^2 - 1", "x") is ast
        rv.parse_expr.cache_clear()
        fresh = rv.parse_expr("x^2 - 1", "x")
        assert fresh is not ast and fresh.scalar is not ast.scalar
        assert ast == fresh and hash(ast) == hash(fresh) and repr(ast) == repr(fresh)
        rv.parse_expr.cache_clear()
        copy = pickle.loads(pickle.dumps(ast))
        assert copy == ast and copy is not ast
        assert copy(0.5) == rv.eval_expr(ast, 0.5)
        assert repr(rv.eval_array(copy, np.linspace(0, 1, 5))) == repr(
            rv.eval_array(ast, np.linspace(0, 1, 5)))

    def test_folded_constant_and_bare_variable_check_finiteness(self):
        with pytest.raises(rv.InvalidRegionError, match=re.escape(
                "upper curve '1e999' is undefined at x=0.0")) as err:
            rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1e999", "x"))
        assert str(err.value.__cause__) == "'1e999' is not finite at 0.0"
        with pytest.raises(DomainError, match=re.escape("'x' is not finite at inf")):
            rv.eval_expr(rv.parse_expr("x", "x"), math.inf)

    def test_constant_folds_without_code(self):
        # parse_scalar runs no generated code when every operation succeeds.
        assert rv.parse_scalar("-sqrt(3)/2 + 2^-1") == -math.sqrt(3) / 2 + 0.5
        with pytest.raises(DomainError) as err:
            rv.parse_scalar("1 + 1/0")
        assert str(err.value) == "'/' failed on (1.0, 0.0)"
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("text,x,message,cause", [
        ("1/x", 0.0, "'/' failed on (1.0, 0.0)", ZeroDivisionError),
        ("1/(x-x)", 2.0, "'/' failed on (1.0, 0.0)", ZeroDivisionError),
        ("x^0.5", -1.0, "'^' failed on (-1.0, 0.5)", ValueError),
        ("x^-1", 0.0, "'^' failed on (0.0, -1.0)", ValueError),
        ("10^x", 400.0, "'^' failed on (10.0, 400.0)", OverflowError),
        ("sqrt(x)", -1.0, "sqrt(-1.0) is undefined", ValueError),
        ("sin(x)", math.inf, "sin(inf) is undefined", ValueError),
        ("cos(x)", -math.inf, "cos(-inf) is undefined", ValueError),
        ("tan(x)", math.inf, "tan(inf) is undefined", ValueError),
        ("asin(x)", 2.0, "asin(2.0) is undefined", ValueError),
        ("acos(x)", -2.0, "acos(-2.0) is undefined", ValueError),
        ("atan(x)", math.nan, "'atan(x)' is not finite at nan", None),
        ("exp(x)", 1000.0, "exp(1000.0) is undefined", OverflowError),
        ("log(x)", 0.0, "log(0.0) is undefined", ValueError),
        ("log(x)", -1.0, "log(-1.0) is undefined", ValueError),
        ("abs(x)", math.inf, "'abs(x)' is not finite at inf", None),
        ("x*1e308*10", 1.0, "'x*1e308*10' is not finite at 1.0", None),
        pytest.param("x*2", 10**400, f"'x*2' is not finite at {10**400!r}", OverflowError,
                     id="int-beyond-float-range"),
    ])
    def test_error_messages_pinned(self, text, x, message, cause):
        with pytest.raises(DomainError) as err:
            rv.eval_expr(rv.parse_expr(text, "x"), x)
        assert str(err.value) == message
        assert (err.value.__cause__ is None) if cause is None else (
            type(err.value.__cause__) is cause)

    @pytest.mark.parametrize("text,message,cause", [
        ("1e308*10", "non-finite scalar '1e308*10'", None),
        ("1e999", "non-finite scalar '1e999'", None),
        ("1/0", "'/' failed on (1.0, 0.0)", ZeroDivisionError),
        ("(0-1)^0.5", "'^' failed on (-1.0, 0.5)", ValueError),
    ])
    def test_constant_error_messages_pinned(self, text, message, cause):
        with pytest.raises(DomainError) as err:
            rv.parse_scalar(text)
        assert str(err.value) == message
        assert (err.value.__cause__ is None) if cause is None else (
            type(err.value.__cause__) is cause)

    def test_checked_evaluator_compiled_on_first_failure(self, monkeypatch):
        compiled = []
        real = expr._compile

        def counting(*args, **kwargs):
            compiled.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(expr, "_compile", counting)
        rv.parse_expr.cache_clear()
        try:
            ast = rv.parse_expr("sqrt(1 - x^2)/(x + 2)", "x")
            for x in (-1.0, -0.5, 0.0, 0.25, 1.0):
                assert rv.eval_expr(ast, x) == ref_eval_expr(ast, x)
            assert len(compiled) == 1  # a curve that never fails: one function
            for _ in range(2):
                with pytest.raises(DomainError, match=re.escape("sqrt(-3.0) is undefined")):
                    rv.eval_expr(ast, 2.0)
            assert len(compiled) == 2  # the checked one, once
            assert rv.eval_expr(ast, 0.5) == ref_eval_expr(ast, 0.5)
        finally:
            rv.parse_expr.cache_clear()

    @pytest.mark.parametrize("text", ["x + __import__('os')", "__import__", "x.__class__",
                                      "b1", "t0", "evaluate(x)", "x; 1", "x\n1"])
    def test_source_text_never_reaches_the_compiler(self, text):
        with pytest.raises((ExprSyntaxError, UnknownIdentifierError)):
            rv.parse_expr(text, "x")


class TestCodeCache:
    """The generated source holds no constant, so expressions of one shape
    compile to one code object, each run with its own constants."""

    def test_same_shape_compiles_once_and_keeps_its_values(self):
        rv.parse_expr.cache_clear()
        expr._code.cache_clear()
        try:
            one = rv.parse_expr("sqrt(1-x^2)", "x")
            assert expr._code.cache_info().misses == 1
            two = rv.parse_expr("sqrt(2-x^2)", "x")
            assert expr._code.cache_info().misses == 1  # the scalar source recurs
            for name in ("scalar", "array", "interval", "defined_interval"):
                assert getattr(one, name).__code__ is getattr(two, name).__code__
            # The two interval tables call a helper for every operation, so
            # their sources are the same: three sources in all.
            assert expr._code.cache_info().misses == 3
            xs = np.linspace(-1.0, 1.0, 9)
            for ast, r2 in ((one, 1.0), (two, 2.0)):
                for x in xs:
                    assert rv.eval_expr(ast, x) == math.sqrt(r2 - x * x) == ref_eval_expr(ast, x)
                assert repr(rv.eval_array(ast, xs)) == repr(ref_eval_array(ast, xs))
                lo, hi = ast.interval((0.0, 0.5))
                assert all(lo <= ast(x) <= hi for x in np.linspace(0.0, 0.5, 11))
                assert ast.defined_interval((0.0, 0.5)) == (lo, hi)
            assert one.interval((0.0, 0.5))[1] < 1.01 < two.interval((0.0, 0.5))[0]
            assert one.defined_interval((0.0, 1.2)) is None
            assert two.defined_interval((0.0, 1.2)) is not None
        finally:
            rv.parse_expr.cache_clear()

    def test_a_folded_constant_leaves_no_gap_in_the_names(self):
        # -0.5 folds from 0.5 and its negation: folded, the expression has
        # the shape of 0.75 - 0.5*x, so it has its code too.
        rv.parse_expr.cache_clear()
        try:
            one = rv.parse_expr("-0.5 - 0.5*x", "x")
            two = rv.parse_expr("0.75 - 0.5*x", "x")
            for name in ("scalar", "array", "interval", "defined_interval"):
                assert getattr(one, name).__code__ is getattr(two, name).__code__
            xs = np.linspace(-1.0, 1.0, 9)
            for ast, c in ((one, -0.5), (two, 0.75)):
                for x in xs:
                    assert rv.eval_expr(ast, x) == c - 0.5 * x == ref_eval_expr(ast, x)
                assert repr(rv.eval_array(ast, xs)) == repr(ref_eval_array(ast, xs))
                lo, hi = ast.interval((0.0, 1.0))
                assert lo <= c - 0.5 < c <= hi
        finally:
            rv.parse_expr.cache_clear()

    def test_checked_twin_names_its_own_text(self):
        rv.parse_expr.cache_clear()
        try:
            for text in ("x*1e308*10", "x*1e300*1e10"):
                with pytest.raises(DomainError) as err:
                    rv.eval_expr(rv.parse_expr(text, "x"), 1.0)
                assert str(err.value) == f"{text!r} is not finite at 1.0"
        finally:
            rv.parse_expr.cache_clear()

    def test_cache_is_bounded(self):
        assert expr._code.cache_info().maxsize == expr._CODE_CACHE_SIZE
        try:
            for k in range(expr._CODE_CACHE_SIZE + 5):
                expr._code(f"def evaluate(x):\n    return x + {k}\n")
            assert expr._code.cache_info().currsize == expr._CODE_CACHE_SIZE
        finally:
            expr._code.cache_clear()

    def test_reparse_after_clearing_gives_equal_values(self):
        texts = ["sqrt(1-x^2)", "sqrt(2-x^2)", "x^3 - 2*x + exp(-x)", "1/(x+3)"]
        xs = np.linspace(-1.0, 1.0, 7)

        def values(ast):
            return ([ast(x) for x in xs], repr(rv.eval_array(ast, xs)),
                    ast.interval((-0.5, 0.5)), ast.defined_interval((-0.5, 0.5)))

        before = [values(rv.parse_expr(text, "x")) for text in texts]
        rv.parse_expr.cache_clear()
        expr._code.cache_clear()
        try:
            assert [values(rv.parse_expr(text, "x")) for text in texts] == before
        finally:
            rv.parse_expr.cache_clear()


# ---------------------------------------------------------------------------
# The compiler against the reference compiler it replaces

# The expressions of the README.
_README_TEXTS = ["sqrt(1-x^2)", "sqrt(2-x^2)", "sin(1537*pi*x)^2 + cos(1537*pi*x)^2",
                 "1 + 0.5*sin(1537*pi*x)^64", "sqrt(2)/2", "-pi/3", "pi/4", "-2^2", "2^3^2",
                 "pi*(sqrt(2)+sqrt(3))/3", "0", "1", "1e999", "1/(1/x)", "1.8125", "-0.4375"]

# Constants that make folds fail (sqrt(-1), log(0), 1/0, 0^-1) or leave
# float range (1e308*10, exp(700*2)), besides plain ones.
_FOLD_CONSTS = [0.0, -1.0, 1.0, 2.0, 0.5, -0.5, 3.0, 1e308, 700.0, 1e-320, math.inf]


def _random_program(rng, depth):
    """A random program, built from the top down; a subprogram without x
    folds."""
    kind = rng.random() if depth > 0 else rng.random() * 0.4
    if kind < 0.1:
        return (None,)
    if kind < 0.4:
        return (rng.choice(_FOLD_CONSTS),)
    if kind < 0.5:
        return (*_random_program(rng, depth - 1), "neg")
    if kind < 0.8:
        op = rng.choice("+-*/^")
        return (*_random_program(rng, depth - 1), *_random_program(rng, depth - 1), op)
    func = rng.choice(_FUNCS)
    return (*_random_program(rng, depth - 1), func)


def _fixture_programs(fixtures_dir):
    """The program of every string of the fixtures' regions that parses in
    one of the region variables, or as a constant."""
    programs = []

    def strings(doc):
        if isinstance(doc, str):
            yield doc
        elif isinstance(doc, dict):
            for value in doc.values():
                yield from strings(value)
        elif isinstance(doc, list):
            for value in doc:
                yield from strings(value)

    for path in sorted(fixtures_dir.glob("*.json")):
        for text in strings(json.loads(path.read_text())["region"]):
            for variable in ("x", "y", "theta", None):
                try:
                    programs.append(rv.parse_expr(text, variable).program)
                except (ExprSyntaxError, UnknownIdentifierError):
                    pass
    return programs


def _retry(x):
    return x


def _tables():
    """Each of the seven tables with the keyword its evaluator is compiled with."""
    return [(expr._INLINE_SCALAR, {"retry": _retry}), (expr._SCALAR_TABLE, {"fail": _retry}),
            (expr._array_helpers(), {}),
            *((_intervals.table(arrays, defined), {}) for arrays in (False, True)
              for defined in (False, True))]


class TestCompilerMatchesReference:
    """The source and bound globals of every table are those of the
    reference compiler: helpers the same objects, constants of equal repr."""

    @staticmethod
    def _compiled(compile_fn, program, table, kwargs, sources):
        sources.clear()
        try:
            with np.errstate(all="ignore"):
                fn = compile_fn(program, table, **kwargs)
        except Exception as exc:
            return ("raises", type(exc), str(exc))
        if not sources:
            return ("constant", repr(fn(0.0)))
        bound = [(key, value if callable(value) else repr(value))
                 for key, value in fn.__globals__.items() if key != "evaluate"]
        return (*sources, bound)

    def _assert_same(self, programs, monkeypatch):
        sources = []
        code = expr._code

        def capture(source):
            sources.append(source)
            return code(source)

        monkeypatch.setattr(expr, "_code", capture)
        compiled = 0
        for program in programs:
            for table, kwargs in _tables():
                new = self._compiled(expr._compile, program, table, kwargs, sources)
                old = self._compiled(ref_compile, program, ref_helpers(table), kwargs, sources)
                assert len(new) == len(old), (program, new, old)
                assert new[:-1] == old[:-1], program
                if new[0] not in ("raises", "constant"):
                    compiled += 1
                    assert [key for key, _ in new[-1]] == [key for key, _ in old[-1]], program
                    assert all(a is b if callable(a) else a == b
                               for (_, a), (_, b) in zip(new[-1], old[-1])), (program, new, old)
                else:
                    assert new == old, program
        return compiled

    def test_fixture_curves(self, fixtures_dir, monkeypatch):
        programs = _fixture_programs(fixtures_dir)
        assert len(programs) > 30
        assert self._assert_same(programs, monkeypatch) > 0

    def test_readme_expressions(self, monkeypatch):
        programs = [rv.parse_expr(text, "x").program for text in _README_TEXTS]
        assert self._assert_same(programs, monkeypatch) > 0

    def test_random_asts(self, monkeypatch):
        rng = random.Random(20261019)
        programs = [_random_program(rng, rng.randint(1, 5)) for _ in range(400)]
        assert self._assert_same(programs, monkeypatch) > 300
        # Folds that fail, and constants past float range, were among them.
        failed = nonfinite = 0
        for program in programs:
            for sub in _subprograms(program):
                if None in sub:
                    continue
                try:
                    value = ref_eval_program(sub, 0.0)
                except DomainError:
                    failed += 1
                else:
                    nonfinite += not math.isfinite(value)
        assert failed > 20 and nonfinite > 20


def _subprograms(program):
    """Each subexpression's program, a slice of ``program``: one ends at
    each item."""
    starts = []  # where each value on the stack begins
    for end, item in enumerate(program, 1):
        arity = 0 if item is None or type(item) is float else 2 if item in "+-*/^" else 1
        start = starts[-arity] if arity else end - 1
        del starts[len(starts) - arity:]
        starts.append(start)
        yield program[start:end]


class TestLiteral:
    """A number literal, or its negation, is its float; every other string
    is compiled."""

    @pytest.mark.parametrize("text", [
        "0", "-0", ".5", "5.", "007", "1e-400", "-1e-400", "4.9e-324", "1" * 30, "1e999",
        "-1e999", " 1", "+1", "1_0", "nan", "inf", "--1", ""])
    def test_same_value_or_error_as_compiled(self, text):
        def outcome(fn):
            try:
                return repr(fn(text))
            except Exception as exc:
                return (type(exc), str(exc))

        assert outcome(rv.parse_scalar) == outcome(lambda t: rv.parse_expr(t, None)(0.0))

    def test_skips_the_parse_cache(self):
        rv.parse_expr.cache_clear()
        try:
            before = rv.parse_expr.cache_info().currsize
            assert rv.parse_scalar("1.5") == 1.5
            assert rv.parse_expr.cache_info().currsize == before
        finally:
            rv.parse_expr.cache_clear()


# ---------------------------------------------------------------------------
# The interval evaluator: enclosures of the scalar values

# The interval helpers over floats.
_FLOAT = _intervals.helpers(False)

_EDGES = [0.0, 1.0, -1.0, 0.5, 2.0, -2.0, 3.0, 1e-300, -1e-300, math.pi / 2,
          -math.pi / 2, math.pi, 1e-9, 700.0, 1.5, -0.5]


def _random_interval(rng):
    """A point or a span, with ends at domain edges and poles or random."""
    kind = rng.random()
    if kind < 0.2:
        v = rng.choice(_EDGES)
        return (v, v)
    ends = [rng.choice(_EDGES) if rng.random() < 0.4 else rng.uniform(-4.0, 4.0)
            for _ in range(2)]
    return (min(ends), max(ends))


def _points(rng, box):
    lo, hi = box
    inside = [lo, hi, 0.5 * (lo + hi)] + [rng.uniform(lo, hi) for _ in range(5)]
    return inside + [v for v in _EDGES + [math.floor(lo), math.ceil(hi)] if lo <= v <= hi]


def _assert_encloses(enclosure, fn, *boxes_and_points):
    lo, hi = enclosure
    for args in boxes_and_points:
        try:
            value = fn(*args)
        except DomainError:
            continue  # no value here
        if math.isfinite(value):
            assert lo <= value <= hi, (args, value, enclosure)


class TestIntervalEnclosures:
    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
    def test_binary_operations(self, op):
        scalar = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                  "*": lambda a, b: a * b, "/": expr._divide, "^": expr._power}[op]
        rng = random.Random(op)
        for _ in range(1500):
            x, y = _random_interval(rng), _random_interval(rng)
            if op == "^" and rng.random() < 0.5:
                n = float(rng.randint(-4, 4))  # integer exponents: any base has a value
                y = (n, n)
            pairs = [(a, b) for a in _points(rng, x) for b in _points(rng, y)]
            _assert_encloses(_FLOAT[op](x, y), scalar, *pairs)

    def test_infinite_over_infinite_is_the_whole_line(self):
        # Every corner quotient is inf / inf, NaN: no bound is known.
        assert _FLOAT["/"]((math.inf, math.inf), (math.inf, math.inf)) == (-math.inf, math.inf)

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_periodic_at_a_point_near_the_float_range(self, name):
        # |a| + |b| overflows in the rounding slack of the peak test: no
        # peak is ruled out there, so the bounds are the function's range.
        x = 1.3674786627359863e308
        assert rv.curve(f"{name}(x)", "x").interval((x, x)) == (-1.0, 1.0)
        assert rv.curve(f"{name}(x)", "x").interval((-x, -x)) == (-1.0, 1.0)

    def test_negation(self):
        rng = random.Random(1)
        for _ in range(1000):
            x = _random_interval(rng)
            _assert_encloses(_FLOAT["neg"](x), lambda a: -a,
                             *[(a,) for a in _points(rng, x)])

    @pytest.mark.parametrize("name", sorted(expr._FUNCTIONS))
    def test_functions(self, name):
        scalar = expr._SCALAR_HELPERS[name]
        rng = random.Random(name)
        for _ in range(3000):
            x = _random_interval(rng)
            _assert_encloses(_FLOAT[name](x), scalar,
                             *[(a,) for a in _points(rng, x)])

    @pytest.mark.parametrize("text, box, enclosure", [
        ("sqrt(x)", (0.0, 0.0), (0.0, 0.0)),
        ("sqrt(x)", (-1.0, 4.0), (0.0, 2.0)),          # the negative part is clipped
        ("log(x)", (0.0, 1e-300), (-math.inf, -690.7755278982137)),
        ("asin(x)", (0.5, 1.0), (math.asin(0.5), math.pi / 2)),
        ("acos(x)", (-1.0, -0.5), (2 * math.pi / 3, math.pi)),
        ("asin(x)", (1.0, 2.0), (math.pi / 2, math.pi / 2)),
        ("tan(x)", (1.5, 1.7), (-math.inf, math.inf)),  # across the pole at pi/2
        ("tan(x)", (-0.5, 1.5), (math.tan(-0.5), math.tan(1.5))),
        ("x^0.5", (-1.0, 4.0), (0.0, 2.0)),            # a negative base has no value
        ("x^(-0.5)", (0.0, 4.0), (-math.inf, math.inf)),
        ("x^3", (-2.0, 1.0), (-8.0, 1.0)),
        ("x^2", (-2.0, 1.0), (0.0, 4.0)),
        ("x^(-2)", (-1.0, 1.0), (-math.inf, math.inf)),
        ("1/x", (-1.0, 1.0), (-math.inf, math.inf)),   # the divisor holds 0
        ("1/x", (0.0, 2.0), (-math.inf, math.inf)),
        ("1/x", (0.5, 2.0), (0.5, 2.0)),
        ("sin(x)", (0.0, math.pi), (0.0, 1.0)),
        ("cos(x)", (-1.0, 4.0), (-1.0, 1.0)),
        ("abs(x)", (-3.0, 2.0), (0.0, 3.0)),
        ("exp(x)", (0.0, 1000.0), (1.0, math.inf)),    # overflow above
        ("x/(0-1)", (-1e308, math.inf), (-math.inf, 1e308)),  # quotients whose sum overflows
    ])
    def test_domain_edges(self, text, box, enclosure):
        lo, hi = rv.parse_expr(text, "x").interval(box)
        # Outward rounding moves each end by a few ulps at most.
        assert lo <= enclosure[0] and hi >= enclosure[1]
        assert lo == pytest.approx(enclosure[0], rel=1e-15, abs=1e-300)
        assert hi == pytest.approx(enclosure[1], rel=1e-15, abs=1e-300)

    def test_random_expressions(self):
        rng = random.Random(20261018)
        checked = 0
        for ast in _random_asts():
            for _ in range(10):
                box = _random_interval(rng)
                points = _points(rng, box)
                _assert_encloses(ast.interval(box), lambda a: rv.eval_expr(ast, a),
                                 *[(a,) for a in points])
                checked += len(points)
        assert checked > 30000

    @pytest.mark.parametrize("text, box, defined", [
        ("sqrt(x)", (0.0, 4.0), True),
        ("sqrt(x)", (-1.0, 4.0), False),             # clipped
        ("sqrt(x)*0 + 1", (-1.0, 4.0), False),       # a product with 0 keeps it
        ("sqrt(1 - x^2)", (0.5, 0.9), True),
        ("sqrt(1 - x^2)", (0.5, 1.0), False),        # outward rounding dips below 0
        ("log(x)", (0.0, 1.0), False),               # unbounded
        ("log(x)", (0.5, 1.0), True),
        ("asin(x)", (1.0, 2.0), False),
        ("acos(x)", (-1.0, 1.0), True),
        ("x^0.5", (-1.0, 4.0), False),
        ("x^0.5", (0.0, 4.0), True),
        ("x^2", (-2.0, 1.0), True),
        ("x^(-2)", (-1.0, 1.0), False),
        ("(-8)^x", (1.0, 2.0), False),
        ("1/x", (0.5, 2.0), True),
        ("1/x", (-1.0, 1.0), False),
        ("tan(x)", (1.5, 1.7), False),
        ("exp(x)", (0.0, 1000.0), False),
        ("1e999*0 + x", (0.0, 1.0), False),
        ("abs(x) + sin(x)", (-3.0, 2.0), True),
    ])
    def test_defined_only_enclosures(self, text, box, defined):
        ast = rv.parse_expr(text, "x")
        got = ast.defined_interval(box)
        assert (got is not None) == defined
        if defined:
            assert got == ast.interval(box)

    def test_defined_only_random_expressions(self):
        # A finite defined-only enclosure is the clipped one, and every point
        # of its interval evaluates.
        rng = random.Random(11)
        certified = 0
        for ast in _random_asts():
            for _ in range(10):
                box = _random_interval(rng)
                got = ast.defined_interval(box)
                if got is None:
                    continue
                certified += 1
                assert got == ast.interval(box)
                assert all(math.isfinite(rv.eval_expr(ast, a)) for a in _points(rng, box))
        assert certified > 100

    def test_compiled_on_first_use(self):
        rv.parse_expr.cache_clear()
        ast = rv.parse_expr("sqrt(1 - x^2)", "x")
        assert "interval" not in vars(ast) and "array" not in vars(ast)
        assert ast.interval((0.0, 1.0)) == ast.interval((0.0, 1.0))
        assert "interval" in vars(ast) and "array" not in vars(ast)


# ---------------------------------------------------------------------------
# The array interval table: many boxes per call

_SCALAR_OPERATIONS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
                      "/": expr._divide, "^": expr._power, "neg": lambda a: -a}
# Correctly rounded in numpy as in Python: the array ends are the float ones,
# signed zeros included.
_EXACT = {"+", "-", "*", "/", "neg", "abs"}

# Every box (a <= b) with ends among these: the infinities, the float range's
# edge, poles, peaks and domain edges, and both zeros.
_SPECIAL_ENDS = [sign * v for v in (math.inf, 1e308, 4.0, 3.0, math.pi / 2, 1.0, 0.5, 0.0)
                 for sign in (1.0, -1.0)]
_SPECIAL_BOXES = [(a, b) for a in _SPECIAL_ENDS for b in _SPECIAL_ENDS if a <= b]


def _random_box(rng):
    """``_random_interval``, or now and then a box with an infinite end."""
    if rng.random() < 0.1:
        return rng.choice([(0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf),
                           (-math.inf, -math.inf), (1.0, math.inf), (-math.inf, math.inf)])
    return _random_interval(rng)


def _ulps_inside(array_end, scalar_end, side):
    """How far ``array_end`` lies inside ``scalar_end``, in ulps: 0 where it
    is the same or outside (side -1 for a lower end, +1 for an upper)."""
    steps = 0
    while side * (scalar_end - array_end) > 0.0 and steps < 3:
        array_end = math.nextafter(array_end, side * math.inf)
        steps += 1
    return steps


def _compare_to_scalar(got, want):
    """'equal' (signed zeros included), 'wider' or 'one ulp inside': how the
    array enclosure ``got`` stands to the float one ``want``; anything else
    fails."""
    if all(repr(g) == repr(w) for g, w in zip(got, want)):
        return "equal"
    inside = max(_ulps_inside(got[0], want[0], -1), _ulps_inside(got[1], want[1], 1))
    assert inside <= 1, (got, want)
    return "wider" if inside == 0 else "one ulp inside"


class TestArrayIntervalTable:
    """``ExprAst.intervals`` and ``defined_intervals`` against the float
    helpers, box by box."""

    @pytest.mark.parametrize("op", sorted(_SCALAR_OPERATIONS) + sorted(expr._FUNCTIONS))
    def test_each_helper_against_the_scalar_one(self, op):
        rng = random.Random(f"array {op}")
        arity = 2 if op in "+-*/^" else 1
        boxes = []
        for _ in range(2000):
            box = [_random_box(rng) for _ in range(arity)]
            if op == "^" and rng.random() < 0.5:
                n = float(rng.randint(-4, 4))  # even and odd integer powers
                box[1] = (n, n)
            boxes.append(box)
        sampled = len(boxes)
        boxes += itertools.product(_SPECIAL_BOXES, repeat=arity)
        operands = [tuple(np.array([b[k][end] for b in boxes]) for end in (0, 1)) for k in range(arity)]
        helper = _intervals.helpers(True)[op]
        with np.errstate(all="ignore"):
            lo, hi = (np.broadcast_to(v, len(boxes)) for v in helper(*operands))
        scalar = _SCALAR_OPERATIONS.get(op) or expr._SCALAR_HELPERS[op]
        seen = {"equal": 0, "wider": 0, "one ulp inside": 0}
        for i, box in enumerate(boxes):
            got = (float(lo[i]), float(hi[i]))
            seen[_compare_to_scalar(got, _FLOAT[op](*box))] += 1
            finite = all(math.isfinite(end) for b in box for end in b)
            if i < sampled and finite:  # past an infinity, no promise
                _assert_encloses(got, scalar, *itertools.product(*(_points(rng, b) for b in box)))
        if op in _EXACT:
            assert seen["equal"] == len(boxes), seen
        assert seen["equal"] > len(boxes) // 2, seen

    @pytest.mark.parametrize("op", sorted(_SCALAR_OPERATIONS) + sorted(expr._FUNCTIONS))
    def test_a_nan_end_as_the_float_helper(self, op):
        # Past a NaN end there is no promise, but both arithmetics give the
        # same ends, and keep a NaN that min and max would drop.
        ends = [math.nan, -math.inf, -1.0, -0.0, 0.0, 2.0, 1e308, math.inf]
        boxes = [(a, b) for a in ends for b in ends if math.isnan(a) or math.isnan(b) or a <= b]
        arity = 2 if op in "+-*/^" else 1
        cases = [c for c in itertools.product(boxes, repeat=arity)
                 if any(math.isnan(end) for box in c for end in box)]
        operands = [tuple(np.array([c[k][end] for c in cases]) for end in (0, 1)) for k in range(arity)]
        with np.errstate(all="ignore"):
            lo, hi = (np.broadcast_to(v, len(cases)) for v in _intervals.helpers(True)[op](*operands))
        for i, case in enumerate(cases):
            assert _compare_to_scalar((float(lo[i]), float(hi[i])), _FLOAT[op](*case)) == "equal"
        if op == "^":
            assert all(map(math.isnan, _FLOAT["^"]((-math.inf, math.nan), (-3.0, -3.0))))

    @pytest.mark.parametrize("text, box", [
        ("0*x", (math.inf, math.inf)),          # zero times infinity is 0
        ("x*(1/x)", (0.0, math.inf)),
        ("1/x", (-1.0, 1.0)), ("1/x", (0.0, 2.0)), ("1/(x-x)", (0.0, 1.0)),  # a divisor that may be 0
        ("x^2", (-2.0, 1.0)), ("x^3", (-2.0, 1.0)), ("x^(-2)", (-1.0, 1.0)),
        ("x^(-3)", (0.5, 2.0)), ("x^0.5", (-1.0, 4.0)), ("(-8)^x", (1.0, 2.0)),
        ("sin(x)", (0.0, math.pi)), ("cos(x)", (-1.0, 4.0)), ("sin(x)", (1.5, 1.6)),
        ("cos(x)", (3.1, 3.2)), ("cos(x)", (-0.1, 0.1)),      # a peak inside
        ("tan(x)", (1.5, 1.7)), ("tan(x)", (-0.5, 1.5)),       # across the pole, and not
        ("exp(x)", (0.0, 1000.0)), ("log(x)", (0.0, 1.0)), ("sqrt(1 - x^2)", (0.5, 1.0)),
        ("abs(x) + sin(x)", (-3.0, 2.0)), ("1e999*0 + x", (0.0, 1.0)),
        ("x/(0-1)", (-1e308, math.inf)),  # quotients whose sum overflows
    ])
    def test_edge_boxes(self, text, box):
        ast = rv.parse_expr(text, "x")
        lo, hi = (np.array([end]) for end in box)
        got = tuple(float(v[0]) for v in ast.intervals((lo, hi)))
        exact = all(type(item) is not str or item in _EXACT for item in ast.program)
        assert _compare_to_scalar(got, ast.interval(box)) in (("equal",) if exact else
                                                              ("equal", "wider"))
        d_lo, d_hi, defined = ast.defined_intervals((lo, hi))
        assert (float(d_lo[0]), float(d_hi[0])) == got
        assert bool(defined[0]) == (ast.defined_interval(box) is not None)

    def test_random_expressions(self):
        # The enclosures hold every scalar value at sampled points of each
        # box; the defined-only twin fails exactly where the scalar one is
        # None, and its enclosure is the plain one.
        rng = random.Random(20261020)
        seen = {"equal": 0, "wider": 0, "one ulp inside": 0, "defined": 0}
        for ast in _random_asts():
            boxes = [_random_interval(rng) for _ in range(12)]
            lo, hi = (np.array([b[end] for b in boxes]) for end in (0, 1))
            got_lo, got_hi = ast.intervals((lo, hi))
            d_lo, d_hi, defined = ast.defined_intervals((lo, hi))
            assert np.array_equal(d_lo, got_lo, equal_nan=True)
            assert np.array_equal(d_hi, got_hi, equal_nan=True)
            for i, box in enumerate(boxes):
                got = (float(got_lo[i]), float(got_hi[i]))
                _assert_encloses(got, lambda a: rv.eval_expr(ast, a),
                                 *[(a,) for a in _points(rng, box)])
                want = ast.defined_interval(box)
                assert bool(defined[i]) == (want is not None), (ast.text, box)
                seen["defined"] += want is not None
                # Each operation may put an end one ulp inside; that adds up
                # along a chain, so only the single operations above are
                # held to one ulp.
                if want is not None and got != want:
                    seen["wider" if got[0] <= want[0] and got[1] >= want[1] else "one ulp inside"] += 1
                else:
                    seen["equal"] += want is not None
        assert seen["defined"] > 1000 and seen["equal"] > seen["defined"] // 2, seen

    def test_built_on_first_use(self):
        rv.parse_expr.cache_clear()
        ast = rv.parse_expr("sqrt(1 - x^2)", "x")
        assert "intervals" not in vars(ast) and "defined_intervals" not in vars(ast)
        box = (np.array([0.0, 0.5]), np.array([0.5, 1.0]))
        assert ast.defined_intervals(box)[2].tolist() == [True, False]
        assert "defined_intervals" in vars(ast) and "intervals" not in vars(ast)

    def test_constant_expressions_take_the_boxes_shape(self):
        box = (np.zeros((2, 3)), np.ones((2, 3)))
        for text in ("2", "pi/2", "x*0 + 1"):
            lo, hi, defined = rv.parse_expr(text, "x").defined_intervals(box)
            assert lo.shape == hi.shape == defined.shape == (2, 3) and defined.all()
        lo, hi, defined = rv.parse_expr("1e999", "x").defined_intervals(box)
        assert not defined.any()
