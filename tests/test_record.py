"""revolve's value records against the frozen dataclasses they replace:
the same repr, equality and hash, frozen, and built by position, keyword or
default."""

import dataclasses
import importlib
import inspect
import math

import pytest

import revolve as rv
from revolve import _record
from revolve.methods import CentroidReport, ComparisonReport, MethodFailure, VolumeReport


def _samples():
    """One instance of every record type."""
    lower, upper = rv.curve("0", "x"), rv.curve("1 - x^2", "x")
    square = rv.Polygon((rv.Point(1, 0), rv.Point(2, 0), rv.Point(2, 1), rv.Point(1, 1)))
    report = VolumeReport("shell", 2.5, 1e-9, 45, 0.01)
    failure = MethodFailure("disk", "UnsupportedMethod", "needs a vertical axis")
    return [
        rv.parse_expr("x^2 - 1", "x"),
        rv.Point(1.0, -2.0), rv.Axis(3.0, -4.0, 5.0),
        rv.Tolerance(), rv.QuadratureResult(1.0, 1e-12, 15), report,
        CentroidReport(rv.Point(0.5, 0.25), 1.0), rv.McConfig(1000, 3), failure,
        ComparisonReport((report,), (failure,), "single"),
        rv.JobConfig(square, rv.Axis.vertical(0.0)),
        rv.NormalX(0.0, 1.0, lower, upper),
        rv.NormalY(0.0, 1.0, rv.curve("0", "y"), rv.curve("1 + y", "y")),
        rv.PolarSector(0.0, 1.0, rv.curve("0", "theta"), rv.curve("1", "theta")),
        square, rv.UnionRegion((square,)),
    ]


def _params():
    """Each of ``_samples()`` under its type's name, and a second record of
    1, 2 and 3 fields under an id of its own."""
    more = {"Polygon-triangle": rv.Polygon((rv.Point(0.0, 0.0), rv.Point(1.5, 0.0),
                                            rv.Point(0.0, 2.5))),
            "Point-signed-zero": rv.Point(-0.0, 0.0), "Axis-vertical": rv.Axis.vertical(-1.5)}
    return [*(pytest.param(s, id=type(s).__name__) for s in _samples()),
            *(pytest.param(s, id=name) for name, s in more.items())]


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def _dataclass_twin(cls):
    """The frozen dataclass of ``cls``'s fields and defaults, as revolve
    declared its types before: ExprAst keeps its own hash."""
    names = cls._fields
    spec = []
    for name in names:
        if name in vars(cls):
            spec.append((name, object, dataclasses.field(default=vars(cls)[name])))
        else:
            spec.append(name)
    namespace = {"__hash__": rv.ExprAst.__hash__} if cls is rv.ExprAst else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


class TestRecordTypes:
    def test_every_record_type_is_sampled(self):
        found = set()
        for module in ("expr", "geometry", "quadrature", "methods", "config", "region"):
            for obj in vars(importlib.import_module(f"revolve.{module}")).values():
                if inspect.isclass(obj) and obj.__dict__.get("__setattr__") is _record._setattr:
                    found.add(obj)
        assert len(found) == 16
        assert found == {type(s) for s in _samples()}

    @pytest.mark.parametrize("record", _params())
    def test_repr_equality_and_hash_are_the_dataclass_ones(self, record):
        twin = _dataclass_twin(type(record))(*_values(record))
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        same = type(record)(*_values(record))
        assert record == same and not record != same and hash(record) == hash(same)
        # Another class never compares equal, even with the same fields.
        assert record.__eq__(twin) is NotImplemented
        assert record != twin

    @pytest.mark.parametrize("record", _params())
    def test_frozen(self, record):
        for name in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "other")

    @pytest.mark.parametrize("record", _params())
    def test_positional_and_keyword_construction(self, record):
        cls, values = type(record), _values(record)
        assert cls(*values) == cls(**dict(zip(cls._fields, values)))
        assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == cls(*values)
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, unknown=1)
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})  # given twice

    def test_defaults(self):
        assert rv.Tolerance() == rv.Tolerance(1e-10, 1e-12, 50)
        assert rv.Tolerance(rel=1e-8, max_depth=7) == rv.Tolerance(1e-8, 1e-12, 7)
        assert rv.McConfig() == rv.McConfig(1_000_000, 0)
        assert rv.McConfig(seed=5).samples == 1_000_000
        square = rv.Polygon((rv.Point(1, 0), rv.Point(2, 0), rv.Point(2, 1)))
        axis = rv.Axis.vertical(0.0)
        assert rv.JobConfig(square, axis) == rv.JobConfig(
            square, axis, "double_integral", rv.Tolerance(), rv.McConfig(), "json")
        with pytest.raises(TypeError, match="missing"):
            rv.JobConfig(square)

    def test_post_init_runs_after_the_fields_are_set(self):
        axis = rv.Axis(a=0.0, b=-2.0, c=4.0)
        assert (axis.a, axis.b, axis.c) == (0.0, 1.0, -2.0)
        with pytest.raises(ValueError, match="non-finite point"):
            rv.Point(y=math.inf, x=0.0)
        with pytest.raises(rv.InvalidRegionError):
            rv.NormalX(x_min=1.0, x_max=0.0, lower=rv.curve("0", "x"), upper=rv.curve("1", "x"))

    def test_post_init_is_looked_up_at_each_construction(self, monkeypatch):
        # As with dataclasses: a __post_init__ replaced on the class (a
        # tracer's wrapper, say) runs from then on.
        calls = []
        for cls in (rv.Point, rv.NormalX):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, run=cls.__post_init__: calls.append(self) or run(self))
        point = rv.Point(1.0, 2.0)
        region = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))
        assert calls == [point, region]
        assert region.x_max == 1.0

    def test_equal_fields_in_different_region_types_stay_unequal(self):
        lo, hi = rv.curve("0", "t"), rv.curve("1", "t")
        nx, ny = rv.NormalX(0.0, 1.0, lo, hi), rv.NormalY(0.0, 1.0, lo, hi)
        assert _values(nx) == _values(ny)
        assert nx != ny
        assert len({nx, ny}) == 2
        assert _values(rv.Point(1000, 3)) == _values(rv.McConfig(1000, 3))
        assert rv.Point(1000, 3) != rv.McConfig(1000, 3)

    def test_expr_ast_compares_without_its_evaluator(self):
        a = rv.parse_expr("x + 1", "x")
        b = rv.ExprAst(a.text, a.variable)
        assert a == b and hash(a) == hash(b) == hash(("x + 1", "x"))
        assert repr(b) == "ExprAst(text='x + 1', variable='x')" and b.program == a.program
        assert "scalar" not in repr(b) and b.scalar(2.0) == 3.0
        # cached_property still writes to a frozen record.
        assert a.interval is a.interval
        lo, hi = a.interval((0.0, 1.0))
        assert lo <= 1.0 and hi >= 2.0

    def test_a_class_defined_method_is_kept(self):
        @_record.record
        class Pair:
            left: int
            right: int = 2

            def __repr__(self):
                return "pair"

        assert repr(Pair(1)) == "pair"
        assert Pair(1) == Pair(left=1, right=2)
        assert Pair.__init__.__qualname__.endswith("Pair.__init__")
        assert Pair._fields == ("left", "right")

    def test_field_order_and_defaults_are_checked(self):
        with pytest.raises(TypeError, match="follows one with a default"):
            @_record.record
            class Bad:
                a: int = 1
                b: int
        with pytest.raises(TypeError, match="1 to 6 fields"):
            @_record.record
            class Empty:
                pass
