import math

import numpy as np
import pytest

import revolve as rv
from revolve.errors import InvalidAxisError
from revolve.expr import _iadd, _ilift, _imul
from revolve.geometry import axis_form

from helpers import RigidMotion, apply_motion, apply_motion_axis


class TestAxis:
    def test_normalization(self):
        axis = rv.Axis(2.0, 0.0, 4.0)
        assert (axis.a, axis.b, axis.c) == (1.0, 0.0, 2.0)

    def test_sign_convention(self):
        assert rv.Axis(-1.0, 0.0, 3.0) == rv.Axis(1.0, 0.0, -3.0)
        axis = rv.Axis(0.0, -2.0, 2.0)
        assert (axis.a, axis.b, axis.c) == (0.0, 1.0, -1.0)

    def test_unit_normal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = rng.uniform(-5, 5, size=3)
            if abs(a) + abs(b) < 1e-3:
                continue
            axis = rv.Axis(a, b, c)
            assert abs(axis.a**2 + axis.b**2 - 1.0) <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidAxisError):
            rv.Axis(0.0, 0.0, 1.0)
        with pytest.raises(InvalidAxisError):
            rv.Axis(math.nan, 1.0, 0.0)

    def test_overflowing_norm_scaled_first(self):
        # hypot(1.7e308, 1.7e308) overflows; dividing by it gave a = b = c = 0.
        axis = rv.Axis(1.7e308, 1.7e308, 0.0)
        assert axis == rv.Axis(1.0, 1.0, 0.0)
        assert abs(axis.a**2 + axis.b**2 - 1.0) <= 1e-15

    def test_non_finite_normalized_coefficient_rejected(self):
        # c / hypot(a, b) = 1e310 is beyond float range.
        with pytest.raises(InvalidAxisError, match="do not normalize to finite values"):
            rv.Axis(1e-300, 0.0, 1e10)

    def test_constructors(self):
        assert rv.Axis.vertical(2.0) == rv.Axis(1.0, 0.0, -2.0)
        assert rv.Axis.horizontal(-1.0) == rv.Axis(0.0, 1.0, 1.0)


class TestSignedDistance:
    def test_y_axis(self):
        assert rv.signed_distance(rv.Axis(1, 0, 0), rv.Point(2, 3)) == 2.0

    def test_point_on_line(self):
        assert rv.signed_distance(rv.Axis(0, 1, 1), rv.Point(0, -1)) == 0.0

    def test_oblique_line(self):
        axis = rv.Axis(1.0, 1.0, -2.0)  # x + y = 2
        d = rv.signed_distance(axis, rv.Point(0.0, 0.0))
        assert d == pytest.approx(-math.sqrt(2), abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        axis = rv.Axis(*rng.uniform(-2, 2, size=3))
        for _ in range(25):
            px, py, qx, qy = rng.uniform(-4, 4, size=4)
            lhs = rv.signed_distance(axis, rv.Point(px + qx, py + qy)) \
                + rv.signed_distance(axis, rv.Point(0, 0))
            rhs = rv.signed_distance(axis, rv.Point(px, py)) \
                + rv.signed_distance(axis, rv.Point(qx, qy))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _bits(values):
    """The bit patterns of float64 values: equal only where the values are
    the same doubles, -0.0 apart from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _seeded_axes(rng, n=12):
    return [rv.Axis(*rng.uniform(-3, 3, size=3)) for _ in range(n)] + [
        rv.Axis.vertical(-2.5), rv.Axis.horizontal(0.0), rv.Axis(1.0, -1.0, 0.0)]


def _seeded_coordinates(rng, n=400):
    """Coordinates of every size up to 1e150, with +-0.0 among them."""
    values = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-150, 151, n)
    values[:8] = [0.0, -0.0, 0.0, -0.0, 1e150, -1e150, 7e149, -3e-150]
    return rng.permutation(values)


class TestAxisForm:
    """``axis_form`` is the one spelling of a*x + b*y + c: floats, numpy
    arrays and interval enclosures give the same form in the same order."""

    def test_floats_are_the_expression(self):
        rng = np.random.default_rng(21)
        xs, ys = _seeded_coordinates(rng), _seeded_coordinates(rng)
        for axis in _seeded_axes(rng):
            for x, y in zip(xs.tolist(), ys.tolist()):
                want = axis.a * x + axis.b * y + axis.c
                got = axis_form(axis, x, y)
                assert type(got) is float and _bits(got) == _bits(want), (axis, x, y)
                assert _bits(rv.signed_distance(axis, rv.Point(x, y))) == _bits(want)

    def test_arrays_are_the_floats_bit_for_bit(self):
        rng = np.random.default_rng(22)
        xs, ys = _seeded_coordinates(rng), _seeded_coordinates(rng)
        for axis in _seeded_axes(rng):
            want = [axis_form(axis, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
            assert np.array_equal(_bits(axis_form(axis, xs, ys)), _bits(want)), axis

    def test_intervals_are_the_interval_expression_and_enclose_it(self):
        rng = np.random.default_rng(23)
        for axis in _seeded_axes(rng):
            for _ in range(40):
                scale = 10.0 ** rng.integers(-3, 4)
                x = tuple(sorted(rng.uniform(-scale, scale, 2).tolist()))
                y = tuple(sorted(rng.uniform(-scale, scale, 2).tolist()))
                got = axis_form(axis, x, y, _iadd, _imul, _ilift)
                a, b, c = (_ilift(k) for k in (axis.a, axis.b, axis.c))
                assert got == _iadd(_iadd(_imul(a, x), _imul(b, y)), c)
                for u, v in rng.uniform(0.0, 1.0, (8, 2)).tolist():
                    px, py = x[0] + u * (x[1] - x[0]), y[0] + v * (y[1] - y[0])
                    assert got[0] <= axis_form(axis, px, py) <= got[1]
                for px in x:  # the corners too
                    for py in y:
                        assert got[0] <= axis_form(axis, px, py) <= got[1]


class TestRigidMotion:
    def test_identity(self):
        m = RigidMotion(0.0, (0.0, 0.0))
        assert apply_motion(m, rv.Point(1.5, -2.5)) == rv.Point(1.5, -2.5)

    def test_quarter_turn(self):
        m = RigidMotion(math.pi / 2, (0.0, 0.0))
        p = apply_motion(m, rv.Point(1.0, 0.0))
        assert p.x == pytest.approx(0.0, abs=1e-15)
        assert p.y == pytest.approx(1.0, abs=1e-15)

    def test_rotate_vertical_axis_to_horizontal(self):
        m = RigidMotion(math.pi / 2, (0.0, 0.0))
        moved = apply_motion_axis(m, rv.Axis.vertical(1.0))
        want = rv.Axis.horizontal(1.0)
        assert moved.a == pytest.approx(want.a, abs=1e-12)
        assert moved.b == pytest.approx(want.b, abs=1e-12)
        assert moved.c == pytest.approx(want.c, abs=1e-12)

    def test_distance_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            axis = rv.Axis(*rng.uniform(-2, 2, size=3))
            m = RigidMotion(rng.uniform(0, 2 * math.pi),
                               tuple(rng.uniform(-3, 3, size=2)))
            p = rv.Point(*rng.uniform(-4, 4, size=2))
            before = abs(rv.signed_distance(axis, p))
            after = abs(rv.signed_distance(apply_motion_axis(m, axis),
                                           apply_motion(m, p)))
            assert after == pytest.approx(before, abs=1e-12)
