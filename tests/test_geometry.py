import math

import numpy as np
import pytest

import revolve as rv
from revolve.errors import InvalidAxisError

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
