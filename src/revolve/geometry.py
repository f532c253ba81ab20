"""Plane points and axes of revolution.

The axis is the line a*x + b*y + c = 0, stored normalized so a^2 + b^2 = 1
and the first nonzero of (a, b) is positive; that convention makes axes
comparable for equality.  The primitive is the *signed* distance: the
volume formula only needs |.|, but the exterior-side check needs the sign.
"""

from __future__ import annotations

import math
import operator

from ._record import record
from .errors import InvalidAxisError

__all__ = ["Point", "Axis", "axis_form", "signed_distance"]


@record
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x!r}, {self.y!r})")


@record
class Axis:
    """Line a*x + b*y + c = 0, normalized at construction."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = float(self.a), float(self.b), float(self.c)
        if not all(map(math.isfinite, (a, b, c))):
            raise InvalidAxisError(f"non-finite coefficients ({a!r}, {b!r}, {c!r})")
        norm = math.hypot(a, b)
        if norm == 0.0:
            raise InvalidAxisError("a and b cannot both be zero")
        if math.isinf(norm):  # hypot overflowed: scale into range first
            scale = max(abs(a), abs(b))
            a, b, c = a / scale, b / scale, c / scale
            norm = math.hypot(a, b)
        a, b, c = a / norm, b / norm, c / norm
        if not all(map(math.isfinite, (a, b, c))):
            raise InvalidAxisError(
                f"coefficients ({self.a!r}, {self.b!r}, {self.c!r}) do not normalize to finite values")
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        # +0.0 turns any -0.0 into +0.0 so reprs are canonical
        object.__setattr__(self, "a", a + 0.0)
        object.__setattr__(self, "b", b + 0.0)
        object.__setattr__(self, "c", c + 0.0)

    @classmethod
    def vertical(cls, x0: float) -> "Axis":
        """The line x = x0."""
        return cls(1.0, 0.0, -float(x0))

    @classmethod
    def horizontal(cls, y0: float) -> "Axis":
        """The line y = y0."""
        return cls(0.0, 1.0, -float(y0))


def axis_form(axis: Axis, x, y, add=operator.add, mul=operator.mul, lift=float):
    """a*x + b*y + c at (x, y), in that order: of floats, of numpy arrays, or
    an enclosure over the boxes x and y given the interval helpers of +, *
    and constants from ``revolve._intervals`` (_iadd, _imul and _ilift over
    floats)."""
    return add(add(mul(lift(axis.a), x), mul(lift(axis.b), y)), lift(axis.c))


def signed_distance(axis: Axis, p: Point) -> float:
    """a*x + b*y + c; |.| is the distance since the axis is normalized."""
    return axis_form(axis, p.x, p.y)
