"""Exact arithmetic in the field Q(sqrt 5), and the level-one block dimensions in closed form."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

from . import InvariantError

Rational = Union[int, Fraction]


@total_ordering
class QSqrt5:
    """Number a + b*sqrt(5) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def sqrt5(cls) -> "QSqrt5":
        return cls(0, 1)

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, QSqrt5):
            return other
        if isinstance(other, (int, Fraction)):
            return cls(other)
        return None

    def conjugate(self) -> "QSqrt5":
        """Image under the field automorphism sqrt(5) -> -sqrt(5)."""
        return QSqrt5(self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - 5 * self.b * self.b

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # sign of (a - a') + (b - b') sqrt(5), exactly
        da, db = self.a - o.a, self.b - o.b
        if db == 0:
            return da < 0
        if da == 0:
            return db < 0
        if da < 0 and db < 0:
            return True
        if da > 0 and db > 0:
            return False
        return (da * da < 5 * db * db) == (db < 0)

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt5(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt5":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("0 has no inverse in Q(sqrt 5)")
        return QSqrt5(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "QSqrt5":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        e = abs(exponent)
        result = QSqrt5(1)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 5**0.5

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QSqrt5({self.a})"
        return f"QSqrt5({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt(5)"


GOLDEN = QSqrt5(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5)/2


def closed_form_dimension(genus: int, points: int) -> QSqrt5:
    """((5+sqrt5)/2)^(g-1) phi^n + ((5-sqrt5)/2)^(g-1) phibar^n, exactly.

    The two summands are conjugate, so the sqrt(5) part must cancel; that
    cancellation is checked rather than assumed.
    """
    if genus < 0 or points < 0:
        raise ValueError("genus and point count must be nonnegative")
    base = QSqrt5(Fraction(5, 2), Fraction(1, 2))  # (5 + sqrt 5)/2
    value = base ** (genus - 1) * GOLDEN**points
    total = value + value.conjugate()
    if total.b != 0 or total.a.denominator != 1 or total.a < 0:
        raise InvariantError(f"conjugate pair failed to cancel to a count: {total}")
    return total


@lru_cache(maxsize=None)
def closed_form_value(genus: int, points: int) -> int:
    return int(closed_form_dimension(genus, points).a)
