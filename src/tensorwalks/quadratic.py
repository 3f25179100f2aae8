"""Exact arithmetic in a quadratic extension Q(s) with s^2 = D.

Used for the closed-form Paley walk counts, where s is sqrt(p) (p = 1 mod 4)
or i*sqrt(p) (p = 3 mod 4, so D = -p).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError


class QuadNum:
    """a + b*s with s^2 = d, exact rational a and b.  Immutable."""

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a, b=0):
        if d == 0:
            raise ValueError("square parameter d must be nonzero")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *args):
        raise AttributeError("QuadNum is immutable")

    def _coerce(self, other):
        if isinstance(other, QuadNum):
            if other.d != self.d:
                raise ValueError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.d, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadNum(self.d, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(self.d, -self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadNum(self.d,
                       self.a * other.a + self.d * self.b * other.b,
                       self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.d, self.a / other, self.b / other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.a * other.a - self.d * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero QuadNum")
        return (self * other.conj()) / norm

    def __pow__(self, k: int) -> "QuadNum":
        if k < 0:
            raise ValueError("negative powers not needed; invert explicitly")
        result = QuadNum(self.d, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def conj(self) -> "QuadNum":
        return QuadNum(self.d, self.a, -self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ConsistencyError(f"irrational part did not cancel: {self}")
        return self.a

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    __hash__ = None

    def __repr__(self):
        return f"QuadNum(d={self.d}, {self.a}, {self.b})"
