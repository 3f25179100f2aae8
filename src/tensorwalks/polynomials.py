"""Univariate polynomials over an exact coefficient ring, plus fraction-free
determinants of polynomial matrices.

Coefficients may be int, Fraction, or CycNum -- anything with exact ring
operations and equality against 0.  Rational-coefficient polys additionally
support division and gcd.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import _norm_coeff


class Polynomial:
    """Coefficients ascending by degree, no trailing zeros; () is the zero
    polynomial with degree() == -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [_norm_coeff(c) for c in coeffs]
        while coeffs and _is_zero(coeffs[-1]):
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def t() -> "Polynomial":
        return Polynomial((0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not _is_zero(x):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        result = Polynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def divmod(self, den: "Polynomial"):
        """Quotient and remainder over the fraction field of the coefficients."""
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = _invert(den.leading())
        rem = list(self.coeffs)
        dn = den.degree()
        out = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if _is_zero(c):
                continue
            q = _norm_coeff(c * lead_inv)
            out[i - dn] = q
            for j, dc in enumerate(den.coeffs):
                rem[i - dn + j] = rem[i - dn + j] - q * dc
        return Polynomial(out), Polynomial(rem[:dn] if dn > 0 else [])

    def exact_div(self, den: "Polynomial") -> "Polynomial":
        q, r = self.divmod(den)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = _invert(self.leading())
        return Polynomial(tuple(c * inv for c in self.coeffs))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def to_text(self, var: str = "t") -> str:
        """Human form like "1 - 3t + 2t^3"; fractions render as (p/q)."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            sign = "-" if _is_negative(c) else "+"
            mag = -c if _is_negative(c) else c
            mag_s = f"({mag})" if isinstance(mag, Fraction) else str(mag)
            if i == 0:
                term = mag_s
            else:
                head = "" if mag == 1 else mag_s
                term = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def _is_zero(c) -> bool:
    if type(c) is int or isinstance(c, Fraction):
        return c == 0
    return c.is_zero()


def _is_negative(c) -> bool:
    return (type(c) is int or isinstance(c, Fraction)) and c < 0


def _invert(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(1) / Fraction(c)
    return c.inverse()  # CycNum


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (Euclidean)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def poly_det(matrix) -> Polynomial:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Entries are Polynomials over an exact ring; every interior division is
    exact, so integer-coefficient inputs stay integer throughout."""
    m = [[e if isinstance(e, Polynomial) else Polynomial((e,)) for e in row]
         for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Polynomial((1,))
    sign = 1
    prev = Polynomial((1,))
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return Polynomial()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Polynomial()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
