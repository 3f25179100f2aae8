"""Univariate polynomials over Q, plus fraction-free determinants and linear
solves of integer polynomial matrices.

Coefficients are int or Fraction, kept as int whenever integral; any other
coefficient type raises TypeError.  Determinants and solves run one
elimination kernel on plain int coefficient lists and accept integer
coefficients only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Polynomial:
    """Coefficients ascending by degree, no trailing zeros; () is the zero
    polynomial with degree() == -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [_norm_coeff(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
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
            if x:
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
        """Quotient and remainder over Q."""
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = Fraction(1) / den.leading()
        rem = list(self.coeffs)
        dn = den.degree()
        out = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if not c:
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
        inv = Fraction(1) / self.leading()
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
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
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


def _norm_coeff(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals, by a primitive pseudo-remainder sequence
    over Z[t]: denominators are cleared once and the content is divided out
    after every pseudo-remainder, which keeps the coefficients from blowing
    up as Euclid's remainders over Q do."""
    a, b = _primitive(_integral(a)), _primitive(_integral(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return Polynomial(a).monic()


def poly_det(matrix) -> Polynomial:
    """Exact determinant by fraction-free (Bareiss) elimination: the forward
    pass of the elimination kernel.  Entries are Polynomials (or ints) with
    integer coefficients."""
    m = _int_rows(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    return Polynomial(_eliminate(m, n))


def poly_solve(matrix, rhs) -> tuple[Polynomial, list[Polynomial]]:
    """(det, [det * x_i]) for the square system matrix * x = rhs over Z[t],
    by the forward pass of the elimination kernel on the augmented matrix and
    fraction-free back substitution.  Each det * x_i is the determinant of the
    matrix with column i replaced by rhs (Cramer's rule)."""
    n = len(matrix)
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise ValueError("solve needs a square matrix and a matching right-hand side")
    if n == 0:
        return Polynomial((1,)), []
    m = [row + [b] for row, b in zip(_int_rows(matrix), _int_rows([rhs])[0])]
    det = _eliminate(m, n)
    if not det:
        raise ZeroDivisionError("singular polynomial matrix")
    # Row k of the eliminated matrix reads sum_j m[k][j] x_j = m[k][n] for
    # j >= k, and the last pivot p is +-det; y_i = p * x_i is a polynomial.
    p = m[n - 1][n - 1]
    y = [[] for _ in range(n)]
    for k in range(n - 1, -1, -1):
        acc = _mul(p, m[k][n])
        for j in range(k + 1, n):
            acc = _sub(acc, _mul(m[k][j], y[j]))
        y[k] = _exact_div(acc, m[k][k])
    if det != p:
        y = [[-c for c in yi] for yi in y]
    return Polynomial(det), [Polynomial(yi) for yi in y]


# ---------------------------------------------------------------------------
# The elimination kernel, on ascending int coefficient lists without trailing
# zeros ([] is zero).
# ---------------------------------------------------------------------------


def _int_rows(matrix) -> list[list[list[int]]]:
    rows = []
    for row in matrix:
        line = []
        for e in row:
            coeffs = (e if isinstance(e, Polynomial) else Polynomial((e,))).coeffs
            if any(type(c) is not int for c in coeffs):
                raise TypeError("the elimination kernel needs integer coefficients")
            line.append(list(coeffs))
        rows.append(line)
    return rows


def _eliminate(m: list[list[list[int]]], n: int) -> list[int]:
    """Bareiss forward pass over the first n columns of the n-row matrix m,
    in place, with row swaps for zero pivots; every column of m is carried
    along.  Returns det of the leading n x n block."""
    if n == 0:
        return [1]
    width = len(m[0])
    sign = 1
    prev = [1]
    for k in range(n):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return []
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, width):
                row[j] = _exact_div(_sub(_mul(row[j], pivot), _mul(lead, m[k][j])), prev)
            row[k] = []
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else [-c for c in det]


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[t]; raises ArithmeticError unless b divides a."""
    if len(b) == 1 and b[0] == 1:
        return a
    if not a:
        return []
    db, lead = len(b) - 1, b[-1]
    if len(a) <= db:
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[i - db] = q
            for j in range(db):
                rem[i - db + j] -= q * b[j]
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return out


# ---------------------------------------------------------------------------
# Primitive pseudo-remainder sequence for poly_gcd.
# ---------------------------------------------------------------------------


def _integral(p: Polynomial) -> list[int]:
    """p times the lcm of its coefficients' denominators."""
    scale = 1
    for c in p.coeffs:
        scale = lcm(scale, Fraction(c).denominator)
    return [int(c * scale) for c in p.coeffs]


def _primitive(a: list[int]) -> list[int]:
    content = gcd(*a)
    return [c // content for c in a] if content > 1 else a


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b: lead(b)^e * a mod b, with no division."""
    rem, db, lead = list(a), len(b) - 1, b[-1]
    while len(rem) > db:
        c, shift = rem[-1], len(rem) - 1 - db
        rem = [x * lead for x in rem]
        for j, y in enumerate(b, shift):
            rem[j] -= c * y
        while rem and not rem[-1]:
            rem.pop()
    return rem
