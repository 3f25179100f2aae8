"""Univariate polynomials over Z, plus fraction-free determinants and linear
solves of polynomial matrices.

Coefficients are ints; any other coefficient type raises TypeError.
Determinants, solves and gcds all run through one map, t -> 2^B: a polynomial
is packed into the integer of its value at 2^B (`_pack`), the work is done on
integers, and the result is read back as signed base-2^B digits (`_decode`).
`_pack` also gives the modulus Phi_N(2^B) of the class-sum ring map
(`cyclotomic._images`).
A determinant or solve is one Bareiss elimination of the packed matrix, with
B set by a Hadamard bound on every minor; a gcd is one integer gcd of the
packed pair, with B doubled until the digits read back divide both.
"""

from __future__ import annotations

from math import gcd, isqrt


class Polynomial:
    """Coefficients ascending by degree, no trailing zeros; () is the zero
    polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise TypeError("polynomial coefficients must be ints")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
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

    def to_text(self) -> str:
        """Human form like "1 - 3t + 2t^3"."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                term = f"{head}t" if i == 1 else f"{head}t^{i}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def lowest_terms(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num / den with gcd(num, den) = 1 and the pair jointly primitive: divided
    exactly over Z by its primitive gcd (by Gauss's lemma a primitive factor
    over Q of an integer polynomial is one over Z), then by the integer
    content of both.  The pair is unique up to sign."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    a, b = list(num.coeffs), list(den.coeffs)
    g = _primitive_gcd(a, b)
    a, b = _exact_div(a, g), _exact_div(b, g)
    content = gcd(*a, *b)
    return Polynomial([c // content for c in a]), Polynomial([c // content for c in b])


def poly_det(matrix) -> Polynomial:
    """Exact determinant of a square matrix over Z[t]: the forward pass of
    the elimination kernel.  Entries are Polynomials, ints or sequences of
    int coefficients (ascending), all with integer coefficients."""
    rows = _coefficient_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    b, m = _evaluate(rows)
    return Polynomial(_decode(_eliminate(m, n), b))


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
    rows = [row + [c] for row, c in zip(_coefficient_rows(matrix), _coefficient_rows([rhs])[0])]
    b, m = _evaluate(rows)
    det = _eliminate(m, n)
    if not det:
        raise ZeroDivisionError("singular polynomial matrix")
    # Row k of the eliminated matrix reads sum_j m[k][j] x_j = m[k][n] for
    # j >= k, and the last pivot p is +-det; y_i = p * x_i is +-(det * x_i),
    # a minor of the augmented matrix, so the kernel's bound covers it.
    p = m[n - 1][n - 1]
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        acc = p * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))
        y[k], r = divmod(acc, row[k])
        if r:
            raise ArithmeticError("inexact division in the elimination kernel")
    if det != p:
        y = [-v for v in y]
    return Polynomial(_decode(det, b)), [Polynomial(_decode(v, b)) for v in y]


# ---------------------------------------------------------------------------
# The elimination kernel: one integer Bareiss elimination of the matrix at
# t = 2^B, read back exactly.  Every Bareiss intermediate, the determinant
# and every Cramer numerator is (up to sign) a minor of the matrix, and B is
# chosen so that 2^(B-1) exceeds a bound on every coefficient of every minor.
# Evaluation is a ring map Z[t] -> Z, so the integer elimination follows the
# one over Z[t] step for step, and a minor is zero exactly when its value at
# 2^B is: the zero tests on pivots, hence the row swaps, agree too.
# ---------------------------------------------------------------------------


def _coefficient_rows(matrix) -> list[list]:
    """Each entry as its int coefficients, ascending."""
    rows = [[e.coeffs if isinstance(e, Polynomial) else e if isinstance(e, (tuple, list))
             else (e,) for e in row] for row in matrix]
    if not {type(c) for row in rows for e in row for c in e} <= {int}:
        raise TypeError("the elimination kernel needs integer coefficients")
    return rows


def _evaluate(rows) -> tuple[int, list[list[int]]]:
    """(B, the rows at t = 2^B) with 2^(B-1) > H, the Hadamard bound
    H = prod_i max(1, ceil(sqrt(sum_j L1(m_ij)^2))).  On |t| = 1 each entry
    is at most its L1 norm in size, so H bounds every minor there (Hadamard),
    and so every coefficient of every minor (Cauchy's estimate)."""
    h = 1
    for row in rows:
        s = sum(sum(map(abs, e)) ** 2 for e in row)
        if s:
            h *= isqrt(s - 1) + 1
    b = h.bit_length() + 1
    return b, [[_pack(e, b) for e in row] for row in rows]


def _eliminate(m: list[list[int]], n: int) -> int:
    """Bareiss forward pass over the first n columns of the n-row integer
    matrix m, in place, with row swaps for zero pivots; every column of m is
    carried along.  Returns det of the leading n x n block."""
    if n == 0:
        return 1
    width = len(m[0])
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, width):
                row[j], r = divmod(row[j] * pivot - lead * top[j], prev)
                if r:
                    raise ArithmeticError("inexact division in the elimination kernel")
            row[k] = 0
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def _pack(coeffs, b: int) -> int:
    """The value at t = 2^b of the polynomial with these ascending coefficients."""
    v = 0
    for c in reversed(coeffs):
        v = (v << b) + c
    return v


def _decode(v: int, b: int) -> list[int]:
    """Ascending coefficients of the polynomial whose value at 2^b is v and
    whose coefficients are each below 2^(b-1) in size: the signed base-2^b
    digits of v."""
    mask, half = (1 << b) - 1, 1 << (b - 1)
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> b
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
# The heuristic gcd behind lowest_terms (GCDHEU: Char, Geddes and Gonnet;
# Geddes, Czapor and Labahn, Algorithms for Computer Algebra, Thm 7.7).
# ---------------------------------------------------------------------------


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[t] of two int coefficient lists, primitive and up to sign.
    With 2^B > 2 min(|a|_inf, |b|_inf) + 2 the polynomial of smaller norm has
    no root at 2^B, and a primitive G read back from gcd(a(2^B), b(2^B)) that
    divides a and b is their gcd (GCL Thm 7.7); else B doubles.  The digits
    are c * gcd(a, b) with c | res(a / gcd, b / gcd), so they are exact, and
    G is accepted, once 2^B is large enough."""
    a, b = _primitive(a), _primitive(b)
    if not a or not b:
        return a or b
    bits = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()
    while True:
        g = _primitive(_decode(gcd(_pack(a, bits), _pack(b, bits)), bits))
        try:
            _exact_div(a, g), _exact_div(b, g)
            return g
        except ArithmeticError:
            bits *= 2


def _primitive(a: list[int]) -> list[int]:
    content = gcd(*a)
    return [c // content for c in a] if content > 1 else a
