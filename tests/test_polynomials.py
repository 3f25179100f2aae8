import random
from fractions import Fraction

import pytest

from tensorwalks.polynomials import Polynomial, poly_det, poly_gcd


def lin(c0, c1):
    return Polynomial((c0, c1))


def test_construction_and_degree():
    assert Polynomial((0, 0)).is_zero()
    assert Polynomial().degree() == -1
    p = Polynomial((Fraction(2, 2), 0, Fraction(0)))
    assert p.coeffs == (1,)  # integral fractions collapse to ints, zeros trimmed


def test_arithmetic():
    t = Polynomial.t()
    p = (1 - t) * (1 + t)
    assert p == Polynomial((1, 0, -1))
    assert p(2) == -3
    assert (t**3).coeffs == (0, 0, 0, 1)
    q, r = Polynomial((1, 0, -1)).divmod(lin(1, -1))
    assert q == lin(1, 1) and r.is_zero()
    with pytest.raises(ArithmeticError):
        Polynomial((1, 1, 1)).exact_div(lin(1, -1))


def test_gcd():
    a = lin(1, -1) * lin(1, -2)
    b = lin(1, -1) * lin(1, -3)
    g = poly_gcd(a, b)
    assert g == lin(1, -1).monic()
    assert poly_gcd(a, Polynomial((5,))) == Polynomial((1,))


def test_det_small_cases():
    one, t = Polynomial((1,)), Polynomial.t()
    assert poly_det([[one, -t], [-t, one]]) == Polynomial((1, 0, -1))
    k3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    m = [[Polynomial((1 if i == j else 0, -k3[i][j])) for j in range(3)] for i in range(3)]
    assert poly_det(m) == Polynomial((1, 0, -3, -2))
    diag = [[lin(1, 2) if i == j else Polynomial() for j in range(3)] for i in range(3)]
    assert poly_det(diag) == lin(1, 2) ** 3
    assert poly_det([]) == Polynomial((1,))


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = Polynomial()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _cofactor_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def test_det_against_cofactor_expansion():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = [[Polynomial((rng.randint(-2, 2), rng.randint(-2, 2))) for _ in range(n)]
             for _ in range(n)]
        assert poly_det(m) == _cofactor_det(m)


def test_det_needs_pivoting():
    # leading zero pivot forces a row swap
    one, t = Polynomial((1,)), Polynomial.t()
    m = [[Polynomial(), one], [t, Polynomial()]]
    assert poly_det(m) == -(t * one)


def test_to_text():
    assert Polynomial((1, -3, 0, 2)).to_text() == "1 - 3t + 2t^3"
    assert Polynomial((Fraction(1, 2), 1)).to_text() == "(1/2) + t"
    assert Polynomial((0, -1)).to_text() == "-t"
    assert Polynomial().to_text() == "0"


def test_negative_power_is_rejected():
    with pytest.raises(ValueError):
        Polynomial((1, 1)) ** -1
