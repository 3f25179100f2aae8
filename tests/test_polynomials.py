import random
from fractions import Fraction

import pytest

from tensorwalks.cyclotomic import root_of_unity
from tensorwalks.polynomials import Polynomial, _exact_div, poly_det, poly_gcd, poly_solve


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


def test_gcd_of_planted_common_factors():
    rng = random.Random(11)
    for _ in range(40):
        roots = rng.sample(range(-6, 7), 6)
        common, only_a, only_b = roots[:2], roots[2:4], roots[4:]
        g = Polynomial((1,))
        for r in common[: rng.randint(0, 2)]:
            g = g * lin(1, -r)
        a, b = g, g
        for r in only_a:
            a = a * lin(1, -r)
        for r in only_b[: rng.randint(0, 2)]:
            b = b * lin(1, -r)
        a = a * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        b = b * Fraction(-rng.randint(1, 9), rng.randint(1, 9))
        assert poly_gcd(a, b) == g.monic()
        assert poly_gcd(b, a) == g.monic()
    p = lin(1, -2) * lin(Fraction(1, 3), 1)
    assert poly_gcd(p, Polynomial()) == p.monic()
    assert poly_gcd(Polynomial(), p) == p.monic()
    assert poly_gcd(Polynomial(), Polynomial()).is_zero()
    assert poly_gcd(Polynomial((Fraction(3, 7),)), p) == Polynomial((1,))


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


def test_coefficients_are_rational():
    with pytest.raises(TypeError):
        Polynomial((root_of_unity(3, 1),))


def test_kernel_rejects_non_integer_coefficients():
    t = Polynomial.t()
    with pytest.raises(TypeError):
        poly_det([[Polynomial((Fraction(1, 2),)), t], [t, Polynomial((1,))]])
    with pytest.raises(TypeError):
        poly_solve([[Polynomial((1,))]], [Fraction(1, 3)])
    with pytest.raises(ArithmeticError):
        _exact_div([1, 1, 1], [1, -1])
    with pytest.raises(ArithmeticError):
        _exact_div([0, 1], [0, 2])  # t / 2t is not in Z[t]


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(3):
            coeffs = [[[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(3)]
                       for _ in range(n)] for _ in range(n)]
            expected = sympy.Poly(
                sympy.Matrix([[sum(c * t**i for i, c in enumerate(e)) for e in row]
                              for row in coeffs]).det(), t)
            got = poly_det([[Polynomial(e) for e in row] for row in coeffs])
            assert got == Polynomial([int(c) for c in reversed(expected.all_coeffs())]), coeffs


def _replace_column(m, j, rhs):
    return [row[:j] + [b] + row[j + 1 :] for row, b in zip(m, rhs)]


def test_solve_gives_every_cramer_numerator():
    rng = random.Random(5)
    one, zero, t = Polynomial((1,)), Polynomial(), Polynomial.t()
    cases = [([[zero, one], [t, zero]], [one, t])]  # needs a row swap
    for _ in range(15):
        n = rng.randint(1, 4)
        m = [[Polynomial((rng.randint(-2, 2), rng.randint(-2, 2))) for _ in range(n)]
             for _ in range(n)]
        cases.append((m, [Polynomial((rng.randint(-2, 2),)) for _ in range(n)]))
    assert poly_solve([], []) == (Polynomial((1,)), [])
    for m, rhs in cases:
        det = _cofactor_det(m)
        if det.is_zero():
            with pytest.raises(ZeroDivisionError):
                poly_solve(m, rhs)
            continue
        got_det, nums = poly_solve(m, rhs)
        assert got_det == det
        assert nums == [_cofactor_det(_replace_column(m, j, rhs)) for j in range(len(m))]


def test_to_text():
    assert Polynomial((1, -3, 0, 2)).to_text() == "1 - 3t + 2t^3"
    assert Polynomial((Fraction(1, 2), 1)).to_text() == "(1/2) + t"
    assert Polynomial((0, -1)).to_text() == "-t"
    assert Polynomial().to_text() == "0"


def test_negative_power_is_rejected():
    with pytest.raises(ValueError):
        Polynomial((1, 1)) ** -1
