import random
from math import gcd, isqrt, prod

import pytest

from tensorwalks.cyclotomic import root_of_unity
from tensorwalks.polynomials import (
    Polynomial,
    _exact_div,
    _primitive_gcd,
    lowest_terms,
    poly_det,
    poly_solve,
)


def lin(c0, c1):
    return Polynomial((c0, c1))


def test_construction_and_degree():
    assert Polynomial((0, 0)).is_zero()
    p = Polynomial((1, 0, 0))
    assert p.coeffs == (1,)  # trailing zeros trimmed
    for bad in (1.0, True, None):  # ints only, integral floats and bools included
        with pytest.raises(TypeError):
            Polynomial((0, bad))


def test_arithmetic():
    t = lin(0, 1)
    p = (1 - t) * (1 + t)
    assert p == Polynomial((1, 0, -1))
    assert _exact_div([1, 0, -1], [1, -1]) == [1, 1]


def positive(p):
    """p or -p, whichever has a positive leading coefficient."""
    return -p if p.coeffs and p.coeffs[-1] < 0 else p


def gcd_over_z(a, b):
    """The primitive gcd over Z, its sign fixed by a positive leading
    coefficient."""
    return positive(Polynomial(_primitive_gcd(list(a.coeffs), list(b.coeffs))))


def content(*polys):
    return gcd(*(c for p in polys for c in p.coeffs))


def test_gcd():
    a = lin(1, -1) * lin(1, -2)
    b = lin(1, -1) * lin(1, -3)
    assert gcd_over_z(a, b) == lin(-1, 1)
    assert gcd_over_z(a, Polynomial((5,))) == Polynomial((1,))
    # (1 - 2t) / (1 - 3t), unique up to sign
    assert lowest_terms(a, b) in ((lin(1, -2), lin(1, -3)), (lin(-1, 2), lin(-1, 3)))
    # the joint content 2 goes, the contents 3 and 2 of each side stay
    assert lowest_terms(a * 6, b * 4) in ((lin(3, -6), lin(2, -6)), (lin(-3, 6), lin(-2, 6)))


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
        a = a * rng.randint(1, 9)
        b = b * -rng.randint(1, 9)
        assert gcd_over_z(a, b) == positive(g)  # g(0) = 1, so g is primitive
        assert gcd_over_z(b, a) == positive(g)
        num, den = lowest_terms(a, b)  # the same ratio, reduced, jointly primitive
        assert num * b == den * a
        assert content(num, den) == 1
        assert gcd_over_z(num, den) == Polynomial((1,))
    p = lin(1, -2) * lin(1, 3)
    assert gcd_over_z(p * 2, Polynomial()) == positive(p)
    assert gcd_over_z(Polynomial(), p * -2) == positive(p)
    assert gcd_over_z(Polynomial(), Polynomial()).is_zero()
    assert gcd_over_z(Polynomial((3,)), p) == Polynomial((1,))


def test_gcd_retries_with_a_doubled_base(monkeypatch):
    # primitive parts 2 + 3t + 2t^3 and 1 - t: at B = 3 the values are 1050
    # and -7, whose gcd 7 reads back as t - 1; that divides 1 - t but not
    # 2 + 3t + 2t^3, so B doubles; at B = 6 the gcd 7 reads back as the
    # constant 7, whose primitive part 1 divides both
    import tensorwalks.polynomials as poly

    reads = []
    real = poly._decode
    monkeypatch.setattr(poly, "_decode", lambda v, b: reads.append(real(v, b)) or reads[-1])
    assert _primitive_gcd([4, 6, 0, 4], [4, -4]) in ([1], [-1])
    assert reads == [[-1, 1], [7]]


def _resultant(a, b):
    """The Sylvester determinant of a and b, nonzero exactly when they have
    no common factor of positive degree."""
    a, b = list(a.coeffs), list(b.coeffs)
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * j + b + [0] * (m - 1 - j) for j in range(m)]
    return poly_det(rows)


def test_gcd_of_planted_factors_with_large_coefficients():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = st.lists(st.integers(-2**200, 2**200), min_size=1, max_size=5).filter(any).map(Polynomial)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(g=big, p=big, q=big)
    def check(g, p, q):
        a, b = g * p, g * q
        got = Polynomial(_primitive_gcd(list(a.coeffs), list(b.coeffs)))
        # primitive, a divisor of both, and leaving coprime cofactors: the gcd
        assert content(got) == 1
        cofactors = [Polynomial(_exact_div(list(x.coeffs), list(got.coeffs))) for x in (a, b)]
        assert not _resultant(*cofactors).is_zero()
        if not _resultant(p, q).is_zero():
            g_part = Polynomial([c // content(g) for c in g.coeffs])
            assert positive(got) == positive(g_part)
        num, den = lowest_terms(a, b)  # the same ratio, reduced, jointly primitive
        assert num * b == den * a
        assert content(num, den) == 1
        assert not _resultant(num, den).is_zero()

    check()


def test_det_small_cases():
    one, t = Polynomial((1,)), lin(0, 1)
    assert poly_det([[one, -t], [-t, one]]) == Polynomial((1, 0, -1))
    k3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    m = [[Polynomial((1 if i == j else 0, -k3[i][j])) for j in range(3)] for i in range(3)]
    assert poly_det(m) == Polynomial((1, 0, -3, -2))
    diag = [[lin(1, 2) if i == j else Polynomial() for j in range(3)] for i in range(3)]
    assert poly_det(diag) == lin(1, 2) * lin(1, 2) * lin(1, 2)
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
    one, t = Polynomial((1,)), lin(0, 1)
    m = [[Polynomial(), one], [t, Polynomial()]]
    assert poly_det(m) == -(t * one)


def _hadamard_bound(m):
    bound = 1
    for row in m:
        s = sum(sum(abs(c) for c in e.coeffs) ** 2 for e in row)
        bound *= max(1, isqrt(s - 1) + 1 if s else 1)
    return bound


def test_determinant_at_the_hadamard_bound():
    # Sylvester's Hadamard matrix of order 4 on monomials t^(i+j): the
    # determinant, +-16 t^12, reaches the bound 4^4 / 4^2 = 16 exactly
    h2 = [[1, 1], [1, -1]]
    h4 = [[a * b for a in ra for b in rb] for ra in h2 for rb in h2]
    m = [[h4[i][j] * Polynomial((0,) * (i + j) + (1,)) for j in range(4)] for i in range(4)]
    assert _hadamard_bound(m) == 16
    assert poly_det(m) == Polynomial((0,) * 12 + (16,))
    m[2] = [-e for e in m[2]]
    assert poly_det(m) == Polynomial((0,) * 12 + (-16,))
    # one entry of size 2^40 - 1: its digit is as large as the decode allows
    for c in (2**40 - 1, -(2**40 - 1)):
        assert poly_det([[Polynomial((0, 0, 0, c))]]) == Polynomial((0, 0, 0, c))
        assert poly_det([[Polynomial((c, c))]]) == Polynomial((c, c))


def test_all_negative_coefficients():
    rng = random.Random(7)
    for n in range(1, 5):
        m = [[Polynomial([-rng.randint(1, 10**6) for _ in range(3)]) for _ in range(n)]
             for _ in range(n)]
        rhs = [Polynomial([-rng.randint(1, 10**6) for _ in range(2)]) for _ in range(n)]
        det = _cofactor_det(m)
        assert poly_det(m) == det
        if not det.is_zero():
            assert poly_solve(m, rhs) == (
                det, [_cofactor_det(_replace_column(m, j, rhs)) for j in range(n)])
    # -(1 + t)^n times the identity: det (-1)^n (1 + t)^n, every digit negative for odd n
    for n in (1, 3, 5):
        e = Polynomial((-1, -1))
        m = [[e if i == j else Polynomial() for j in range(n)] for i in range(n)]
        assert poly_det(m) == prod([e] * n)


def test_coefficients_are_rational():
    with pytest.raises(TypeError):
        Polynomial((root_of_unity(3, 1),))


def test_kernel_rejects_non_integer_coefficients():
    t = lin(0, 1)
    with pytest.raises(TypeError):
        poly_det([[0.5, t], [t, Polynomial((1,))]])
    with pytest.raises(TypeError):
        poly_solve([[Polynomial((1,))]], [3.0])  # integral, but not an int
    with pytest.raises(TypeError):
        poly_det([[(1, 2.0)]])  # coefficient sequences are checked too
    with pytest.raises(TypeError):
        poly_det([[True]])
    with pytest.raises(TypeError):
        poly_det([[(1, root_of_unity(3, 1))]])
    assert poly_det([[(1, 2)]]) == lin(1, 2)
    assert poly_solve([[Polynomial((1,))]], [3]) == (Polynomial((1,)), [Polynomial((3,))])
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


def test_kernel_error_cases():
    one, zero, t = Polynomial((1,)), Polynomial(), lin(0, 1)
    with pytest.raises(ValueError):
        poly_det([[one, t]])
    with pytest.raises(ValueError):
        poly_solve([[one, t], [t, one]], [one])
    for singular in ([[one, t], [zero, zero]], [[t, t], [t, t]], [[one - t, one], [one - t, one]]):
        assert poly_det(singular).is_zero()
        with pytest.raises(ZeroDivisionError):
            poly_solve(singular, [one, one])
    # entries may be ints or int coefficient sequences as well as Polynomials
    assert poly_det([[(1, -2), 3], [[0, 1], ()]]) == Polynomial((0, -3))


def test_solve_gives_every_cramer_numerator():
    rng = random.Random(5)
    one, zero, t = Polynomial((1,)), Polynomial(), lin(0, 1)
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
    assert Polynomial((-2, 0, 1)).to_text() == "-2 + t^2"
    assert Polynomial((0, 3, -4)).to_text() == "3t - 4t^2"
    assert Polynomial((0, -1)).to_text() == "-t"
    assert Polynomial().to_text() == "0"
