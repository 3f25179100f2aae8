"""Exact cyclotomic arithmetic: canonical forms, field axioms, Gauss sums.

The numeric oracle (complex floats at 1e-9) appears only here, never in the
library itself.
"""

import cmath
import random
from fractions import Fraction

import pytest

from tensorwalks.cyclotomic import (
    CycNum,
    class_sums,
    cyclotomic_polynomial,
    gauss_sum,
    gauss_sum_check,
    lift,
    reduce_mod_phi,
    root_of_unity,
)
from tensorwalks.errors import ConsistencyError
from tensorwalks.numbertheory import euler_phi, legendre_symbol, quadratic_residues


def numeric(x: CycNum) -> complex:
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(c * z**i for i, c in enumerate(x.coeffs))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in (3, 5, 8, 9, 15, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 301):
        expected = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected), n


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    total = sum((root_of_unity(5, m) for m in range(1, 5)), CycNum(5, ()))
    assert total == -1
    # periodicity in the exponent
    assert root_of_unity(7, 9) == root_of_unity(7, 2)
    assert root_of_unity(6, -1) == root_of_unity(6, 5)
    for n in (0, -3):
        with pytest.raises(ValueError):
            root_of_unity(n, 1)
        with pytest.raises(ValueError):
            CycNum.from_exponents(n, [1])


def test_root_of_unity_is_shared_per_residue():
    # `class_sums` interns values by identity first, so one root is one object
    for n in (1, 2, 5, 12, 1001):
        for m in (-n - 1, -1, 0, 1, n - 1, 3 * n + 2):
            assert root_of_unity(n, m) is root_of_unity(n, m + n)


def remainder_by_long_division(coeffs, n):
    """coeffs mod Phi_n by plain long division by the monic Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem.pop()
        for j in range(deg):
            rem[i - deg + j] -= c * phi[j]
    return tuple(rem + [0] * (deg - len(rem)))


@pytest.mark.parametrize("n", [*range(1, 65), 105, 210, 1001])
def test_reduce_mod_phi_is_the_remainder_by_phi(n):
    # lengths up to 3n reach exponents past n, which wrap, and exponents in
    # [phi(n), n), which read the table of high powers; the same list as
    # shuffled (exponent, count) terms, each exponent split in two, reduces
    # alike, and `from_exponents` of an exponent multiset is its count list
    rng = random.Random(n)
    for length in (0, 1, euler_phi(n), n + 1, rng.randrange(3 * n + 1), 3 * n):
        coeffs = [rng.randint(-9, 9) for _ in range(length)]
        want = remainder_by_long_division(coeffs, n)
        assert reduce_mod_phi(enumerate(coeffs), n) == want, (n, length)
        split = [(e, part) for e, c in enumerate(coeffs) for part in (c - c // 2, c // 2)]
        rng.shuffle(split)
        assert reduce_mod_phi(split, n) == want, (n, length)
        counts = [abs(c) for c in coeffs]
        exponents = [e + n * rng.randrange(-2, 3) for e, c in enumerate(counts) for _ in range(c)]
        rng.shuffle(exponents)
        assert CycNum.from_exponents(n, exponents) == CycNum(n, counts), (n, length)


def test_conjugation_and_rationality():
    z4 = root_of_unity(4, 1)
    assert z4.conj() == root_of_unity(4, 3)
    assert z4.conj() == -z4
    full = sum((root_of_unity(5, m) for m in range(1, 5)), CycNum.from_int(1))
    assert full.is_rational() and full.as_integer() == 0
    assert not root_of_unity(3, 1).is_rational()
    with pytest.raises(ConsistencyError):
        root_of_unity(3, 1).as_integer()
    assert CycNum.from_int(-7).as_integer() == -7
    with pytest.raises(TypeError):
        CycNum.from_int(Fraction(7, 3))


def test_coefficients_must_be_ints():
    for bad in (Fraction(1, 2), 0.5, True):
        with pytest.raises(TypeError, match="must be ints"):
            CycNum(3, [1, bad])
    with pytest.raises(TypeError):
        CycNum.from_int(True)
    # an int coefficient list is reduced; the values stay ints
    x = CycNum(3, [1, 2, 3])
    assert x.coeffs == (-2, -1) and {type(c) for c in (x * x).coeffs} == {int}


def test_cross_conductor_product():
    z3, z4 = root_of_unity(3, 1), root_of_unity(4, 1)
    prod = z3 * z4
    assert prod == root_of_unity(12, 7)
    assert abs(numeric(prod) - numeric(z3) * numeric(z4)) < 1e-12


def _random_cyc(rng, conductor):
    phi = euler_phi(conductor)
    coeffs = [rng.randint(-3, 3) for _ in range(phi)]
    return CycNum(conductor, coeffs)


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 6, 8, 12])
def test_field_axioms_randomized(conductor):
    rng = random.Random(1000 + conductor)
    for _ in range(25):
        x = _random_cyc(rng, conductor)
        y = _random_cyc(rng, conductor)
        z = _random_cyc(rng, conductor)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x


@pytest.mark.parametrize("conductor", [3, 4, 5, 8, 12])
def test_conjugation_is_multiplicative(conductor):
    rng = random.Random(77 + conductor)
    for _ in range(20):
        x = _random_cyc(rng, conductor)
        y = _random_cyc(rng, conductor)
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.conj().conj() == x


@pytest.mark.parametrize("conductor", [2, 3, 4, 5, 7, 9, 12])
def test_norm_term_nonnegative(conductor):
    rng = random.Random(5 + conductor)
    for _ in range(20):
        x = _random_cyc(rng, conductor)
        norm = x * x.conj()
        if norm.is_rational():
            assert norm.as_integer() >= 0


def test_powers_and_division():
    z5 = root_of_unity(5, 1)
    assert z5**5 == 1
    assert z5**0 == 1
    assert (z5 + 2) ** 2 == z5 * z5 + 4 * z5 + 4
    with pytest.raises(ValueError):
        z5**-2
    # Z[zeta_N] is a ring: no division, and no rational scalars
    for divisor in (2, Fraction(2, 3), z5 + 2):
        with pytest.raises(TypeError):
            (z5 + 2) / divisor
    with pytest.raises(TypeError):
        z5 * Fraction(1, 2)


def test_embed_and_equality_across_conductors():
    minus_one = root_of_unity(4, 2)
    assert minus_one == CycNum.from_int(-1)
    assert minus_one == -1
    assert root_of_unity(3, 0) == root_of_unity(5, 0)
    e = root_of_unity(3, 1).embed(12)
    assert e.conductor == 12 and e == root_of_unity(3, 1)


def test_text_rendering():
    assert CycNum.from_int(3).to_text() == "3; conductor=1"
    z = root_of_unity(4, 1)
    assert z.to_text() == "1*z; conductor=4"


def test_gauss_sums():
    for p in (5, 7, 13):
        assert gauss_sum_check(p)
    assert (gauss_sum(5) * gauss_sum(5)).as_integer() == 5
    assert (gauss_sum(7) * gauss_sum(7)).as_integer() == -7
    with pytest.raises(ValueError):
        gauss_sum_check(9)
    with pytest.raises(ValueError):
        gauss_sum_check(8)



@pytest.mark.parametrize("p", [5, 13, 7, 11])
def test_gauss_sum_gives_the_paley_character_values(p):
    # the Paley closed forms take chi_V = (g - 1)/2 on residues and
    # -(g + 1)/2 on nonresidues, with g = gauss_sum(p) = sqrt(p) or i*sqrt(p)
    g = gauss_sum(p)
    for c in range(1, p):
        chi = sum((root_of_unity(p, c * r) for r in quadratic_residues(p)), CycNum(p, ()))
        assert 2 * chi == (g - 1 if legendre_symbol(c, p) == 1 else -(g + 1))


def test_unit_generators_generate_the_unit_group():
    from math import gcd

    from tensorwalks.numbertheory import unit_generators

    for n in range(1, 130):
        units = {a for a in range(n) if gcd(a, n) == 1} if n > 1 else {0}
        reached, frontier = {1 % n}, [1 % n]
        while frontier:
            x = frontier.pop()
            for a in unit_generators(n):
                if x * a % n not in reached:
                    reached.add(x * a % n)
                    frontier.append(x * a % n)
        assert reached == units, n
    assert unit_generators(1) == unit_generators(2) == ()


def orbit(x, w):
    """The pairs (sigma_a x, sigma_a w) over every unit a: a Galois-stable form."""
    from math import gcd

    n = x.conductor
    return [(x.galois(a), w.galois(a)) for a in range(1, n) if gcd(a, n) == 1]


def ints(*values):
    return tuple(map(CycNum.from_int, values))


def test_certified_sums_intern_and_certify(monkeypatch):
    from tensorwalks import cyclotomic

    x, w = CycNum(12, [1, -2, 0, 3]), CycNum(12, [2, 0, 1, 0])
    five, seven = ints(5, 7)
    read = []
    real = cyclotomic._images

    def spy(values, n, b, units):
        read.append((len(values), n, tuple(units)))
        return real(values, n, b, units)

    monkeypatch.setattr(cyclotomic, "_images", spy)
    # two equal CycNums of one conductor are one value; -1 of conductor 1 and
    # -1 of conductor 12 are two, whose images agree, so the three copies of
    # (5, -1) are one column, of weight 2 + 2 + 1, and the sums are those of
    # weight 5
    columns = orbit(x, w) + [(five, CycNum(1, (-1,))), (five, CycNum(12, (-1,))),
                             (five, CycNum(12, (-1,)))]
    want = plain_class_sums(orbit(x, w) + [ints(5, -1)], [1, 1, 1, 1, 5], range(3), [0], [0, 1])
    assert class_sums(columns, [1, 1, 1, 1, 2, 2, 1], range(3), [0], [0, 1]) == want
    assert read[0][:2] == (len({v.coeffs for a, b in orbit(x, w) for v in (a, b)}) + 3, 12)
    assert read[0][2][0] == 1 and read[1][2] == (1, -1)
    # a column that is not Galois-stable but cancels to weight 0 adds nothing
    assert class_sums(columns + [(x, seven), (x, seven)], [1, 1, 1, 1, 2, 2, 1, 4, -4],
                      range(3), [0], [0, 1]) == want
    # the check is on the weighted multiset: a conjugate listed twice stands
    # for one of weight 2, and unequal weights on one orbit are irrational
    assert class_sums(orbit(x, w) + orbit(x, w)[:1], [1, 2, 2, 2, 1], range(2), [0], [0]) == \
        plain_class_sums(orbit(x, w), [2] * 4, range(2), [0], [0])
    with pytest.raises(ConsistencyError, match="Galois-incomplete"):
        class_sums(orbit(x, w), [1, 1, 1, 2], range(1), [0], [0])
    # one missing Galois conjugate makes the sums irrational
    with pytest.raises(ConsistencyError, match="Galois-incomplete"):
        class_sums(orbit(x, w)[1:], [1, 1, 1], range(1), [0], [0])


def mixed_conductor_table():
    """Columns over Q(zeta_12) whose entries keep conductors 1, 3, 4 and 12:
    the orbit of one column under (Z/12)^x, and a column of rational integers."""
    x3, x4 = CycNum(3, [2, -1]), CycNum(4, [1, 3])
    x12, y = CycNum(12, [0, 1, -1, 2]), CycNum(12, [1, 0, 0, 1])
    columns = [(CycNum.from_int(4), x3.galois(a % 3), x4.galois(a % 4), x12.galois(a),
                y.galois(a)) for a in (1, 5, 7, 11)]
    return columns + [ints(4, -2, 3, 1, 2)], [3, 3, 3, 3, 2]


def test_class_sums_read_each_value_in_its_own_conductor():
    columns, weights = mixed_conductor_table()
    assert {x.conductor for col in columns for x in col} == {1, 3, 4, 12}
    every = range(4)
    assert class_sums(columns, weights, range(1, 7, 2), every, every) == plain_class_sums(
        columns, weights, range(1, 7, 2), every, every)


def test_class_sums_neither_embed_nor_reduce(monkeypatch):
    from tensorwalks import cyclotomic

    columns, weights = mixed_conductor_table()
    want = plain_class_sums(columns, weights, range(5), [1, 3], [0, 2])

    def refuse(*args):
        raise AssertionError("class_sums embedded or reduced a value")

    monkeypatch.setattr(CycNum, "embed", refuse)
    monkeypatch.setattr(cyclotomic, "reduce_mod_phi", refuse)
    assert class_sums(columns, weights, range(5), [1, 3], [0, 2]) == want


def test_class_sums_merge_equal_values_held_as_different_terms():
    # the kernel reads terms as they stand and merges equal values by their
    # identity images: the full sum of roots next to 0, two exponent sets of
    # one Gauss period, and each value next to its canonical terms
    p, one = 7, CycNum.from_int(1)
    residues = quadratic_residues(p)
    full, zero = CycNum.from_exponents(p, range(p)), CycNum(p, ())
    eta = CycNum.from_exponents(p, residues)
    eta_too = CycNum.from_exponents(p, [*residues, *range(p)])
    other = CycNum.from_exponents(p, [c for c in range(1, p) if c not in residues])
    assert full == zero and full.terms != zero.terms
    assert eta_too == eta and eta_too.terms != eta.terms
    assert CycNum(p, other.coeffs).terms != other.terms  # zeta^6 is reduced away
    # zeta -> zeta^3 swaps the two periods, so the first two columns are one
    # orbit only if full merges with zero and eta_too with eta
    columns = [(eta, full, eta_too), (other, zero, other), (one, eta, other), (one, other, eta)]
    canonical = [tuple(CycNum(p, x.coeffs) for x in col) for col in columns]
    weights, ks, both = [2, 2, 1, 1], range(4), [0, 1]
    want = plain_class_sums(canonical, weights, ks, both, both)
    assert class_sums(canonical, weights, ks, both, both) == want
    assert class_sums(columns, weights, ks, both, both) == want
    assert class_sums(columns + canonical, weights * 2, ks, both, both) == [
        [[2 * e for e in row] for row in matrix] for matrix in want]
    # a column of terms whose conjugate is missing is still irrational
    with pytest.raises(ConsistencyError, match="Galois-incomplete"):
        class_sums(columns[:1] + columns[2:], [2, 1, 1], ks, both, both)
    with pytest.raises(ConsistencyError, match="Galois-incomplete"):
        class_sums([(one, eta_too)], [1], range(1), [0], [0])


@pytest.mark.parametrize("n", (1, 2, 12, 101, 1001))
@pytest.mark.parametrize("b", (1, 3, 11))
def test_ring_map_modulus_is_phi_at_a_power_of_two(n, b):
    # M = Phi_n(2^b), summed term by term, and zeta_n^j -> 2^(b j) mod M
    from tensorwalks.cyclotomic import _images

    m = sum(c * 2 ** (b * i) for i, c in enumerate(cyclotomic_polynomial(n)))
    assert _images([], n, b, ())[0] == m
    exponents = sorted({0, 1, n // 2, n - 1})
    assert _images([root_of_unity(n, j) for j in exponents], n, b, (1,)) == \
        (m, [[pow(2, b * j, m) for j in exponents]])


def plain_class_sums(columns, weights, ks, left, right):
    """The sums of `class_sums` in plain cyclotomic arithmetic."""
    return [[[sum((w * col[-1] ** k * col[i] * col[j].conj() for col, w in zip(columns, weights)),
                  CycNum(1, ())).as_integer() for j in right] for i in left] for k in ks]


def test_class_sums_lift_exactly():
    x, w = CycNum(15, [2, -1, 0, 1, 0, 0, 1, -3]), CycNum(15, [1, 1, 0, 0, 0, 0, 0, -1])
    one = CycNum.from_int(1)
    columns = [(b, one, a) for a, b in orbit(x, w)] + [ints(3, 1, -7)]
    weights = [1] * len(columns)
    ks = range(0, 25, 3)
    want = plain_class_sums(columns, weights, ks, [0], [1])
    assert any(v[0][0] < 0 for v in want)
    assert class_sums(columns, weights, ks, [0], [1]) == want
    # weights far beyond any character degree: the bound is the L1 norms'
    scale = 10**40
    assert class_sums(columns, [scale] * len(columns), ks, [0], [1]) == [
        [[v[0][0] * scale]] for v in want]
    # every pair of entries, conjugated on the right, and repeated columns,
    # which merge into one column of summed weight
    both = [0, 1]
    want = plain_class_sums(columns, weights, ks, both, both)
    assert class_sums(columns, weights, ks, both, both) == want
    assert class_sums(columns * 2, weights * 2, ks, both, both) == [
        [[2 * e for e in row] for row in matrix] for matrix in want]
    assert class_sums(columns, weights, range(0), [0], [1]) == []


def test_lift_is_the_symmetric_residue():
    assert [lift(r, 7) for r in (0, 3, 4, 6, 7, -1, 10)] == [0, 3, -3, -1, 0, -1, 3]
