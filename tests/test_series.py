import random
from fractions import Fraction

import pytest

from tensorwalks.errors import UnsupportedQueryError
from tensorwalks.groups import (
    ClassInfo,
    GroupData,
    IrrepInfo,
    ModuleChar,
    coordinate_module,
    monomial_module,
    parse_spec_full,
    permutation_module,
    standard_module_cyclic,
)
from tensorwalks.cyclotomic import CycNum
from tensorwalks.polynomials import Polynomial
from tensorwalks.quiver import mat_pow, mckay_adjacency, power_rows
from tensorwalks.registry import builtin_modules
from tensorwalks.series import (
    RatFunc,
    cramer_numerators,
    det_factorization_check,
    dynkin_quotient,
    egf_from_ints,
    egf_hyperbolic,
    egf_product,
    egf_scale_arg,
    poincare_character,
    poincare_cramer,
    walk_generating_function,
)


def lin(c0, c1):
    return Polynomial((c0, c1))


def trivial_group_with_module(d):
    g = GroupData("trivial", 1, "full", (ClassInfo("e", 1),), 1,
                  (IrrepInfo("0", 1),), lambda i: (CycNum.from_rational(1),))
    return g, ModuleChar(g, (CycNum.from_rational(d),))


def test_ratfunc_normalization():
    rf = RatFunc(lin(1, -1) * lin(1, -2), lin(1, -1) * lin(1, -3))
    # the common (1 - t) factor cancels, denominator is monic, den(0) != 0
    assert rf == RatFunc(lin(1, -2), lin(1, -3))
    assert rf.den.leading() == 1
    num, den = rf.display_pair()
    assert den.coefficient(0) == 1
    # rational coefficients, and a common factor 1 + t under non-unit content
    rf = RatFunc(Polynomial((Fraction(2, 3),)) * lin(2, -4) * lin(1, 1), lin(6, -3) * lin(3, 3))
    assert (rf.num, rf.den) == (Polynomial((Fraction(-4, 27), Fraction(8, 27))), lin(-2, 1))
    rf = RatFunc(Polynomial(), lin(2, 6))
    assert (rf.num, rf.den) == (Polynomial(), Polynomial((1,)))
    with pytest.raises(ValueError):
        RatFunc(Polynomial((1,)), Polynomial((0, 1)))
    with pytest.raises(ZeroDivisionError):
        RatFunc(Polynomial((1,)), Polynomial())


def test_ratfunc_series():
    rf = RatFunc(Polynomial((1,)), Polynomial((1, -1)))
    assert rf.series(5) == [1] * 6
    rf = RatFunc(Polynomial((1, 0, -3)), Polynomial((1, 0, -4)))
    assert rf.series(6) == [1, 0, 1, 0, 4, 0, 16]


def test_cramer_k2_graph():
    assert poincare_cramer([[0, 1], [1, 0]], 0).series(6) == [1, 0, 1, 0, 1, 0, 1]
    assert poincare_cramer([[0, 1], [1, 0]], 1).series(5) == [0, 1, 0, 1, 0, 1]


def test_cramer_s4():
    v = permutation_module(4)
    a = mckay_adjacency(v.group, v)
    coeffs = poincare_cramer(a, 0).series(10)
    assert coeffs[0] == 1
    for k in range(1, 11):
        assert coeffs[k] == Fraction(4**k + 6 * 2**k + 8, 24)


def test_cramer_z10_t12():
    v = standard_module_cyclic(10)
    a = mckay_adjacency(v.group, v)
    assert poincare_cramer(a, 0).series(12)[12] == 948


def test_character_equals_cramer_everywhere():
    for name, g, v in builtin_modules():
        a = mckay_adjacency(g, v)
        for lam in range(g.n_classes):
            assert poincare_character(g, v, lam) == poincare_cramer(a, lam), (name, lam)


def test_cramer_numerators_on_s10_equal_walk_counts():
    spec = parse_spec_full("S10")
    g = spec.group
    a = mckay_adjacency(g, spec.module)
    den, nums = cramer_numerators(a)
    assert len(nums) == g.n_classes == 42
    walks = power_rows(a.entries, 0, range(16))
    for lam, num in enumerate(nums):
        assert RatFunc(num, den).series(15) == [w[lam] for w in walks], lam


def test_series_leaves_the_integers_only_where_a_coefficient_is_not_integral():
    # 1 / (2 - t) = sum t^k / 2^(k+1)
    rf = RatFunc(Polynomial((1,)), Polynomial((2, -1)))
    assert rf.series(5) == [Fraction(1, 2 ** (k + 1)) for k in range(6)]
    # (1/2 + t/2) / (1 - t) = 1/2 + t + t^2 + ...: integral after the first
    coeffs = RatFunc(Polynomial((Fraction(1, 2), Fraction(1, 2))), Polynomial((1, -1))).series(4)
    assert coeffs == [Fraction(1, 2), 1, 1, 1, 1]
    assert [type(c) for c in coeffs] == [Fraction, int, int, int, int]
    # (3 - t) / (3 - 3t): 1 then 2/3 forever
    coeffs = RatFunc(Polynomial((3, -1)), Polynomial((3, -3))).series(3)
    assert coeffs == [1, Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)]
    assert type(coeffs[0]) is int
    # an integral series stays in the integers
    assert all(type(c) is int for c in RatFunc(Polynomial((1, 0, -3)),
                                                Polynomial((1, 0, -4))).series(8))


def test_cramer_numerators_on_every_registry_module():
    for name, g, v in builtin_modules():
        a = mckay_adjacency(g, v)
        den, nums = cramer_numerators(a)
        assert len(nums) == g.n_classes
        for lam, num in enumerate(nums):
            assert RatFunc(num, den) == walk_generating_function(a, 0, lam), (name, lam)


def test_character_series_for_invariant_tier():
    v = monomial_module(2, 2)
    rf = poincare_character(v.group, v, 0)
    assert rf == RatFunc(Polynomial((1, 0, -3)), Polynomial((1, 0, -4)))
    with pytest.raises(UnsupportedQueryError):
        poincare_character(v.group, v, 1)


def test_trivial_group_series():
    g, v = trivial_group_with_module(3)
    rf = poincare_character(g, v, 0)
    assert rf == RatFunc(Polynomial((1,)), Polynomial((1, -3)))
    a = mckay_adjacency(g, v)
    assert det_factorization_check(g, v, a)


def test_det_factorization_for_builtins():
    for name, g, v in builtin_modules():
        a = mckay_adjacency(g, v)
        assert det_factorization_check(g, v, a), name


def test_det_factorization_rejects_a_perturbed_character():
    v = permutation_module(4)
    a = mckay_adjacency(v.group, v)
    values = list(v.values)
    values[1] = values[1] + 1
    assert not det_factorization_check(v.group, ModuleChar(v.group, tuple(values)), a)


def test_dynkin_quotient_matrix_level():
    assert dynkin_quotient([[0, 1], [1, 0]], 0) == RatFunc(
        Polynomial((1,)), Polynomial((1, 0, -1)))
    k3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    rf = dynkin_quotient(k3, 0)
    assert rf == RatFunc(Polynomial((1, 0, -1)), Polynomial((1, 0, -3, -2)))


def test_dynkin_quotient_matches_invariant_series():
    for r in (2, 3, 5, 10):
        v = standard_module_cyclic(r)
        a = mckay_adjacency(v.group, v)
        lhs = dynkin_quotient(a, 0)
        rhs = poincare_character(v.group, v, 0)
        assert lhs == rhs, r
        assert lhs.series(20) == rhs.series(20)


def test_general_digraph_generating_function():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 6)
        rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        powers = [mat_pow(rows, k) for k in range(11)]
        alpha = rng.randrange(n)
        gamma = rng.randrange(n)
        coeffs = walk_generating_function(rows, alpha, gamma).series(10)
        for k in range(11):
            assert coeffs[k] == powers[k][alpha][gamma]


def test_egf_hyperbolic_patterns():
    assert [int(c) for c in egf_hyperbolic(1, 2, 6).coeffs] == [1, 0, 1, 0, 1, 0, 1]
    assert [int(c) for c in egf_hyperbolic(1, 1, 4).coeffs] == [1, 1, 1, 1, 1]
    assert [int(c) for c in egf_hyperbolic(2, 2, 5).coeffs] == [0, 1, 0, 1, 0, 1]
    # period wraps: j and j + r give the same series
    assert egf_hyperbolic(5, 3, 8) == egf_hyperbolic(2, 3, 8)


def test_egf_product_and_scale():
    cosh = egf_hyperbolic(1, 2, 6)
    sq = egf_product([cosh, cosh])
    assert [sq.coefficient(k) for k in (0, 2, 4)] == [1, 2, 8]
    one = egf_from_ints([1, 0, 0, 0, 0, 0, 0])
    assert egf_product([sq, one]) == sq
    exp = egf_hyperbolic(1, 1, 4)
    assert [int(c) for c in egf_scale_arg(exp, 2).coeffs] == [1, 2, 4, 8, 16]
    with pytest.raises(ValueError):
        egf_product([cosh, egf_hyperbolic(1, 2, 4)])


def test_irrational_series_is_rejected():
    from tensorwalks.groups import ClassInfo, GroupData, IrrepInfo
    from tensorwalks.cyclotomic import root_of_unity
    from tensorwalks.errors import ConsistencyError

    # Galois-incomplete data: a single class carrying a non-real value can
    # never combine to a rational series
    g = GroupData("broken", 1, "full", (ClassInfo("e", 1),), 3,
                  (IrrepInfo("0", 1),), lambda i: (CycNum.from_rational(1),))
    v = ModuleChar(g, (root_of_unity(3, 1),))
    with pytest.raises(ConsistencyError):
        poincare_character(g, v, 0)


def test_serialization_formats():
    import json

    rf = RatFunc(Polynomial((1, 0, -3)), Polynomial((1, 0, -4)))
    doc = json.loads(rf.to_json())
    assert doc == {"num": ["1", "0", "-3"], "den": ["1", "0", "-4"]}
    egf = egf_hyperbolic(1, 2, 3)
    assert json.loads(egf.to_json()) == {"order": 3, "coeffs": ["1", "0", "1", "0"]}


def test_egf_square_matches_quiver_walks():
    mod = coordinate_module([2, 2])
    a = mckay_adjacency(mod.group, mod)
    sq = egf_product([egf_hyperbolic(1, 2, 8), egf_hyperbolic(1, 2, 8)])
    for k in range(9):
        assert sq.coefficient(k) == mat_pow(a.rows(), k)[0][0]
