import random

import pytest

from tensorwalks.errors import ConsistencyError, UnsupportedQueryError
from tensorwalks.groups import (
    ClassInfo,
    GroupData,
    IrrepInfo,
    parse_spec_full,
)
from tensorwalks.cyclotomic import CycNum
from tensorwalks.polynomials import Polynomial
from tensorwalks.quiver import mat_pow, mckay_adjacency, power_rows
from tensorwalks.verify import builtin_specs
from tensorwalks.series import (
    RatFunc,
    _newton_product,
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
    g = GroupData("trivial", 1, (ClassInfo("e", 1),), 1,
                  (IrrepInfo("0"),), lambda i: (CycNum.from_int(1),))
    return g, (CycNum.from_int(d),)


def test_ratfunc_normalization():
    rf = RatFunc(lin(1, -1) * lin(1, -2), lin(1, -1) * lin(1, -3))
    # the common (1 - t) factor cancels and den(0) = 1, the printed form
    assert rf == RatFunc(lin(1, -2), lin(1, -3))
    assert (rf.num, rf.den) == (lin(1, -2), lin(1, -3))
    # a common factor 1 + t and a joint content 2 cancel, and den(0) = -1
    # flips both signs
    rf = RatFunc(lin(4, -8) * lin(1, 1), lin(-2, 6) * lin(1, 1))
    assert (rf.num, rf.den) == (lin(-2, 4), lin(1, -3))
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
    spec = parse_spec_full("S4")
    a = mckay_adjacency(spec.group, spec.module)
    coeffs = poincare_cramer(a, 0).series(10)
    assert coeffs[0] == 1
    for k in range(1, 11):
        assert 24 * coeffs[k] == 4**k + 6 * 2**k + 8


def test_cramer_z10_t12():
    spec = parse_spec_full("Z10")
    a = mckay_adjacency(spec.group, spec.module)
    assert poincare_cramer(a, 0).series(12)[12] == 948


def test_character_equals_cramer_everywhere():
    for name, spec in builtin_specs():
        g, v = spec.group, spec.module
        a = mckay_adjacency(g, v)
        for lam in range(g.n_classes):
            assert poincare_character(g, v, lam) == poincare_cramer(a, lam), (name, lam)


def test_cramer_numerators_on_s10_equal_walk_counts():
    spec = parse_spec_full("S10")
    g = spec.group
    a = mckay_adjacency(g, spec.module)
    den, nums = cramer_numerators(a)
    assert len(nums) == g.n_classes == 42
    walks = power_rows(a, 0, range(16))
    for lam, num in enumerate(nums):
        assert RatFunc(num, den).series(15) == [w[lam] for w in walks], lam


def test_a_non_integral_series_is_a_consistency_failure():
    # 1 / (2 - t) = sum t^k / 2^(k+1)
    with pytest.raises(ConsistencyError):
        RatFunc(Polynomial((1,)), Polynomial((2, -1)))
    # (1 + t) / (2 - 2t) = 1/2 + t + t^2 + ...: non-integral at t^0 alone
    with pytest.raises(ConsistencyError):
        RatFunc(lin(1, 1), lin(2, -2))
    # (3 - t) / (3 - 3t): 1 then 2/3 forever, integral at t^0 alone
    with pytest.raises(ConsistencyError):
        RatFunc(lin(3, -1), lin(3, -3))
    # an integral series is one after its common factor and content cancel
    rf = RatFunc(lin(3, -3), lin(3, -3) * lin(-1, 4))
    assert (rf.num, rf.den) == (Polynomial((-1,)), lin(1, -4))
    assert all(type(c) is int for c in rf.series(8))


def test_newton_product_checks_every_division():
    # (1 - t)(1 - 2t) from p_1 = 3, p_2 = 5
    assert _newton_product([3, 5]) == Polynomial((1, -3, 2))
    assert _newton_product([]) == Polynomial((1,))
    # x + y = 1, x^2 + y^2 = 0 forces xy = 1/2: no algebraic integers
    with pytest.raises(ConsistencyError, match="c_2"):
        _newton_product([1, 0])
    # p_1 = p_2 = 0, p_3 = 1 forces xyz = 1/3
    with pytest.raises(ConsistencyError, match="c_3"):
        _newton_product([0, 0, 1])


def test_cramer_numerators_on_every_registry_module():
    for name, spec in builtin_specs():
        g, v = spec.group, spec.module
        a = mckay_adjacency(g, v)
        den, nums = cramer_numerators(a)
        assert len(nums) == g.n_classes
        for lam, num in enumerate(nums):
            assert RatFunc(num, den) == walk_generating_function(a, 0, lam), (name, lam)


def test_character_series_for_invariant_tier():
    spec = parse_spec_full("Z2wrS2")
    g, v = spec.group, spec.module
    rf = poincare_character(g, v, 0)
    assert rf == RatFunc(Polynomial((1, 0, -3)), Polynomial((1, 0, -4)))
    with pytest.raises(UnsupportedQueryError):
        poincare_character(g, v, 1)


def test_trivial_group_series():
    g, v = trivial_group_with_module(3)
    rf = poincare_character(g, v, 0)
    assert rf == RatFunc(Polynomial((1,)), Polynomial((1, -3)))
    a = mckay_adjacency(g, v)
    assert det_factorization_check(v, a)


def test_det_factorization_for_builtins():
    for name, spec in builtin_specs():
        g, v = spec.group, spec.module
        a = mckay_adjacency(g, v)
        assert det_factorization_check(v, a), name


def test_det_factorization_rejects_a_perturbed_character():
    spec = parse_spec_full("S4")
    g = spec.group
    a = mckay_adjacency(g, spec.module)
    values = list(spec.module)
    values[1] = values[1] + 1
    assert not det_factorization_check(tuple(values), a)


def test_dynkin_quotient_matrix_level():
    assert dynkin_quotient([[0, 1], [1, 0]], 0) == RatFunc(
        Polynomial((1,)), Polynomial((1, 0, -1)))
    k3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    rf = dynkin_quotient(k3, 0)
    assert rf == RatFunc(Polynomial((1, 0, -1)), Polynomial((1, 0, -3, -2)))


def test_dynkin_quotient_matches_invariant_series():
    for r in (2, 3, 5, 10):
        spec = parse_spec_full(f"Z{r}")
        g, v = spec.group, spec.module
        a = mckay_adjacency(g, v)
        lhs = dynkin_quotient(a, 0)
        rhs = poincare_character(g, v, 0)
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
    g = GroupData("broken", 1, (ClassInfo("e", 1),), 3,
                  (IrrepInfo("0"),), lambda i: (CycNum.from_int(1),))
    v = (root_of_unity(3, 1),)
    with pytest.raises(ConsistencyError):
        poincare_character(g, v, 0)


def test_egf_square_matches_quiver_walks():
    spec = parse_spec_full("Z2xZ2")
    a = mckay_adjacency(spec.group, spec.module)
    sq = egf_product([egf_hyperbolic(1, 2, 8), egf_hyperbolic(1, 2, 8)])
    for k in range(9):
        assert sq.coefficient(k) == mat_pow(a, k)[0][0]
