import itertools
from fractions import Fraction
from math import factorial

import pytest

from tensorwalks import closedforms as cf
from tensorwalks.combinatorics import partitions_of, rencontres
from tensorwalks.groups import parse_spec_full
from tensorwalks.numbertheory import is_prime, legendre_symbol, quadratic_residues
from tensorwalks.polynomials import Polynomial
from tensorwalks.quiver import character_walk_counts, walk_count_character, walk_counts_character
from tensorwalks.series import RatFunc

from oracles import compositions, multinomial


def test_cyclic_walks():
    assert cf.cyclic_walks(10, range(6, 7), 0, [8]) == [[15]]
    assert cf.cyclic_walks(10, range(12, 13), 0, [0]) == [[948]]
    for r in (3, 7):
        for a in range(r):
            assert cf.cyclic_walks(r, range(1), a, [a]) == [[1]]
            assert cf.cyclic_walks(r, range(1), a, [(a + 1) % r]) == [[0]]


def test_cyclic_walks_equal_the_binomial_sum():
    # the carried C(k, l) against math.comb, for every pair of nodes
    from math import comb

    for r in range(2, 9):
        for k in range(40):
            for a, c in itertools.product(range(r), repeat=2):
                expected = sum(comb(k, l) for l in range(k + 1)
                               if (k - 2 * l - (c - a)) % r == 0)
                assert cf.cyclic_walks(r, range(k, k + 1), a, [c]) == [[expected]], (r, k, a, c)


def test_circulant_walks():
    conn13 = [(s,) for s in (1, 3, 4, 9, 10, 12)]
    assert cf.group_ring_walks((13,), conn13, range(2, 3), [(0,)]) == [[6]]
    assert cf.group_ring_walks((13,), conn13, range(2, 3), [(1,)]) == [[2]]
    for c in range(7):
        assert (cf.group_ring_walks((7,), [(1,), (6,)], range(9), [(c,)])
                == cf.cyclic_walks(7, range(9), 0, [c]))
    # a strided range is honoured: row 0 of A^k on the 5-cycle, k = 3, 5, 7
    assert cf.group_ring_walks((5,), [(1,), (4,)], range(3, 9, 2), [(0,)]) == [[0, 2, 14]]
    for bad_steps in ([(0,)], [(5,)], [(1, 0)]):
        with pytest.raises(ValueError):
            cf.group_ring_walks((5,), bad_steps, range(2, 3), [(0,)])
    with pytest.raises(ValueError):
        cf.group_ring_walks((5,), [(1,), (4,)], range(-1, 0), [(0,)])
    # against the multinomial sum over step-type compositions, repeated
    # steps included, on one to three factors
    for radii, steps in (((6,), [(1,), (1,), (5,)]),
                         ((9,), [(2,), (4,), (5,), (7,)]),
                         ((12,), [(1,), (5,), (7,), (11,), (6,)]),
                         ((4, 2), [(1, 0), (0, 1), (1, 0)]),
                         ((5, 3), [(1, 0), (0, 2), (4, 1)]),
                         ((3, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)])):
        def reached(parts):  # the element reached by parts[j] copies of step j
            return tuple(sum(s[i] * l for s, l in zip(steps, parts)) % r
                         for i, r in enumerate(radii))

        for c in itertools.product(*(range(r) for r in radii)):
            want = [sum(multinomial(k, parts) for parts in compositions(k, len(steps))
                        if reached(parts) == c) for k in range(8)]
            assert cf.group_ring_walks(radii, steps, range(8), [c]) == [want], (radii, steps, c)


def test_paley_targets():
    # a target is read mod p, and its Legendre symbol picks the case
    assert cf.paley_closed_form(13, range(4), [16]) == cf.paley_closed_form(13, range(4), [3])
    assert cf.paley_closed_form(13, range(4), [-1]) == [cf.paley_bruteforce(13, range(4), 12)]
    assert cf.paley_printed_form(7, 8, 1) == cf.paley_printed_form(7, 1, 1)
    for p in (0, 1, 2, 9, 15):
        with pytest.raises(ValueError, match="odd prime"):
            cf.paley_closed_form(p, range(3), [1])
        with pytest.raises(ValueError, match="odd prime"):
            cf.paley_printed_form(p, 1, 1)


def test_paley_closed_form_examples():
    assert cf.paley_closed_form(13, range(2, 3), [3]) == [[2]]
    assert cf.paley_closed_form(7, range(2, 3), [3]) == [[2]]
    assert cf.paley_closed_form(13, range(3), [0]) == [[1, 0, 6]]
    assert cf.paley_closed_form(13, range(0, 3, 2), [3]) == [[0, 2]]
    assert cf.paley_closed_form(13, range(0), [3]) == [[]]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_paley_three_routes_agree(p):
    conn = [(s,) for s in quadratic_residues(p)]
    ks = range(9)
    for c in range(p):
        brute = cf.paley_bruteforce(p, ks, c)
        assert len(brute) == len(ks)
        assert cf.paley_closed_form(p, ks, [c]) == [brute], (p, c)
        assert cf.group_ring_walks((p,), conn, ks, [(c,)]) == [brute], (p, c)
        # a sub-range, strided or not, starts its powers at its own start
        for sub in (range(4, 5), range(3, 9, 2)):
            want = brute[sub.start:sub.stop:sub.step]
            assert cf.paley_closed_form(p, sub, [c]) == [want] == [cf.paley_bruteforce(p, sub, c)]


def test_paley_printed_form_discrepancies():
    # residue case, p = 3 mod 4: printed sign fails at p=7, k=1
    printed = cf.paley_printed_form(7, 1, 1)
    assert printed == Fraction(3, 7)
    assert cf.paley_bruteforce(7, range(1, 2), 1) == [1]
    # nonresidue case, p = 1 mod 4: middle sign flips at p=13, k=1
    printed = cf.paley_printed_form(13, 2, 1)
    assert isinstance(printed, Fraction) and printed != 0
    assert cf.paley_bruteforce(13, range(1, 2), 2) == [0]
    # nonresidue case, p = 3 mod 4: repeated factor collapses the terms at k=2
    printed = cf.paley_printed_form(7, 3, 2)
    assert printed != 2 and cf.paley_bruteforce(7, range(2, 3), 3) == [2]


@pytest.mark.parametrize("p", [p for p in range(5, 60) if is_prime(p)])
def test_paley_printed_forms_fail_exactly_in_the_three_misprinted_cases(p):
    # the printed forms as they stand: right on zero targets and on residues
    # with p = 1 (mod 4); wrong at every k on residues with p = 3 (mod 4) and
    # on nonresidues for both classes of p
    residues = set(quadratic_residues(p))
    nonresidue = min(c for c in range(1, p) if c not in residues)
    ks = range(1, 9)
    for symbol, c in ((0, 0), (1, 1), (-1, nonresidue)):
        assert legendre_symbol(c, p) == symbol
        correct = symbol == 0 or (symbol == 1 and p % 4 == 1)
        for k, brute in zip(ks, cf.paley_bruteforce(p, ks, c)):
            assert (cf.paley_printed_form(p, c, k) == brute) == correct, (symbol, k)


def test_sn_formula_examples():
    assert cf.sn_irrep_dim_formula(4, range(3, 4), [(1, 1, 1, 1)]) == [[1]]
    assert cf.sn_irrep_dim_formula(4, range(2, 3), [(4,)]) == [[2]]
    assert cf.sn_irrep_dim_formula(2, range(1, 2), [(1, 1)]) == [[1]]
    with pytest.raises(ValueError):
        cf.sn_irrep_dim_formula(4, range(2, 3), [(3, 2)])


def test_sn_formula_matches_character_sums():
    for n in (2, 3, 4, 5):
        spec = parse_spec_full(f"S{n}")
        for k in range(7):
            counts = character_walk_counts(spec.group, spec.module, k)
            for i, lam in enumerate(partitions_of(n)):
                assert (cf.sn_irrep_dim_formula(n, range(k, k + 1), [lam])
                        == [[counts[0][i]]]), (n, k, lam)


def test_wreath_invariants_examples():
    assert cf.wreath_invariants(2, 2, range(4, 5)) == [4]
    assert cf.wreath_invariants(2, 2, range(3, 4)) == [0]
    assert cf.wreath_invariants(3, 2, range(3, 4)) == [1]
    assert cf.wreath_invariants(2, 2, range(1)) == [1]
    dims = cf.wreath_invariants(2, 2, range(9))
    for k in range(1, 9):
        if k % 2:
            assert dims[k] == 0
        elif k >= 2:
            assert dims[k] == max(2 ** (k - 2), 1)


def wreath_composition_sum(r, n, k):
    """Oracle: (1/n!) sum_m F_n(m) times the multinomials over the
    compositions of k/r into m parts, each part scaled by r."""
    if k == 0:
        return 1
    if k % r:
        return 0
    total = sum(rencontres(n, m) * sum(multinomial(k, tuple(q * r for q in qs))
                                       for qs in compositions(k // r, m))
                for m in range(1, n + 1))
    q, rem = divmod(total, factorial(n))
    assert rem == 0
    return q


def test_wreath_convolution_equals_composition_sum():
    for r, n, top in ((2, 6, 20), (3, 6, 21), (4, 6, 16), (3, 5, 18), (2, 4, 20), (5, 2, 20)):
        dims = cf.wreath_invariants(r, n, range(top + 1))
        for k in range(top + 1):
            assert dims[k] == wreath_composition_sum(r, n, k), (r, n, k)


def test_wreath_evaluators_and_bruteforce():
    for r in (2, 3, 4):
        for n in (1, 2, 3, 4):
            spec = parse_spec_full(f"Z{r}wrS{n}")
            dims = cf.wreath_invariants(r, n, range(9))
            for k in range(9):
                assert dims[k] == walk_count_character(spec.group, spec.module, k, 0, 0), (r, n, k)
            if r**n * factorial(n) <= 200:
                assert cf.wreath_invariants_bruteforce(r, n, range(9)) == dims, (r, n)
                assert (cf.wreath_invariants_bruteforce(r, n, range(8, 0, -3))
                        == dims[8:0:-3]), (r, n)
    with pytest.raises(ValueError):
        cf.wreath_invariants_bruteforce(4, 3, range(2, 3))  # order 384 > 200
    with pytest.raises(ValueError):
        cf.wreath_invariants_bruteforce(2, 2, range(-1, 3))


def test_wreath_invariants_over_a_range_match_the_egf_and_the_character_route():
    # one convolution up to the largest k serves every k of the range, in
    # its order and with its stride
    for r in (2, 3, 4):
        for n in (1, 2, 3, 4):
            spec = parse_spec_full(f"Z{r}wrS{n}")
            e = cf.wreath_invariants_egf(r, n, 40)
            character, = walk_counts_character(spec.group, spec.module, range(41), 0, [0])
            for ks in (range(41), range(3, 40, 3), range(40, -1, -7), range(5, 5)):
                dims = cf.wreath_invariants(r, n, ks)
                assert dims == [e.coefficient(k) for k in ks], (r, n, ks)
                assert dims == [character[k] for k in ks], (r, n, ks)
    with pytest.raises(ValueError):
        cf.wreath_invariants(2, 2, range(-2, 3))


def test_wreath_matches_group_model_character_route():
    for r, n in ((2, 2), (2, 3), (3, 2), (4, 2)):
        spec = parse_spec_full(f"Z{r}wrS{n}")
        dims = cf.wreath_invariants(r, n, range(9))
        for k in range(9):
            assert walk_count_character(spec.group, spec.module, k, 0, 0) == dims[k]


def test_wreath_egf():
    e = cf.wreath_invariants_egf(2, 2, 6)
    assert [int(c) for c in e.coeffs] == [1, 0, 1, 0, 4, 0, 16]
    assert [int(c) for c in cf.wreath_invariants_egf(2, 1, 5).coeffs] == [1, 0, 1, 0, 1, 0]
    assert [int(c) for c in cf.wreath_invariants_egf(3, 1, 6).coeffs] == [1, 0, 0, 1, 0, 0, 1]
    for r, n in ((2, 3), (3, 2), (4, 4)):
        e = cf.wreath_invariants_egf(r, n, 8)
        assert [e.coefficient(k) for k in range(9)] == cf.wreath_invariants(r, n, range(9)), (r, n)


def test_wreath_egf_carries_the_power_of_h(monkeypatch):
    # h^m is carried from m to m + 1: n binomial convolutions, each a product
    # of two factors, where raising h to each m afresh takes about n^2 / 2
    import tensorwalks.series as series

    real, convolutions = series.egf_product, []

    def counted(factors):
        factors = list(factors)
        convolutions.append(len(factors) - 1)
        return real(factors)

    monkeypatch.setattr(series, "egf_product", counted)
    monkeypatch.setattr(cf, "egf_product", counted, raising=False)
    e = cf.wreath_invariants_egf(4, 8, 40)
    assert 0 < sum(convolutions) <= 8
    monkeypatch.undo()
    h = series.egf_hyperbolic(1, 4, 40)
    total = [sum(rencontres(8, m) * series.egf_pow(h, m).coeffs[k] for m in range(9))
             for k in range(41)]
    assert list(e.coeffs) == [c // factorial(8) for c in total]
    assert list(e.coeffs[:9]) == cf.wreath_invariants(4, 8, range(9))


def test_weyl_bc():
    assert cf.weyl_bc_centralizer(2, 2) == 4
    assert cf.weyl_bc_centralizer(1, 3) == 1
    assert cf.weyl_bc_centralizer(3, 2) == 4
    for n in range(1, 5):
        dims = cf.wreath_invariants(2, n, range(2, 12, 2))
        for k in range(1, 6):
            assert cf.weyl_bc_centralizer(n, k) == dims[k - 1]


def test_gl2_sl2_dims_examples():
    assert cf.gl2_dims(3, 1, cf.INDUCED) == 1
    assert cf.sl2_dims(3, 2, cf.STEINBERG) == 1
    assert cf.gl2_dims(3, 3, cf.STEINBERG) == 1
    assert cf.gl2_dims(5, 0, cf.INDUCED) == 1
    # parity split of the Steinberg dimensions
    for q in (3, 5, 7):
        for ell in range(1, 5):
            odd = cf.gl2_dims(q, 2 * ell + 1, cf.STEINBERG)
            assert odd == sum(q ** (2 * j) for j in range(ell))
            even = cf.gl2_dims(q, 2 * ell, cf.STEINBERG)
            assert even == 1 + sum(q ** (2 * j + 1) for j in range(ell - 1))
            sl_odd = cf.sl2_dims(q, 2 * ell + 1, cf.STEINBERG)
            assert sl_odd == 2 * sum(q ** (2 * j) for j in range(ell))


def test_gl2_sl2_match_character_route():
    for q in (3, 5, 7):
        for family, dims in (("GL2", cf.gl2_dims), ("SL2", cf.sl2_dims)):
            for suffix, which in (("", cf.INDUCED), ("@steinberg", cf.STEINBERG)):
                spec = parse_spec_full(f"{family}({q}){suffix}")
                g, v = spec.group, spec.module
                for k in range(9):
                    assert walk_count_character(g, v, k, 0, 0) == dims(q, k, which)


def test_linear_group_module_names_are_the_closed_forms_which():
    # the closed forms read a GL2/SL2 spec's params["which"] as `which`
    for family in ("GL2", "SL2"):
        for suffix, which in (("", cf.INDUCED), ("@steinberg", cf.STEINBERG)):
            assert parse_spec_full(f"{family}(3){suffix}").params == {"q": 3, "which": which}


def test_gl2_sl2_poincare():
    rf = cf.gl2_poincare(3, cf.INDUCED)
    expected = RatFunc(
        Polynomial((1, -6, 9, -3)),
        Polynomial((1, -1)) * Polynomial((1, -2)) * Polynomial((1, -4)))
    assert rf == expected
    for q in (3, 5, 7):
        for which in (cf.INDUCED, cf.STEINBERG):
            assert cf.gl2_poincare(q, which).series(12) == [cf.gl2_dims(q, k, which) for k in range(13)]
            assert cf.sl2_poincare(q, which).series(12) == [cf.sl2_dims(q, k, which) for k in range(13)]
    # every instance starts at 1
    assert cf.sl2_poincare(7, cf.STEINBERG).series(0) == [1]


def test_abelian_walks():
    units = [(1, 0), (0, 1)]
    assert cf.group_ring_walks([4, 2], units, range(6, 7), [(2, 0)]) == [[16]]
    assert cf.group_ring_walks([4, 2], units, range(6, 7), [(1, 1)]) == [[12]]
    assert cf.group_ring_walks([2, 2], units, range(2, 3), [(0, 0)]) == [[2]]
    with pytest.raises(ValueError):
        cf.group_ring_walks([4, 2], units, range(3, 4), [(1,)])
    with pytest.raises(ValueError):
        cf.group_ring_walks([4, 2], units, range(3, 4), [(4, 0)])
