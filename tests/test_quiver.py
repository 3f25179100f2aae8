import json

import pytest

from tensorwalks.errors import ConsistencyError, UnsupportedQueryError
from tensorwalks.groups import (
    build_cyclic,
    circulant_module,
    coordinate_module,
    monomial_module,
    parse_spec_full,
    permutation_module,
    standard_module_cyclic,
)
from tensorwalks.quiver import (
    WalkMatrix,
    bratteli,
    bratteli_dot,
    centralizer_dim,
    character_walk_counts,
    eigen_check,
    mat_pow,
    mckay_adjacency,
    power_rows,
    quiver_dot,
    walk_count_character,
    walk_count_matrix,
)
from tensorwalks.registry import builtin_fulltable_pairs, builtin_modules


def s4_setup():
    v = permutation_module(4)
    return v.group, v, mckay_adjacency(v.group, v)


def test_s4_quiver_edges():
    g, v, a = s4_setup()
    idx = {info.label: i for i, info in enumerate(g.irreps)}
    e = a.entries
    assert e[idx["(4,)"]][idx["(3, 1)"]] == 1
    assert e[idx["(3, 1)"]][idx["(3, 1)"]] == 2  # loop of multiplicity two
    assert e[idx["(3, 1)"]][idx["(2, 2)"]] == 1
    assert e[idx["(2, 2)"]][idx["(2, 1, 1)"]] == 1
    assert e[idx["(1, 1, 1, 1)"]][idx["(1, 1, 1, 1)"]] == 1
    assert e[idx["(2, 2)"]][idx["(4,)"]] == 0


def test_z10_quiver_is_the_cycle():
    v = standard_module_cyclic(10)
    a = mckay_adjacency(v.group, v)
    for i in range(10):
        for j in range(10):
            assert a.entries[i][j] == (1 if (i - j) % 10 in (1, 9) else 0)


def test_single_character_module_quiver():
    g = build_cyclic(2)
    v = circulant_module(2, [1])
    a = mckay_adjacency(g, v)
    assert a.entries == ((0, 1), (1, 0))


def test_row_dimension_identity():
    for name, g, v in builtin_modules():
        a = mckay_adjacency(g, v)
        dims = [info.dim for info in g.irreps]
        for nu in range(g.n_classes):
            total = sum(a.entries[nu][lam] * dims[lam] for lam in range(g.n_classes))
            assert total == dims[nu] * v.dim, (name, nu)


def test_walk_matrix_power_basics():
    v = standard_module_cyclic(10)
    a = mckay_adjacency(v.group, v)
    assert walk_count_matrix(a, 0, 3, 3) == 1
    assert walk_count_matrix(a, 0, 3, 4) == 0
    assert walk_count_matrix(a, 6, 0, 8) == 15
    assert walk_count_matrix(a, 12, 0, 0) == 948
    with pytest.raises(ValueError):
        walk_count_matrix(a, -1, 0, 0)
    with pytest.raises(ValueError):
        mat_pow(a.rows(), -1)
    with pytest.raises(ValueError):
        character_walk_counts(v.group, v, -1)


def test_matrix_equals_character_for_all_builtins():
    for name, g, v in builtin_modules():
        a = mckay_adjacency(g, v)
        for k in range(13):
            assert character_walk_counts(g, v, k) == mat_pow(a.rows(), k), (name, k)


def test_power_rows_are_rows_of_matrix_powers():
    digraph = [[0, 2, 1], [1, 0, 0], [0, 3, 1]]
    for frm in range(3):
        assert power_rows(digraph, frm, range(10)) == [mat_pow(digraph, k)[frm] for k in range(10)]
    assert power_rows(digraph, 1, range(1)) == [[0, 1, 0]]
    assert power_rows(digraph, 2, range(9, 0, -4)) == [mat_pow(digraph, k)[2] for k in (9, 5, 1)]
    assert power_rows(digraph, 0, range(5, 5)) == []
    for ks in (range(-1, 3), range(2, -2, -1)):
        with pytest.raises(ValueError, match="step count must be nonnegative"):
            power_rows(digraph, 0, ks)


def test_single_pair_character_sum_matches_batch():
    g, v, a = s4_setup()
    batch = character_walk_counts(g, v, 5)
    for frm in range(5):
        for to in range(5):
            assert walk_count_character(g, v, 5, frm, to) == batch[frm][to]


def test_invariant_tier_walks():
    v = monomial_module(2, 2)
    assert [walk_count_character(v.group, v, k, 0, 0) for k in range(7)] == [1, 0, 1, 0, 4, 0, 16]
    with pytest.raises(UnsupportedQueryError):
        walk_count_character(v.group, v, 2, 0, 1)
    with pytest.raises(UnsupportedQueryError):
        mckay_adjacency(v.group, v)
    with pytest.raises(UnsupportedQueryError):
        bratteli(v.group, v, 3)


def test_centralizer_dim():
    v = standard_module_cyclic(10)
    assert centralizer_dim(v.group, v, 6) == 948
    s4 = permutation_module(4)
    assert centralizer_dim(s4.group, s4, 2) == 15
    coord = coordinate_module([4, 2])
    with pytest.raises(UnsupportedQueryError):
        centralizer_dim(coord.group, coord, 2)


def test_symmetry_for_self_dual_modules():
    for mod in (standard_module_cyclic(6), permutation_module(4), permutation_module(5)):
        a = mckay_adjacency(mod.group, mod)
        assert mod.self_dual
        assert a.entries == tuple(tuple(r) for r in zip(*a.entries))


def test_bratteli_z4xz2():
    mod = coordinate_module([4, 2])
    bd = bratteli(mod.group, mod, 6)
    labels = [i.label for i in mod.group.irreps]
    assert {labels[i]: m for i, m in bd.levels[6]} == {
        "(2, 0)": 16, "(1, 1)": 12, "(0, 0)": 16, "(3, 1)": 20}
    assert bd.algebra_dims == (1, 2, 6, 20, 72, 272, 1056)


def test_bratteli_recurrence_equals_matrix_powers():
    for mod in (permutation_module(4), coordinate_module([4, 2]), standard_module_cyclic(5)):
        g = mod.group
        a = mckay_adjacency(g, mod)
        bd = bratteli(g, mod, 8)
        for k in range(9):
            row = mat_pow(a.rows(), k)[0]
            assert dict(bd.levels[k]) == {i: m for i, m in enumerate(row) if m}
        for level, edges in zip(bd.levels, bd.edges):
            assert edges == tuple((nu, lam, x) for nu, _ in level
                                  for lam, x in enumerate(a.entries[nu]) if x)
        assert len(bd.edges) == 8


def test_bratteli_z10_appendix_values():
    # levels of the depth-6 branching diagram for the 10-cycle: node
    # subscripts are the binomial walk counts, the right column their
    # squared sums
    from tensorwalks.closedforms import cyclic_walks

    mod = standard_module_cyclic(10)
    bd = bratteli(mod.group, mod, 6)
    for k in range(7):
        expected = {c: cyclic_walks(10, k, 0, c) for c in range(10)}
        expected = {c: m for c, m in expected.items() if m}
        assert dict(bd.levels[k]) == expected, k
    assert bd.algebra_dims == (1, 2, 6, 20, 70, 254, 948)


def test_bratteli_level_zero():
    mod = permutation_module(3)
    bd = bratteli(mod.group, mod, 0)
    assert bd.levels == (((0, 1),),)
    assert bd.algebra_dims == (1,)


def test_eigen_check():
    for mod in (permutation_module(4), standard_module_cyclic(5), coordinate_module([4, 2])):
        a = mckay_adjacency(mod.group, mod)
        ok, failure = eigen_check(mod.group, mod, a)
        assert ok and failure is None
    # a corrupted adjacency must be caught and located
    mod = standard_module_cyclic(5)
    a = mckay_adjacency(mod.group, mod)
    rows = a.rows()
    rows[0][0] += 1
    bad = WalkMatrix(5, tuple(tuple(r) for r in rows))
    ok, failure = eigen_check(mod.group, mod, bad)
    assert not ok and failure == (0, 0)
    # moving an edge keeps every row sum, so class 0 passes and the first
    # failing class is located by its irrational characters
    rows = a.rows()
    target = rows[2].index(1)
    rows[2][target] -= 1
    rows[2][(target + 2) % 5] += 1
    bad = WalkMatrix(5, tuple(tuple(r) for r in rows))
    assert eigen_check(mod.group, mod, bad) == (False, (2, 1))


def test_walkmatrix_validation():
    with pytest.raises(ConsistencyError):
        WalkMatrix(2, ((0, -1), (1, 0)))
    with pytest.raises(ValueError):
        WalkMatrix(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        WalkMatrix(dim=2, entries=((0, 1), (1,)))
    a = WalkMatrix(2, ((0, 1), (1, 0)))
    assert a == WalkMatrix(dim=2, entries=((0, 1), (1, 0))) != WalkMatrix(2, ((1, 0), (0, 1)))
    with pytest.raises(AttributeError):
        a.dim = 3


def corrupted_row(g, irrep, cls, change):
    """A row function for `g` with the value at (irrep, cls) changed."""
    def row(i):
        values = list(g.row(i))
        if i == irrep:
            values[cls] = change(values[cls])
        return tuple(values)
    return row


def test_bad_table_is_a_loud_diagnostic():
    # corrupting one character value must make the integrality assertion fail
    # rather than silently rounding
    from tensorwalks.groups import GroupData, ModuleChar

    g = build_cyclic(3)
    bad = GroupData(g.name, g.order, g.tier, g.classes, g.conductor,
                    g.irreps, corrupted_row(g, 1, 1, lambda x: x + 1))
    v = standard_module_cyclic(3)
    bad_v = ModuleChar(bad, v.values)
    with pytest.raises(ConsistencyError):
        mckay_adjacency(bad, bad_v)
    with pytest.raises(ConsistencyError):
        walk_count_character(bad, bad_v, 3, 1, 2)


def test_serialization_and_dot():
    g, v, a = s4_setup()
    doc = json.loads(a.to_json([i.label for i in g.irreps]))
    assert doc["dim"] == 5
    assert doc["entries"][0][1] == "1"
    dot = quiver_dot(g, a)
    assert dot.startswith("digraph") and "dir=none" in dot
    bd = bratteli(g, v, 3)
    doc = json.loads(bd.to_json())
    # sum of squared multiplicities per level; level 3 checks against
    # (A^6)_{0,0} = (4^6 + 6*2^6 + 8)/24 = 187 since the quiver is symmetric
    assert doc["algebra_dims"] == ["1", "2", "15", "187"]
    assert bratteli_dot(bd).startswith("graph")


def test_paley_directed_quiver():
    from tensorwalks.groups import paley_module

    mod = paley_module(7)  # 3 mod 4: directed
    a = mckay_adjacency(mod.group, mod)
    assert a.entries != tuple(tuple(r) for r in zip(*a.entries))
    assert not mod.self_dual
    dot = quiver_dot(mod.group, a)
    assert "dir=none" not in dot


def literal_sums(mod, k):
    n = mod.group.n_classes
    return [[walk_count_character(mod.group, mod, k, nu, lam) for lam in range(n)]
            for nu in range(n)]


def test_packed_adjacency_equals_literal_character_sums():
    mods = [mod for _, mod in builtin_fulltable_pairs()]
    mods += [parse_spec_full(s).module for s in ("S6", "Z12", "paley(13)", "hypercube(4)")]
    for mod in mods:
        a = mckay_adjacency(mod.group, mod)
        assert [list(r) for r in a.entries] == literal_sums(mod, 1), mod.group.name


def test_packed_walk_counts_with_wide_digits():
    # k = 40 makes the sums, and so the ring map's modulus, far wider than
    # the adjacency build's
    for spec in ("Z12", "paley(13)"):
        mod = parse_spec_full(spec).module
        for k in (0, 1, 7, 40):
            assert character_walk_counts(mod.group, mod, k) == literal_sums(mod, k), (spec, k)


def test_fraction_coefficient_is_bad_table_data():
    from fractions import Fraction

    from tensorwalks.cyclotomic import CycNum
    from tensorwalks.groups import GroupData, ModuleChar

    g = build_cyclic(3)
    half = CycNum.from_rational(Fraction(1, 2))
    bad = GroupData(g.name, g.order, g.tier, g.classes, g.conductor,
                    g.irreps, corrupted_row(g, 2, 1, lambda x: x * half))
    v = standard_module_cyclic(3)
    with pytest.raises(ConsistencyError, match=r"\(2,1\)"):
        mckay_adjacency(bad, ModuleChar(bad, v.values))


def test_weights_scaled_by_huge_factors_lift_exactly():
    # a bound from dim V would be exceeded 10^40 times over; the L1 norms of
    # the weights themselves bound the sums
    from tensorwalks.quiver import _weighted_sum_matrix

    scale = 10**40
    for spec in ("S5", "Z12", "paley(13)", "Z4xZ2"):
        v = parse_spec_full(spec).module
        g = v.group
        weights = [c.size * x * scale for c, x in zip(g.classes, v.values)]
        want = [[e * scale for e in row] for row in mckay_adjacency(g, v).entries]
        assert _weighted_sum_matrix(g, weights) == want, spec


def test_galois_incomplete_table_is_a_consistency_failure():
    # Z5 with chi_V(1) = zeta + 1 in place of zeta + zeta^4: every value is
    # an algebraic integer, but zeta -> zeta^2 moves zeta + 1 off the table
    from tensorwalks.cyclotomic import CycNum
    from tensorwalks.groups import ModuleChar
    from tensorwalks.series import det_factorization_check, poincare_character

    sound = standard_module_cyclic(5)
    g = sound.group
    v = ModuleChar(g, (sound.values[0], CycNum(5, [1, 1, 0, 0]), *sound.values[2:]))
    for call in (lambda: mckay_adjacency(g, v),
                 lambda: character_walk_counts(g, v, 3),
                 lambda: walk_count_character(g, v, 3, 0, 2),
                 lambda: poincare_character(g, v, 0),
                 lambda: det_factorization_check(g, v, mckay_adjacency(g, sound))):
        with pytest.raises(ConsistencyError, match="Galois-incomplete"):
            call()
