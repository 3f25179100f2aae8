import json

import pytest

from tensorwalks.combinatorics import partitions_of
from tensorwalks.errors import ConsistencyError, UnsupportedQueryError
from tensorwalks.groups import build_cyclic, circulant_module, parse_spec_full
from tensorwalks.cli import bratteli_dot, main, quiver_dot
from tensorwalks.quiver import (
    bratteli,
    centralizer_dim,
    character_walk_counts,
    eigen_check,
    mat_pow,
    mckay_adjacency,
    power_rows,
    walk_count_character,
)
from tensorwalks.verify import builtin_specs


def group_and_module(text):
    spec = parse_spec_full(text)
    return spec.group, spec.module


def s4_setup():
    g, v = group_and_module("S4")
    return g, v, mckay_adjacency(g, v)


def test_s4_quiver_edges():
    g, v, a = s4_setup()
    idx = {info.label: i for i, info in enumerate(g.irreps)}
    e = a
    assert e[idx["(4,)"]][idx["(3, 1)"]] == 1
    assert e[idx["(3, 1)"]][idx["(3, 1)"]] == 2  # loop of multiplicity two
    assert e[idx["(3, 1)"]][idx["(2, 2)"]] == 1
    assert e[idx["(2, 2)"]][idx["(2, 1, 1)"]] == 1
    assert e[idx["(1, 1, 1, 1)"]][idx["(1, 1, 1, 1)"]] == 1
    assert e[idx["(2, 2)"]][idx["(4,)"]] == 0


def remove_and_add(n):
    """The branching rule's matrix on the partitions of n, in `partitions_of`
    order: a[nu][lam] counts the ways to remove one box from nu and add one
    box to reach lam, so the diagonal counts nu's removable corners."""
    parts = partitions_of(n)
    index = {lam: i for i, lam in enumerate(parts)}
    a = [[0] * len(parts) for _ in parts]
    for i, nu in enumerate(parts):
        for r in range(len(nu)):
            if r + 1 < len(nu) and nu[r] == nu[r + 1]:
                continue  # no removable box in row r
            mu = [*nu[:r], nu[r] - 1, *nu[r + 1:], 0]
            for s in range(len(mu)):
                if s == 0 or mu[s - 1] > mu[s]:  # a box fits at the end of row s
                    lam = tuple(x + (j == s) for j, x in enumerate(mu))
                    a[i][index[tuple(x for x in lam if x)]] += 1
    return a


def test_symmetric_quiver_is_the_remove_and_add_rule():
    for n in range(2, 11):
        assert mckay_adjacency(*group_and_module(f"S{n}")) == remove_and_add(n), n


def test_z10_quiver_is_the_cycle():
    a = mckay_adjacency(*group_and_module("Z10"))
    for i in range(10):
        for j in range(10):
            assert a[i][j] == (1 if (i - j) % 10 in (1, 9) else 0)


def test_single_character_module_quiver():
    g = build_cyclic(2)
    v = circulant_module(2, [1])
    a = mckay_adjacency(g, v)
    assert a == [[0, 1], [1, 0]]


def test_row_dimension_identity():
    for name, spec in builtin_specs():
        g, v = spec.group, spec.module
        a = mckay_adjacency(g, v)
        dims = [g.chi(i, 0).as_integer() for i in range(g.n_classes)]
        for nu in range(g.n_classes):
            total = sum(a[nu][lam] * dims[lam] for lam in range(g.n_classes))
            assert total == dims[nu] * v[0].as_integer(), (name, nu)


def test_walk_matrix_power_basics():
    g, v = group_and_module("Z10")
    a = mckay_adjacency(g, v)
    assert power_rows(a, 3, range(1))[0][3] == 1
    assert power_rows(a, 3, range(1))[0][4] == 0
    assert power_rows(a, 0, range(6, 7))[0][8] == 15
    assert power_rows(a, 0, range(12, 13))[0][0] == 948
    with pytest.raises(ValueError):
        power_rows(a, 0, range(-1, 0))
    with pytest.raises(ValueError):
        mat_pow(a, -1)
    with pytest.raises(ValueError):
        character_walk_counts(g, v, -1)


def test_matrix_equals_character_for_all_builtins():
    for name, spec in builtin_specs():
        g, v = spec.group, spec.module
        a = mckay_adjacency(g, v)
        for k in range(13):
            assert character_walk_counts(g, v, k) == mat_pow(a, k), (name, k)


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
    g, v = group_and_module("Z2wrS2")
    assert [walk_count_character(g, v, k, 0, 0) for k in range(7)] == [1, 0, 1, 0, 4, 0, 16]
    with pytest.raises(UnsupportedQueryError):
        walk_count_character(g, v, 2, 0, 1)
    with pytest.raises(UnsupportedQueryError):
        mckay_adjacency(g, v)
    with pytest.raises(UnsupportedQueryError):
        bratteli(g, v, 3)


def test_centralizer_dim():
    assert centralizer_dim(*group_and_module("Z10"), 6) == 948
    s4 = group_and_module("S4")
    assert centralizer_dim(*s4, 2) == 15
    coord = group_and_module("Z4xZ2")  # not self-dual: the class sum applies all the same
    assert [centralizer_dim(*coord, k) for k in range(7)] == [
        1, 2, 6, 20, 72, 272, 1056]
    with pytest.raises(ValueError):
        centralizer_dim(*s4, -1)


def test_centralizer_dim_is_the_sum_of_squared_multiplicities():
    paley7 = group_and_module("paley(7)")
    assert [centralizer_dim(*paley7, k) for k in range(7)] == [
        1, 3, 15, 111, 951, 8463, 75975]
    # the built-in modules include Z4xZ2, Z3xZ3 and paley(7), none of them self-dual
    circulant = parse_spec_full("circulant(10;1,3)")
    for spec in [circulant, *(spec for _, spec in builtin_specs())]:
        g, v = spec.group, spec.module
        dims = [centralizer_dim(g, v, k) for k in range(7)]
        assert dims == list(bratteli(g, v, 6).algebra_dims), g.name


def test_centralizer_dim_of_a_self_dual_module_counts_closed_2k_walks():
    # invariant-tier groups too: the class sum reads only node 0, the trivial row
    for text in ("Z2wrS3", "GL2(5)", "SL2(7)@steinberg"):
        spec = parse_spec_full(text)
        g, v = spec.group, spec.module
        for k in range(7):
            assert centralizer_dim(g, v, k) == walk_count_character(g, v, 2 * k, 0, 0), (text, k)


def test_symmetry_for_self_dual_modules():
    for text in ("Z6", "S4", "S5"):
        g, v = group_and_module(text)
        a = mckay_adjacency(g, v)
        assert all(x == x.conj() for x in v)
        assert a == [list(r) for r in zip(*a)]


def test_bratteli_z4xz2():
    g, v = group_and_module("Z4xZ2")
    bd = bratteli(g, v, 6)
    labels = [i.label for i in g.irreps]
    assert {labels[i]: m for i, m in bd.levels[6]} == {
        "(2, 0)": 16, "(1, 1)": 12, "(0, 0)": 16, "(3, 1)": 20}
    assert bd.algebra_dims == (1, 2, 6, 20, 72, 272, 1056)


def test_bratteli_recurrence_equals_matrix_powers():
    for text in ("S4", "Z4xZ2", "Z5"):
        g, v = group_and_module(text)
        a = mckay_adjacency(g, v)
        bd = bratteli(g, v, 8)
        for k in range(9):
            row = mat_pow(a, k)[0]
            assert dict(bd.levels[k]) == {i: m for i, m in enumerate(row) if m}
        for level, edges in zip(bd.levels, bd.edges):
            assert edges == tuple((nu, lam, x) for nu, _ in level
                                  for lam, x in enumerate(a[nu]) if x)
        assert len(bd.edges) == 8


def test_bratteli_z10_appendix_values():
    # levels of the depth-6 branching diagram for the 10-cycle: node
    # subscripts are the binomial walk counts, the right column their
    # squared sums
    from tensorwalks.closedforms import cyclic_walks

    bd = bratteli(*group_and_module("Z10"), 6)
    for k in range(7):
        expected = {c: m for c, (m,) in enumerate(cyclic_walks(10, range(k, k + 1), 0, range(10)))}
        expected = {c: m for c, m in expected.items() if m}
        assert dict(bd.levels[k]) == expected, k
    assert bd.algebra_dims == (1, 2, 6, 20, 70, 254, 948)


def test_bratteli_level_zero():
    bd = bratteli(*group_and_module("S3"), 0)
    assert bd.levels == (((0, 1),),)
    assert bd.algebra_dims == (1,)


def test_eigen_check():
    for text in ("S4", "Z5", "Z4xZ2"):
        g, v = group_and_module(text)
        ok, failure = eigen_check(g, v, mckay_adjacency(g, v))
        assert ok and failure is None
    # a corrupted adjacency must be caught and located
    g, v = group_and_module("Z5")
    a = mckay_adjacency(g, v)
    bad = [list(r) for r in a]
    bad[0][0] += 1
    ok, failure = eigen_check(g, v, bad)
    assert not ok and failure == (0, 0)
    # moving an edge keeps every row sum, so class 0 passes and the first
    # failing class is located by its irrational characters
    bad = [list(r) for r in a]
    target = bad[2].index(1)
    bad[2][target] -= 1
    bad[2][(target + 2) % 5] += 1
    assert eigen_check(g, v, bad) == (False, (2, 1))


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
    from tensorwalks.groups import GroupData

    g, v = group_and_module("Z3")
    bad = GroupData(g.name, g.order, g.classes, g.conductor,
                    g.irreps, corrupted_row(g, 1, 1, lambda x: x + 1))
    with pytest.raises(ConsistencyError):
        mckay_adjacency(bad, v)
    with pytest.raises(ConsistencyError):
        walk_count_character(bad, v, 3, 1, 2)


def test_serialization_and_dot(capsys):
    g, v, a = s4_setup()
    labels = [i.label for i in g.irreps]
    assert main(["quiver", "--group", "S4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 5
    assert doc["entries"][0][1] == "1"
    dot = quiver_dot(labels, a)
    assert dot.startswith("digraph") and "dir=none" in dot
    bd = bratteli(g, v, 3)
    assert main(["bratteli", "--group", "S4", "--levels", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # sum of squared multiplicities per level; level 3 checks against
    # (A^6)_{0,0} = (4^6 + 6*2^6 + 8)/24 = 187 since the quiver is symmetric
    assert doc["algebra_dims"] == ["1", "2", "15", "187"]
    assert bratteli_dot(labels, bd).startswith("graph")


def test_paley_directed_quiver():
    g, v = group_and_module("paley(7)")  # 3 mod 4: directed
    a = mckay_adjacency(g, v)
    assert a != [list(r) for r in zip(*a)]
    assert any(x != x.conj() for x in v)
    dot = quiver_dot([i.label for i in g.irreps], a)
    assert "dir=none" not in dot


def literal_sums(g, v, k):
    """(1/|G|) sum_c |c| chi_V(c)^k chi_nu(c) conj(chi_lam(c)) for every
    (nu, lam), in plain cyclotomic arithmetic."""
    from tensorwalks.cyclotomic import CycNum

    n = g.n_classes
    weights = [c.size * x**k for c, x in zip(g.classes, v)]
    conj = [[x.conj() for x in g.row(lam)] for lam in range(n)]
    out = []
    for nu in range(n):
        scaled = [w * x for w, x in zip(weights, g.row(nu))]
        row = []
        for lam in range(n):
            total = sum(map(CycNum.__mul__, scaled, conj[lam]), CycNum(1, ())).as_integer()
            assert total % g.order == 0, (nu, lam)
            row.append(total // g.order)
        out.append(row)
    return out


def test_packed_adjacency_equals_literal_character_sums():
    specs = [spec for _, spec in builtin_specs()]
    specs += [parse_spec_full(s) for s in ("S6", "Z12", "paley(13)", "hypercube(4)")]
    for spec in specs:
        g, v = spec.group, spec.module
        assert mckay_adjacency(g, v) == literal_sums(g, v, 1), g.name


def test_packed_walk_counts_with_wide_digits():
    # k = 40 makes the sums, and so the ring map's modulus, far wider than
    # the adjacency build's
    for spec in ("Z12", "paley(13)"):
        g, v = group_and_module(spec)
        for k in (0, 1, 7, 40):
            assert character_walk_counts(g, v, k) == literal_sums(g, v, k), (spec, k)


def test_fraction_coefficient_is_bad_table_data():
    # a value with a Fraction coefficient cannot be built, so a row that
    # tries fails where it is read, before the kernel sees it
    from fractions import Fraction

    from tensorwalks.cyclotomic import CycNum
    from tensorwalks.groups import GroupData

    g, v = group_and_module("Z3")
    bad = GroupData(g.name, g.order, g.classes, g.conductor, g.irreps,
                    corrupted_row(g, 2, 1, lambda x: CycNum(x.conductor, map(Fraction, x.coeffs))))
    with pytest.raises(TypeError, match="must be ints"):
        mckay_adjacency(bad, v)


def test_weights_scaled_by_huge_factors_lift_exactly():
    # a bound from dim V would be exceeded 10^40 times over; the L1 norms of
    # the weights themselves bound the sums
    from tensorwalks.cyclotomic import class_sums

    scale = 10**40
    for spec in ("S5", "Z12", "paley(13)", "Z4xZ2"):
        g, v = group_and_module(spec)
        nodes = range(g.n_classes)
        columns = zip(*(g.row(nu) for nu in nodes), v)
        weights = [c.size * scale for c in g.classes]
        want = [[e * g.order * scale for e in row] for row in mckay_adjacency(g, v)]
        assert class_sums(columns, weights, range(1, 2), nodes, nodes) == [want], spec


def test_galois_incomplete_table_is_a_consistency_failure():
    # Z5 with chi_V(1) = zeta + 1 in place of zeta + zeta^4: every value is
    # an algebraic integer, but zeta -> zeta^2 moves zeta + 1 off the table
    from tensorwalks.cyclotomic import CycNum
    from tensorwalks.series import det_factorization_check, poincare_character

    g, sound = group_and_module("Z5")
    v = (sound[0], CycNum(5, [1, 1, 0, 0]), *sound[2:])
    for call in (lambda: mckay_adjacency(g, v),
                 lambda: character_walk_counts(g, v, 3),
                 lambda: walk_count_character(g, v, 3, 0, 2),
                 lambda: poincare_character(g, v, 0),
                 lambda: det_factorization_check(v, mckay_adjacency(g, sound))):
        with pytest.raises(ConsistencyError, match="Galois-incomplete"):
            call()
