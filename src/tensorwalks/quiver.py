"""McKay quivers: exact adjacency matrices, walk counts by matrix power and
by character sums, centralizer-algebra dimensions, and Bratteli diagrams."""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .cyclotomic import CycNum, class_sums, sum_of_products
from .errors import exact_count
from .groups import GroupData


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        row = out[i]
        for k in range(m):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(p):
                    row[j] += c * bk[j]
    return out


def mat_pow(a, k: int):
    """A^k by repeated squaring.  No CLI verb calls it; they read rows through
    `power_rows`.  It and `mat_mul` stay as the independent reference, a
    different algorithm, for the tests and verify's random-digraph check, and
    the benchmark tracer wraps it by name."""
    if k < 0:
        raise ValueError("step count must be nonnegative")
    n = len(a)
    result = identity_matrix(n)
    base = [list(r) for r in a]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def power_rows(a, frm: int, ks: range) -> list[list[int]]:
    """Row `frm` of A^k for each k in the range `ks`, in its order and with
    its stride: one vector-matrix product per step up to the largest k, over
    the nonzero entries of the row and of each row of A, keeping only the
    rows whose k is in `ks`."""
    if min(ks, default=0) < 0:
        raise ValueError("step count must be nonnegative")
    n = len(a)
    nonzero = [[(j, x) for j, x in enumerate(r) if x] for r in a]
    row = [0] * n
    row[frm] = 1
    kept = {}
    for k in range(max(ks, default=-1) + 1):
        if k:
            nxt = [0] * n
            for i, x in enumerate(row):
                if x:
                    for j, y in nonzero[i]:
                        nxt[j] += x if y == 1 else x * y  # no big-int product on simple edges
            row = nxt
        if k in ks:
            kept[k] = row
    return [kept[k] for k in ks]


def _character_sums(g: GroupData, v: tuple[CycNum, ...], ks: range,
                    left, right) -> list[list[list[int]]]:
    """For each k in `ks`, the matrix over nu in `left` and lam in `right` of
    (1/|G|) sum_c |c| chi_V(c)^k chi_nu(c) conj(chi_lam(c)), each entry
    checked to be a count.

    The kernel `class_sums` reads one column (chi_nu(c) for the irreps asked
    for, in index order, then chi_V(c)) per class, weighted by the class
    size.  On an invariant-tier group only node 0 has a row, so any other
    node raises UnsupportedQueryError there."""
    if min(ks, default=0) < 0:
        raise ValueError("step count must be nonnegative")
    nodes = sorted({*left, *right})
    rows = [g.row(nu) for nu in nodes]
    at = {nu: i for i, nu in enumerate(nodes)}
    sums = class_sums(zip(*rows, v), g.class_sizes(), ks,
                      [at[nu] for nu in left], [at[lam] for lam in right])
    return [[[exact_count(s, g.order, "character sum") for s in row] for row in matrix]
            for matrix in sums]


def mckay_adjacency(g: GroupData, v: tuple[CycNum, ...]) -> list[list[int]]:
    """Adjacency rows: a[nu][lam] = multiplicity of irrep lam in (irrep nu)
    tensor V, the character sum at k = 1."""
    nodes = range(g.n_classes)
    return _character_sums(g, v, range(1, 2), nodes, nodes)[0]


def character_walk_counts(g: GroupData, v: tuple[CycNum, ...], k: int) -> list[list[int]]:
    """All (from, to) k-step walk counts at once, by character sums."""
    nodes = range(g.n_classes)
    return _character_sums(g, v, range(k, k + 1), nodes, nodes)[0]


def walk_counts_character(g: GroupData, v: tuple[CycNum, ...], ks: range,
                          frm: int, targets) -> list[list[int]]:
    """Walk counts from irrep `frm` to each irrep of `targets`, over every k
    in `ks`, by one character sum, with chi_V(c)^k carried from k to k."""
    sums = _character_sums(g, v, ks, [frm], targets)
    return [[matrix[0][j] for matrix in sums] for j in range(len(targets))]


def walk_count_character(g: GroupData, v: tuple[CycNum, ...], k: int, frm: int, to: int) -> int:
    """k-step walk count from irrep `frm` to irrep `to` by the character sum."""
    return _character_sums(g, v, range(k, k + 1), [frm], [to])[0][0][0]


def centralizer_dim(g: GroupData, v: tuple[CycNum, ...], k: int) -> int:
    """Dimension of the centralizer algebra of the k-th tensor power, the sum
    of the squared multiplicities, (1/|G|) sum_c |c| |chi_V(c)|^(2k), for any
    module: the closed k-step walks at the trivial irrep, node 0, for the
    module V tensor V*, whose character is chi_V conj(chi_V)."""
    return walk_count_character(g, tuple(x * x.conj() for x in v), k, 0, 0)


# Levels 0..K of the branching diagram: per level the (irrep index,
# multiplicity) pairs with nonzero multiplicity, the connecting edge
# multiplicities as (from irrep, to irrep, count), and the per-level
# centralizer dimension.
BratteliDiagram = namedtuple("BratteliDiagram", "levels edges algebra_dims")


def bratteli(g: GroupData, v: tuple[CycNum, ...], levels: int) -> BratteliDiagram:
    """Build the diagram from the level recurrence m_k = m_{k-1} * A: level k
    is row 0 of A^k, and each level's edges are the nonzero a[nu][lam] out of
    its nodes nu.  The matrix comes first, so a group without one is
    refused before the level count is read."""
    a = mckay_adjacency(g, v)
    if levels < 0:
        raise ValueError("level count must be nonnegative")
    rows = power_rows(a, 0, range(levels + 1))
    out_levels = tuple(tuple((i, m) for i, m in enumerate(row) if m) for row in rows)
    edges = tuple(tuple((nu, lam, x) for nu, _ in level for lam, x in enumerate(a[nu]) if x)
                  for level in out_levels[:-1])
    return BratteliDiagram(out_levels, edges, tuple(sum(m * m for m in row) for row in rows))


def eigen_check(g: GroupData, v: tuple[CycNum, ...], a):
    """Verify sum_lam a[nu][lam] chi_lam(c_mu) = chi_V(c_mu) chi_nu(c_mu) for
    all nu, mu in exact arithmetic.  Returns (ok, first failing (nu, mu)).
    The left side is `sum_of_products` over the column's field, independent
    of `class_sums`."""
    n = g.n_classes
    columns = []
    for mu in range(n):
        col = [g.chi(lam, mu) for lam in range(n)]
        m = lcm(*(x.conductor for x in col))
        columns.append((m, col, [x.embed(m).terms for x in col]))
    for nu in range(n):
        row = [((0, e),) for e in a[nu]]
        for mu, (m, col, terms) in enumerate(columns):
            if CycNum(m, sum_of_products(row, terms, m)) != v[mu] * col[nu]:
                return False, (nu, mu)
    return True, None
