"""McKay quivers: exact adjacency matrices, walk counts by matrix power and
by character sums, centralizer-algebra dimensions, and Bratteli diagrams."""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import mul

from .cyclotomic import CertifiedSums, CycNum, lift, weighted_power_sums
from .errors import ConsistencyError, UnsupportedQueryError, exact_count
from .groups import FULL, GroupData, ModuleChar
from .numbertheory import euler_phi


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


def _require_full(g: GroupData, what: str):
    if g.tier != FULL:
        raise UnsupportedQueryError(
            f"{what} needs a full character table; group {g.name} carries "
            "invariant-only data (only the 0 -> 0 walk count is available)")


def _weighted_sum_matrix(g: GroupData, weights: list) -> list[list[int]]:
    """Matrix with (nu, lam) entry (1/|G|) sum_mu weights[mu] * chi_nu(mu) *
    conj(chi_lam(mu)), checked to be nonnegative integers.

    The class columns (chi_0(mu), ..., chi_{n-1}(mu), weights[mu]) are
    certified by CertifiedSums, so every entry is a rational integer; its
    ring map turns each entry's sum over classes into n products of plain
    integers mod M, and the bound sum_mu |w_mu|_1 max_nu |chi_nu(mu)|_1^2
    from L1 norms makes the lift exact."""
    n = g.n_classes
    table = CertifiedSums(zip(*(g.row(nu) for nu in range(n)), weights))
    l1, cols = table.l1, table.columns
    bound = sum(l1[c[n]] * max(l1[j] for j in c[:n]) ** 2 for c in cols)
    m, images, conj_images = table.ring_map(bound)
    scaled = [[images[c[nu]] * images[c[n]] % m for c in cols] for nu in range(n)]
    conj = [[conj_images[c[lam]] for c in cols] for lam in range(n)]
    out = []
    for nu, srow in enumerate(scaled):
        row = []
        for lam, crow in enumerate(conj):
            value = lift(sum(map(mul, srow, crow)), m)
            if value < 0 or value % g.order:
                raise ConsistencyError(
                    f"character sum gave {value}/{g.order} at ({nu},{lam}); "
                    "bad table data")
            row.append(value // g.order)
        out.append(row)
    return out


def mckay_adjacency(g: GroupData, v: ModuleChar) -> list[list[int]]:
    """Adjacency rows: a[nu][lam] = multiplicity of irrep lam in (irrep nu)
    tensor V."""
    _require_full(g, "mckay_adjacency")
    weights = [g.classes[mu].size * v.values[mu] for mu in range(g.n_classes)]
    return _weighted_sum_matrix(g, weights)


def character_walk_counts(g: GroupData, v: ModuleChar, k: int) -> list[list[int]]:
    """All (from, to) k-step walk counts at once, by character sums."""
    _require_full(g, "character_walk_counts")
    if k < 0:
        raise ValueError("step count must be nonnegative")
    weights = [g.classes[mu].size * v.values[mu] ** k for mu in range(g.n_classes)]
    return _weighted_sum_matrix(g, weights)


def spectral_form(g: GroupData, v: ModuleChar, frm: int, to: int) -> list[tuple[CycNum, CycNum | int]]:
    """The distinct values x of chi_V, each with its summed weight
    w_x = sum over the classes c with chi_V(c) = x of |c| chi_frm(c) conj(chi_to(c)).

    Walk counts are (1/|G|) sum_x w_x x^k and the Poincare series is
    (1/|G|) sum_x w_x / (1 - x t).  Values are grouped by their coefficients
    in Q(zeta_conductor), where every module value lives.  Invariant-tier
    groups support only frm = to = 0, where both characters are 1."""
    full = g.tier == FULL
    if not full and (frm != 0 or to != 0):
        raise UnsupportedQueryError(
            f"group {g.name} carries invariant-only data; only the "
            "trivial-to-trivial walk count and Poincare series are defined")
    form: dict[tuple, list] = {}
    for mu, cls in enumerate(g.classes):
        x = v.values[mu]
        w = cls.size * g.chi(frm, mu) * g.chi(to, mu).conj() if full else cls.size
        form.setdefault(x.embed(g.conductor).coeffs, [x, 0])[1] += w
    return [(x, w) for x, w in form.values()]


def walk_counts_character(g: GroupData, v: ModuleChar, ks: range, frm: int, to: int) -> list[int]:
    """Walk counts from irrep `frm` to irrep `to` for every k in `ks`: the
    spectral form's sums (1/|G|) sum_x w_x x^k, evaluated by
    `weighted_power_sums`."""
    if min(ks, default=0) < 0:
        raise ValueError("step count must be nonnegative")
    return [exact_count(total, g.order, "walk count")
            for total in weighted_power_sums(spectral_form(g, v, frm, to), ks)]


def walk_count_character(g: GroupData, v: ModuleChar, k: int, frm: int, to: int) -> int:
    """k-step walk count from irrep `frm` to irrep `to` by the character sum."""
    return walk_counts_character(g, v, range(k, k + 1), frm, to)[0]


def centralizer_dim(g: GroupData, v: ModuleChar, k: int) -> int:
    """Dimension of the centralizer algebra of the k-th tensor power; needs a
    self-dual module (otherwise the 2k-walk identity does not apply)."""
    if not v.self_dual:
        raise UnsupportedQueryError(
            "centralizer_dim requires a self-dual module character; "
            f"module {v.name} over {g.name} is not self-conjugate")
    return walk_count_character(g, v, 2 * k, 0, 0)


# Levels 0..K of the branching diagram: per level the (irrep index,
# multiplicity) pairs with nonzero multiplicity, the connecting edge
# multiplicities as (from irrep, to irrep, count), and the per-level
# centralizer dimension.
BratteliDiagram = namedtuple("BratteliDiagram", "levels edges algebra_dims")


def bratteli(g: GroupData, v: ModuleChar, levels: int) -> BratteliDiagram:
    """Build the diagram from the level recurrence m_k = m_{k-1} * A: level k
    is row 0 of A^k, and each level's edges are the nonzero a[nu][lam] out of
    its nodes nu."""
    _require_full(g, "bratteli")
    if levels < 0:
        raise ValueError("level count must be nonnegative")
    a = mckay_adjacency(g, v)
    rows = power_rows(a, 0, range(levels + 1))
    out_levels = tuple(tuple((i, m) for i, m in enumerate(row) if m) for row in rows)
    edges = tuple(tuple((nu, lam, x) for nu, _ in level for lam, x in enumerate(a[nu]) if x)
                  for level in out_levels[:-1])
    return BratteliDiagram(out_levels, edges, tuple(sum(m * m for m in row) for row in rows))


def eigen_check(g: GroupData, v: ModuleChar, a):
    """Verify sum_lam a[nu][lam] chi_lam(c_mu) = chi_V(c_mu) chi_nu(c_mu) for
    all nu, mu in exact arithmetic.  Returns (ok, first failing (nu, mu)).
    The left side's terms are added unreduced in the power basis of the
    column's field, then reduced once."""
    _require_full(g, "eigen_check")
    n = g.n_classes
    columns = []
    for mu in range(n):
        col = [g.chi(lam, mu) for lam in range(n)]
        m = lcm(*(x.conductor for x in col))
        columns.append((m, col, [x.embed(m).coeffs for x in col]))
    for nu in range(n):
        row = a[nu]
        for mu, (m, col, coeffs) in enumerate(columns):
            raw = [0] * euler_phi(m)
            for e, xs in zip(row, coeffs):
                if e:
                    for i, x in enumerate(xs):
                        raw[i] += e * x
            if CycNum(m, raw) != v.values[mu] * col[nu]:
                return False, (nu, mu)
    return True, None
