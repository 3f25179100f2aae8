"""Family-specific closed formulas for walk counts and invariant dimensions,
implemented independently of the generic matrix/character engines so each
route cross-checks the others.  The cyclic, group-ring, Paley and S_n forms
answer every target over all of `ks` in one call, one count list per target.

The Paley-walk evaluator follows the derivation (split the class sum by
residue type; the quadratic Gauss sum s enters only through s^2 = p*); the
printed case formulas contain three sign/exponent misprints, so those are
implemented separately as `paley_printed_form` to document the discrepancy.
The wreath-product invariant formula is implemented with the weights that
survive brute-force checking (the printed form fails for three or more
letters); see the README notes.
"""

from __future__ import annotations

from math import comb, factorial
from operator import mul

from .combinatorics import (
    even_block_partitions,
    group_ring_power,
    kostka_hook_content,
    rencontres,
    stirling2,
)
from .cyclotomic import CycNum, gauss_sum
from .errors import exact_count
from .groups import INDUCED, STEINBERG
from .numbertheory import is_prime, legendre_symbol, quadratic_residues
from .polynomials import Polynomial
from .quiver import power_rows
from .series import EgfTruncation, RatFunc, egf_from_ints, egf_hyperbolic, egf_product


# ---------------------------------------------------------------------------
# Cyclic groups and group-ring walks
# ---------------------------------------------------------------------------


def cyclic_walks(r: int, ks: range, a: int, targets) -> list[list[int]]:
    """Walks of k steps from a to each c in `targets`, for each k in `ks`, on the
    circular graph with r nodes: sum of C(k, l) over l with k - 2l = c - a
    (mod r), one pass over l per k for every end node."""
    if r < 2:
        raise ValueError("need at least two nodes")
    if not all(0 <= x < r for x in (a, *targets)):
        raise ValueError("node out of range")
    rows = []
    for k in ks:
        row, binom = [0] * r, 1  # binom = C(k, l), carried from l to l + 1
        for l in range(k + 1):
            row[(a + k - 2 * l) % r] += binom
            binom = binom * (k - l) // (l + 1)
        rows.append([row[c] for c in targets])
    return [[row[i] for row in rows] for i in range(len(targets))]


def group_ring_walks(radii, steps, ks: range, targets) -> list[list[int]]:
    """Walks of k steps from 0 to each c in `targets`, for each k in `ks`, on the
    Cayley graph of Z_r1 x ... x Z_rn with the given steps: the coefficient of c
    in (sum of the steps)^k in the integer group ring, one power for all targets.
    Unit steps give products of cyclic groups and hypercubes; one factor gives
    circulant and Paley graphs.  A repeated step counts as often as it appears."""
    radii, targets, steps = tuple(radii), [tuple(c) for c in targets], [tuple(s) for s in steps]
    for x in (*targets, *steps):
        if len(x) != len(radii) or not all(0 <= xi < ri for xi, ri in zip(x, radii)):
            raise ValueError(f"{x} is not an element of {radii}")
    if not all(any(s) for s in steps):
        raise ValueError("a step is the zero element")
    powers = group_ring_power(radii, steps, ks)
    return [[power.get(c, 0) for power in powers] for c in targets]


# ---------------------------------------------------------------------------
# Paley (di)graphs via quadratic Gauss sums
# ---------------------------------------------------------------------------

def _check_paley_prime(p: int) -> None:
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("Paley parameter must be an odd prime")


def paley_closed_form(p: int, ks: range, targets) -> list[list[int]]:
    """Walk counts from 0 to each c in `targets` on the Paley (di)graph of the
    prime p, for every k in `ks`, from the split class sum: the module character
    is (p-1)/2 at 0, (s - 1)/2 on the residues and -(s + 1)/2 on the nonresidues,
    s the quadratic Gauss sum, so p 2^(k+1) times the count is 2 (p-1)^k + a_k,
    a_k = c_u u^k + c_w w^k with u = s - 1, w = -s - 1 and weights set by the
    Legendre symbol of c.  As u + w = -2 and uw = 1 - s^2 = 1 - p*, with
    p* = (-1)^((p-1)/2) p, a_k = -2 a_(k-1) - (1 - p*) a_(k-2) runs on integers."""
    _check_paley_prime(p)
    if min(ks, default=0) < 0:
        raise ValueError("step count must be nonnegative")
    pstar = p if p % 4 == 1 else -p
    # (a_0, a_1) of each class: the weights are (p - 1, p - 1), (u, w) or (w, u)
    pairs = {0: (2 * (p - 1), -2 * (p - 1)), pstar // p: (-2, 2 + 2 * pstar),
             -pstar // p: (-2, 2 - 2 * pstar)}
    rows = []
    for k in range(max(ks, default=-1) + 1):
        if k in ks:
            rows.append({symbol: exact_count(2 * (p - 1) ** k + a, p * 2 ** (k + 1), "Paley walk count")
                         for symbol, (a, _) in pairs.items()})
        pairs = {symbol: (b, -2 * b - (1 - pstar) * a) for symbol, (a, b) in pairs.items()}
    return [[row[symbol] for row in rows] for symbol in [legendre_symbol(c, p) for c in targets]]


def paley_printed_form(p: int, c: int, k: int):
    """The printed case formulas for the walks from 0 to c, transcribed as
    displayed (k >= 1).

    Kept only for the discrepancy report: for p = 3 (mod 4) the residue case
    uses (-1)^k where the derivation forces (-1)^(k+1), the p = 1 (mod 4)
    nonresidue case has a flipped middle sign, and the p = 3 (mod 4)
    nonresidue case repeats (i*sqrt(p)+1) where the first factor must be
    (i*sqrt(p)-1).  The value is a Fraction, possibly non-integral, or None
    when it is irrational, which is exactly the point."""
    from fractions import Fraction

    _check_paley_prime(p)
    symbol = legendre_symbol(c, p)
    if k < 1:
        raise ValueError("displayed forms assume k >= 1")
    s = gauss_sum(p)
    pm1 = p - 1
    scale = Fraction(1, 2 ** (k + 1) * p)
    if symbol == 1:
        if p % 4 == 1:
            total = 2 * pm1**k + (s - 1) ** (k + 1) + (-1) ** (k + 1) * (s + 1) ** (k + 1)
        else:
            total = (2 * pm1**k + (p + 1) * (s - 1) ** (k - 1)
                     + (-1) ** k * (p + 1) * (s + 1) ** (k - 1))
    elif symbol == -1:
        if p % 4 == 1:
            total = 2 * pm1 ** (k - 1) + (s - 1) ** (k - 1) + (-1) ** k * (s + 1) ** (k - 1)
            scale *= p - 1
        else:
            total = 2 * pm1**k - (s + 1) ** (k + 1) + (-1) ** (k + 1) * (s + 1) ** (k + 1)
    else:
        total = 2 * pm1 ** (k - 1) + (s - 1) ** k + (-1) ** k * (s + 1) ** k
        scale *= p - 1
    return total.as_integer() * scale if total.is_rational() else None


def paley_bruteforce(p: int, ks: range, c: int) -> list[int]:
    """Oracle: entry c of row 0 of A^k, for every k in `ks`, for the explicit
    p-by-p adjacency matrix A, by `quiver.power_rows`."""
    res = set(quadratic_residues(p))
    a = [[1 if (j - i) % p in res else 0 for j in range(p)] for i in range(p)]
    return [row[c % p] for row in power_rows(a, 0, ks)]


# ---------------------------------------------------------------------------
# Symmetric groups: Stirling-Kostka multiplicity formula
# ---------------------------------------------------------------------------


def sn_irrep_dim_formula(n: int, ks: range, shapes) -> list[list[int]]:
    """Multiplicity of the irrep labeled by each lam in `shapes` in the k-th
    tensor power of the permutation module, for each k in `ks`:
    sum_l {k, l} K_{lam,(n-l,1^l)}, each {k, l} computed once for all shapes."""
    if any(sum(lam) != n for lam in shapes):
        raise ValueError("shape must be a partition of n")
    kostkas = [[kostka_hook_content(tuple(lam), l) for l in range(n + 1)] for lam in shapes]
    stirlings = [[stirling2(k, l) for l in range(n + 1)] for k in ks]
    return [[sum(map(mul, row, kostka)) for row in stirlings] for kostka in kostkas]


# ---------------------------------------------------------------------------
# Wreath products: invariant dimensions
# ---------------------------------------------------------------------------


def wreath_invariants(r: int, n: int, ks: range) -> list[int]:
    """Invariant dimensions for every k in `ks`, grouped by the number of
    fixed points of the underlying permutation: (1/n!) sum_m F_n(m) f_m(k),
    with f_m(k) the number of words of length k over m letters that use
    every letter a multiple of r times (so 0 unless r divides k), by the
    binomial convolution f_m(rt) = sum_j C(rt, rj) f_{m-1}(r(t - j)), run
    once for m = 1..n up to the largest k; f_0(rt) is 1 at t = 0 alone.

    The published form carries the rencontres weight to the k-th power and an
    r^m/r^n prefactor; that version fails brute-force checking already for
    n = 3, so the weights here are the ones the derivation actually yields."""
    if r < 2 or n < 1:
        raise ValueError("need r >= 2 and n >= 1")
    if min(ks, default=0) < 0:
        raise ValueError("step count must be nonnegative")
    top = max(ks, default=0) // r
    words = [1] + [0] * top  # f_0(r s) for s = 0..top
    totals = [rencontres(n, 0) * f for f in words]
    for m in range(1, n + 1):
        words = [sum(comb(r * s, r * j) * words[s - j] for j in range(s + 1))
                 for s in range(top + 1)]
        totals = [total + rencontres(n, m) * f for total, f in zip(totals, words)]
    nf = factorial(n)
    return [0 if k % r else exact_count(totals[k // r], nf, "wreath invariant dimension")
            for k in ks]


def wreath_invariants_bruteforce(r: int, n: int, ks: range) -> list[int]:
    """Oracle: the average of chi_V(g)^k over the explicit monomial group,
    for every k in `ks`; only for group orders up to 200.  The group is
    enumerated once: its distinct values chi_V(g) are kept with their
    multiplicities, and their powers carried from k to k + 1."""
    from itertools import permutations, product

    order = r**n * factorial(n)
    if order > 200:
        raise ValueError("brute force limited to group order <= 200")
    if min(ks, default=0) < 0:
        raise ValueError("step count must be nonnegative")
    values: dict[tuple, list] = {}
    for sigma in permutations(range(n)):
        fixed = [i for i in range(n) if sigma[i] == i]
        for signs in product(range(r), repeat=n):
            chi = CycNum.from_exponents(r, [signs[i] for i in fixed])
            values.setdefault(chi.coeffs, [chi, 0])[1] += 1
    powers = [(CycNum.from_int(1), x, m) for x, m in values.values()]
    counts = {}
    for k in range(max(ks) + 1 if ks else 0):
        if k in ks:
            acc = CycNum(r, ())
            for power, _, m in powers:
                acc = acc + m * power
            counts[k] = exact_count(acc.as_integer(), order, "brute-force average")
        powers = [(power * x, x, m) for power, x, m in powers]
    return [counts[k] for k in ks]


def wreath_invariants_egf(r: int, n: int, order: int) -> EgfTruncation:
    """Truncated EGF of the invariant dimensions: (1/n!) sum_m F_n(m) h^m,
    with h the period-r hyperbolic series (cosh-like); h^m is carried from m
    to m + 1, one binomial convolution each."""
    h = egf_hyperbolic(1, r, order)
    hm = egf_from_ints([1] + [0] * order)
    acc = [0] * (order + 1)
    for m in range(n + 1):
        if m:
            hm = egf_product([hm, h])
        w = rencontres(n, m)
        if w == 0:
            continue
        for i in range(order + 1):
            acc[i] += w * hm.coeffs[i]
    nf = factorial(n)
    return EgfTruncation(order, tuple(exact_count(c, nf, "wreath EGF coefficient") for c in acc))


def weyl_bc_centralizer(n: int, k: int) -> int:
    """Centralizer-algebra dimension for the signed-permutation group of rank
    n at tensor depth k: sum over block counts of even-block set partitions."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return sum(even_block_partitions(k, s) for s in range(1, n + 1))


# ---------------------------------------------------------------------------
# GL2 and SL2 over F_q
# ---------------------------------------------------------------------------


def gl2_dims(q: int, k: int, which: str) -> int:
    if k == 0:
        return 1
    if which == INDUCED:
        return exact_count(
            (q + 1) ** (k - 1) + q * (q - 2) * 2 ** (k - 1) + (q - 1),
            q * (q - 1), "dimension formula")
    if which == STEINBERG:
        return exact_count(
            2 * q ** (k - 1) + q * (q - 1) * (-1) ** k + (q + 1) * (q - 2),
            2 * (q * q - 1), "dimension formula")
    raise ValueError(f"unknown module {which!r}")


def sl2_dims(q: int, k: int, which: str) -> int:
    if k == 0:
        return 1
    if which == INDUCED:
        return exact_count(
            2 * (q + 1) ** (k - 1) + q * (q - 3) * 2 ** (k - 1) + 2 * (q - 1),
            q * (q - 1), "dimension formula")
    if which == STEINBERG:
        return exact_count(
            4 * q ** (k - 1) + (q - 1) ** 2 * (-1) ** k + (q - 3) * (q + 1),
            2 * (q * q - 1), "dimension formula")
    raise ValueError(f"unknown module {which!r}")


def _lin(c0: int, c1: int) -> Polynomial:
    return Polynomial((c0, c1))


def gl2_poincare(q: int, which: str) -> RatFunc:
    if which == INDUCED:
        num = Polynomial((1, -(q + 3), 2 * q + 3, -q))
        den = _lin(1, -1) * _lin(1, -2) * _lin(1, -(1 + q))
    elif which == STEINBERG:
        num = Polynomial((1, -q, 0, 1))
        den = _lin(1, -1) * _lin(1, 1) * _lin(1, -q)
    else:
        raise ValueError(f"unknown module {which!r}")
    return RatFunc(num, den)


def sl2_poincare(q: int, which: str) -> RatFunc:
    if which == INDUCED:
        num = Polynomial((1, -(q + 3), 2 * q + 3, -(q - 1)))
        den = _lin(1, -1) * _lin(1, -2) * _lin(1, -(1 + q))
    elif which == STEINBERG:
        num = Polynomial((1, -q, 0, 2))
        den = _lin(1, 1) * _lin(1, -1) * _lin(1, -q)
    else:
        raise ValueError(f"unknown module {which!r}")
    return RatFunc(num, den)
