"""Family-specific closed formulas for walk counts and invariant dimensions,
implemented independently of the generic matrix/character engines so each
route cross-checks the others.

The Paley-walk evaluator follows the derivation (split the class sum by
residue type, then use the quadratic Gauss-sum values); the commonly
printed case formulas contain three sign/exponent misprints, so those are
implemented separately as `paley_printed_form` purely to document the
discrepancy.  Likewise the wreath-product invariant formula is implemented
with the weights that survive brute-force checking (the printed form fails
for three or more letters); see the README notes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

from .combinatorics import (
    even_block_partitions,
    group_ring_power,
    kostka_hook_content,
    rencontres,
    stirling2,
)
from .cyclotomic import CycNum, gauss_sum, root_of_unity
from .errors import ConsistencyError
from .numbertheory import is_prime, legendre_symbol, quadratic_residues
from .polynomials import Polynomial
from .quiver import power_rows
from .series import EgfTruncation, RatFunc, egf_hyperbolic, egf_pow

INDUCED = "induced"
STEINBERG = "steinberg"


# ---------------------------------------------------------------------------
# Cyclic groups and group-ring walks
# ---------------------------------------------------------------------------


def cyclic_walks(r: int, k: int, a: int, c: int) -> int:
    """Walks of k steps from a to c on the circular graph with r nodes:
    sum of C(k, l) over l with k - 2l = c - a (mod r)."""
    if r < 2:
        raise ValueError("need at least two nodes")
    if not (0 <= a < r and 0 <= c < r):
        raise ValueError("node out of range")
    total, binom = 0, 1  # binom = C(k, l), carried from l to l + 1
    for l in range(k + 1):
        if (k - 2 * l - (c - a)) % r == 0:
            total += binom
        binom = binom * (k - l) // (l + 1)
    return total


def group_ring_walks(radii, steps, ks: range, c) -> list[int]:
    """Walks of k steps from 0 to c, for each k in `ks`, on the Cayley graph
    of Z_r1 x ... x Z_rn with the given steps: the coefficient of c in
    (sum of the steps)^k in the integer group ring.  Unit steps give products
    of cyclic groups and hypercubes; one factor gives circulant and Paley
    graphs.  A repeated step counts as often as it appears."""
    radii, c, steps = tuple(radii), tuple(c), [tuple(s) for s in steps]
    for x in (c, *steps):
        if len(x) != len(radii) or not all(0 <= xi < ri for xi, ri in zip(x, radii)):
            raise ValueError(f"{x} is not an element of {radii}")
    if not all(any(s) for s in steps):
        raise ValueError("a step is the zero element")
    return [power.get(c, 0) for power in group_ring_power(radii, steps, ks)]


# ---------------------------------------------------------------------------
# Paley (di)graphs via quadratic Gauss sums
# ---------------------------------------------------------------------------

ZERO = "zero"
RESIDUE = "residue"
NONRESIDUE = "nonresidue"


class PaleyTarget(namedtuple("PaleyTarget", "p kind")):
    """A Paley target node: its prime and kind, zero | residue | nonresidue."""

    __slots__ = ()

    def __new__(cls, p: int, kind: str):
        if p % 2 == 0 or not is_prime(p):
            raise ValueError("Paley parameter must be an odd prime")
        if kind not in (ZERO, RESIDUE, NONRESIDUE):
            raise ValueError(f"unknown target kind {kind!r}")
        return super().__new__(cls, p, kind)


def paley_target_of(p: int, c: int) -> PaleyTarget:
    c %= p
    if c == 0:
        return PaleyTarget(p, ZERO)
    return PaleyTarget(p, RESIDUE if legendre_symbol(c, p) == 1 else NONRESIDUE)


def paley_closed_form(target: PaleyTarget, ks: range) -> list[int]:
    """Exact k-step walk counts from 0 on the Paley (di)graph, for every k in
    `ks`, evaluated from the split class sum in Q(zeta_p) through the
    quadratic Gauss sum s.  The module character is (p-1)/2 at 0, (s - 1)/2
    on the residues and -(s + 1)/2 on the nonresidues, so
    p 2^(k+1) times the count is 2 (p-1)^k + c_u u^k + c_w w^k with
    u = s - 1, w = -s - 1 and integral weights c_u, c_w set by the target's
    kind; the two powers are carried from k to the next k."""
    p = target.p
    s = gauss_sum(p)  # sqrt(p) or i*sqrt(p), exactly, in Q(zeta_p)
    roots = (s - 1, -s - 1)
    if target.kind == ZERO:
        weights = (p - 1, p - 1)
    elif (target.kind == RESIDUE) == (p % 4 == 1):
        weights = roots
    else:
        weights = roots[::-1]
    terms = [c * x ** ks.start for c, x in zip(weights, roots)]
    steps = [x ** ks.step for x in roots]
    counts = []
    for k in ks:
        value = ((2 * (p - 1) ** k + terms[0] + terms[1]) / (p * 2 ** (k + 1))).as_rational()
        if value is None or value.denominator != 1 or value < 0:
            raise ConsistencyError(f"Paley walk count came out {value}")
        counts.append(int(value))
        terms = [t * x for t, x in zip(terms, steps)]
    return counts


def paley_printed_form(target: PaleyTarget, k: int) -> CycNum:
    """The printed case formulas, transcribed as displayed (k >= 1).

    Kept only for the discrepancy report: for p = 3 (mod 4) the residue case
    uses (-1)^k where the derivation forces (-1)^(k+1), the p = 1 (mod 4)
    nonresidue case has a flipped middle sign, and the p = 3 (mod 4)
    nonresidue case repeats (i*sqrt(p)+1) where the first factor must be
    (i*sqrt(p)-1).  The returned value may be irrational or non-integral,
    which is exactly the point."""
    p = target.p
    if k < 1:
        raise ValueError("displayed forms assume k >= 1")
    s = gauss_sum(p)
    pm1 = p - 1
    scale = Fraction(1, 2 ** (k + 1) * p)
    if target.kind == RESIDUE:
        if p % 4 == 1:
            total = 2 * pm1**k + (s - 1) ** (k + 1) + (-1) ** (k + 1) * (s + 1) ** (k + 1)
        else:
            total = (2 * pm1**k + (p + 1) * (s - 1) ** (k - 1)
                     + (-1) ** k * (p + 1) * (s + 1) ** (k - 1))
        return total * scale
    if target.kind == NONRESIDUE:
        if p % 4 == 1:
            total = 2 * pm1 ** (k - 1) + (s - 1) ** (k - 1) + (-1) ** k * (s + 1) ** (k - 1)
            return total * (scale * (p - 1))
        total = 2 * pm1**k - (s + 1) ** (k + 1) + (-1) ** (k + 1) * (s + 1) ** (k + 1)
        return total * scale
    total = 2 * pm1 ** (k - 1) + (s - 1) ** k + (-1) ** k * (s + 1) ** k
    return total * (scale * (p - 1))


def paley_bruteforce(p: int, ks: range, c: int) -> list[int]:
    """Oracle: entry c of row 0 of A^k, for every k in `ks`, for the explicit
    p-by-p adjacency matrix A, by `quiver.power_rows`."""
    res = set(quadratic_residues(p))
    a = [[1 if (j - i) % p in res else 0 for j in range(p)] for i in range(p)]
    return [row[c % p] for row in power_rows(a, 0, ks)]


# ---------------------------------------------------------------------------
# Symmetric groups: Stirling-Kostka multiplicity formula
# ---------------------------------------------------------------------------


def sn_irrep_dim_formula(n: int, k: int, lam) -> int:
    """Multiplicity of the irrep labeled by lam in the k-th tensor power of
    the permutation module: sum_l {k, l} K_{lam,(n-l,1^l)}."""
    lam = tuple(lam)
    if sum(lam) != n:
        raise ValueError("shape must be a partition of n")
    return sum(stirling2(k, l) * kostka_hook_content(lam, l) for l in range(n + 1))


# ---------------------------------------------------------------------------
# Wreath products: invariant dimensions
# ---------------------------------------------------------------------------


def wreath_invariants(r: int, n: int, k: int) -> int:
    """Invariant dimension grouped by the number of fixed points of the
    underlying permutation: (1/n!) sum_m F_n(m) f_m(k), with f_m(k) the
    number of words of length k over m letters that use every letter a
    multiple of r times, by the binomial convolution
    f_m(rt) = sum_j C(rt, rj) f_{m-1}(r(t - j)).

    The published form carries the rencontres weight to the k-th power and an
    r^m/r^n prefactor; that version fails brute-force checking already for
    n = 3, so the weights here are the ones the derivation actually yields."""
    if r < 2 or n < 1:
        raise ValueError("need r >= 2 and n >= 1")
    if k == 0:
        return 1
    if k % r:
        return 0
    t = k // r
    words = [1] + [0] * t  # f_0(r s) for s = 0..t
    total = 0
    for m in range(1, n + 1):
        words = [sum(comb(r * s, r * j) * words[s - j] for j in range(s + 1))
                 for s in range(t + 1)]
        total += rencontres(n, m) * words[t]
    q, rem = divmod(total, factorial(n))
    if rem:
        raise ConsistencyError("wreath invariant dimension must be an integer")
    return q


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
            chi = CycNum.zero(r)
            for i in fixed:
                chi = chi + root_of_unity(r, signs[i])
            values.setdefault(chi.coeffs, [chi, 0])[1] += 1
    powers = [(CycNum.from_rational(1), x, m) for x, m in values.values()]
    counts = {}
    for k in range(max(ks) + 1 if ks else 0):
        if k in ks:
            acc = CycNum.zero(r)
            for power, _, m in powers:
                acc = acc + m * power
            value = (acc / order).as_rational()
            if value is None or value.denominator != 1:
                raise ConsistencyError("brute-force average must be an integer")
            counts[k] = int(value)
        powers = [(power * x, x, m) for power, x, m in powers]
    return [counts[k] for k in ks]


def wreath_invariants_egf(r: int, n: int, order: int) -> EgfTruncation:
    """Truncated EGF of the invariant dimensions: (1/n!) sum_m F_n(m) h^m,
    with h the period-r hyperbolic series (cosh-like)."""
    h = egf_hyperbolic(1, r, order)
    acc = [Fraction(0)] * (order + 1)
    for m in range(n + 1):
        w = rencontres(n, m)
        if w == 0:
            continue
        hm = egf_pow(h, m)
        for i in range(order + 1):
            acc[i] += w * hm.coeffs[i]
    nf = factorial(n)
    return EgfTruncation(order, tuple(c / nf for c in acc))


def weyl_bc_centralizer(n: int, k: int) -> int:
    """Centralizer-algebra dimension for the signed-permutation group of rank
    n at tensor depth k: sum over block counts of even-block set partitions."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return sum(even_block_partitions(k, s) for s in range(1, n + 1))


# ---------------------------------------------------------------------------
# GL2 and SL2 over F_q
# ---------------------------------------------------------------------------


def _as_count(x: Fraction) -> int:
    if x.denominator != 1 or x < 0:
        raise ConsistencyError(f"dimension formula came out {x}")
    return int(x)


def gl2_dims(q: int, k: int, which: str) -> int:
    if k == 0:
        return 1
    if which == INDUCED:
        return _as_count(Fraction(
            (q + 1) ** (k - 1) + q * (q - 2) * 2 ** (k - 1) + (q - 1),
            q * (q - 1)))
    if which == STEINBERG:
        return _as_count(Fraction(
            2 * q ** (k - 1) + q * (q - 1) * (-1) ** k + (q + 1) * (q - 2),
            2 * (q * q - 1)))
    raise ValueError(f"unknown module {which!r}")


def sl2_dims(q: int, k: int, which: str) -> int:
    if k == 0:
        return 1
    if which == INDUCED:
        return _as_count(Fraction(
            2 * (q + 1) ** (k - 1) + q * (q - 3) * 2 ** (k - 1) + 2 * (q - 1),
            q * (q - 1)))
    if which == STEINBERG:
        return _as_count(Fraction(
            4 * q ** (k - 1) + (q - 1) ** 2 * (-1) ** k + (q - 3) * (q + 1),
            2 * (q * q - 1)))
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
