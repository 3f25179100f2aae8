"""Rational generating functions and exponential generating functions.

Poincare series come from two independent routes: Cramer determinants over
Z[t] (valid for any digraph adjacency), and character sums, whose
denominator prod (1 - x t) over the distinct values x of chi_V comes from
integer power sums by Newton's identities.  Every series here generates
walk counts, so it has integer coefficients, and a RatFunc whose series
does not is a ConsistencyError.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .cyclotomic import CycNum, class_sums
from .errors import ConsistencyError, UnsupportedQueryError
from .groups import GroupData
from .polynomials import Polynomial, lowest_terms, poly_det, poly_solve
from .quiver import walk_counts_character

DEGREE_LIMIT = 1000  # most distinct values of chi_V, the character series' degree


class RatFunc:
    """Reduced ratio of polynomials in Z[t] whose power series at t = 0 has
    integer coefficients, in the form that is printed: gcd(num, den) = 1 and
    den(0) = 1.  By Fatou's lemma an integral rational series has exactly one
    such form, and the jointly primitive reduced pair is it up to sign, so
    any other den(0) certifies a non-integral series: ConsistencyError."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        num, den = lowest_terms(num, den)
        d0 = den.coefficient(0)
        if d0 == 0:
            raise ValueError("denominator vanishes at t = 0; no power series")
        if d0 not in (1, -1):
            raise ConsistencyError(f"series ({num.to_text()}) / ({den.to_text()}) "
                                   "has non-integral coefficients")
        if d0 == -1:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    def series(self, order: int) -> list:
        """Maclaurin coefficients c_0..c_order, ints, by c_k = num_k -
        sum_j den_j c_(k-j)."""
        num, den = self.num.coeffs, self.den.coeffs
        top = len(den) - 1
        out: list = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, top) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc)
        return out

    def to_text(self) -> str:
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"RatFunc({self.to_text()})"


def _identity_minus_t(rows) -> list[list[tuple[int, int]]]:
    """I - tA^T as int coefficient pairs, the kernel's input; its
    determinant is det(I - tA)."""
    return [[(1 if i == j else 0, -entry) for j, entry in enumerate(col)]
            for i, col in enumerate(zip(*rows))]


def walk_generating_function(a, source: int, target: int) -> RatFunc:
    """Ordinary generating function of (A^k)[source][target] for any digraph:
    det of (I - t A^T) with column `target` replaced by the source indicator,
    over det(I - t A^T) = det(I - t A)."""
    n = len(a)
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("node index out of range")
    m = _identity_minus_t(a)
    for i in range(n):
        m[i][target] = (1,) if i == source else ()
    num = poly_det(m)
    den = poly_det(_identity_minus_t(a))
    return RatFunc(num, den)


def cramer_numerators(a, source: int = 0) -> tuple[Polynomial, list[Polynomial]]:
    """(det(I - t A), [num_lam for every node lam]) with num_lam / det the
    generating function of walks source -> lam: one fraction-free solve of
    (I - t A^T) x = e_source gives every Cramer numerator det * x_lam."""
    n = len(a)
    if not 0 <= source < n:
        raise ValueError("node index out of range")
    rhs = [1 if i == source else 0 for i in range(n)]
    return poly_solve(_identity_minus_t(a), rhs)


def poincare_cramer(a, lam: int) -> RatFunc:
    """Poincare series of walk counts from the trivial node to `lam`, by the
    literal Cramer-determinant construction."""
    return walk_generating_function(a, 0, lam)


def poincare_character(g: GroupData, v: tuple[CycNum, ...], lam: int) -> RatFunc:
    """Poincare series of walks from the trivial node to `lam`: over the d
    distinct values x of chi_V, told apart by `coeffs`, at most DEGREE_LIMIT,
    (1/|G|) sum_c |c| conj(chi_lam(c)) / (1 - chi_V(c) t) = N / D with
    D = prod_x (1 - x t), so N is D times the walk counts for k < d, mod t^d."""
    values = list({x.embed(g.conductor).coeffs: x for x in v}.values())
    d = len(values)
    if d > DEGREE_LIMIT:
        raise UnsupportedQueryError(f"the character series of {g.name} has degree {d}, the number "
                                    f"of distinct values of chi_V, above {DEGREE_LIMIT}")
    counts, = walk_counts_character(g, v, range(d), 0, [lam])
    den = _linear_factor_product(values)
    num = [sum(den.coefficient(i) * counts[k - i] for i in range(k + 1)) for k in range(d)]
    return RatFunc(Polynomial(num), den)


def _linear_factor_product(values: list[CycNum]) -> Polynomial:
    """prod (1 - x t) over `values`, a Galois-stable list of algebraic
    integers, in Z[t], from the power sums p_1..p_d, which `class_sums`
    certifies on the columns (1, x) of weight 1."""
    sums = class_sums([(CycNum.from_int(1), x) for x in values], [1] * len(values),
                      range(1, len(values) + 1), [0], [0])
    return _newton_product([matrix[0][0] for matrix in sums])


def _newton_product(sums: list[int]) -> Polynomial:
    """prod (1 - x t) over d algebraic integers from their power sums
    p_1..p_d, by Newton's identities j c_j = -sum_{i=1..j} p_i c_{j-i}.  Each
    c_j is +-e_j, a symmetric function of algebraic integers, so an integer:
    the division by j is checked exact."""
    coeffs = [1]
    for j in range(1, len(sums) + 1):
        total = -sum(sums[i] * coeffs[j - 1 - i] for i in range(j))
        c, rem = divmod(total, j)
        if rem:
            raise ConsistencyError(f"Newton coefficient c_{j} came out {total}/{j}")
        coeffs.append(c)
    return Polynomial(coeffs)


def det_factorization_check(v: tuple[CycNum, ...], a) -> bool:
    """det(I - tA) over Z[t] must equal the product of (1 - chi_V(c_mu) t)
    over all classes, built from the power sums of the class values."""
    det = poly_det(_identity_minus_t(a))
    return det == _linear_factor_product(list(v))


def dynkin_quotient(a, remove: int) -> RatFunc:
    """det(I - t A-with-node-removed) / det(I - t A): the removed minor is
    the (remove, remove) cofactor of I - tA, so this is the generating
    function of closed walks at `remove`, one Cramer numerator."""
    den, nums = cramer_numerators(a, remove)
    return RatFunc(nums[remove], den)


# ---------------------------------------------------------------------------
# Exponential generating functions (truncations; coefficients of t^k / k!)
# ---------------------------------------------------------------------------


class EgfTruncation(namedtuple("EgfTruncation", "order coeffs")):
    """Coefficients c_0..c_order of t^k / k!, a tuple of ints."""

    __slots__ = ()

    def __new__(cls, order: int, coeffs: tuple[int, ...]):
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        return super().__new__(cls, order, coeffs)

    def coefficient(self, k: int) -> int:
        return self.coeffs[k]


def egf_from_ints(values) -> EgfTruncation:
    vals = tuple(values)
    return EgfTruncation(len(vals) - 1, vals)


def egf_hyperbolic(j: int, r: int, order: int) -> EgfTruncation:
    """Generalized hyperbolic series: coefficient of t^m/m! is 1 when
    m = j - 1 (mod r), else 0.  j = 1, r = 2 is cosh; j = 2, r = 2 is sinh;
    r = 1 is exp."""
    if r < 1:
        raise ValueError("period must be positive")
    coeffs = tuple(1 if (m - (j - 1)) % r == 0 else 0 for m in range(order + 1))
    return EgfTruncation(order, coeffs)


def egf_product(factors) -> EgfTruncation:
    """Product of EGFs: the integer binomial convolution of coefficient
    sequences, c_k = sum_i C(k, i) a_i b_(k-i)."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    order = factors[0].order
    if any(f.order != order for f in factors):
        raise ValueError("all factors must share one truncation order")
    acc = factors[0].coeffs
    for f in factors[1:]:
        b = f.coeffs
        acc = tuple(sum(comb(k, i) * acc[i] * b[k - i]
                        for i in range(k + 1) if acc[i] and b[k - i])
                    for k in range(order + 1))
    return EgfTruncation(order, acc)


def coordinate_egf(radii, target, order: int) -> EgfTruncation:
    """EGF of the walks from 0 to `target` on the coordinate module of
    Z_r1 x ... x Z_rm: the product over the factors j of the generalized
    hyperbolic series of index 1 + target_j and period r_j."""
    return egf_product([egf_hyperbolic(1 + c, r, order) for c, r in zip(target, radii)])


def egf_scale_arg(e: EgfTruncation, s: int) -> EgfTruncation:
    """Substitute t -> s*t, i.e. scale coefficient k by s^k."""
    return EgfTruncation(e.order, tuple(c * s**k for k, c in enumerate(e.coeffs)))


def egf_pow(e: EgfTruncation, m: int) -> EgfTruncation:
    if m == 0:
        return egf_from_ints([1] + [0] * e.order)
    return egf_product([e] * m)
