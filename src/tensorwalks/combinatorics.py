"""Partitions, multipartitions, Stirling/Kostka/rencontres numbers,
centralizer orders for symmetric and wreath-product groups, and powers in the
integer group ring of a product of cyclic groups."""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod

from .errors import exact_count

# A partition is a weakly decreasing tuple of positive ints; () is the
# partition of 0.  A multipartition is a tuple of partitions.
Partition = tuple
MultiPartition = tuple


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def parts_equal_to(lam: Partition, j: int) -> int:
    return sum(1 for p in lam if p == j)


def fixed_point_count(lam: Partition) -> int:
    """Number of fixed points of a permutation with cycle type lam."""
    return parts_equal_to(lam, 1)


def stirling2(k: int, l: int) -> int:
    """Stirling number of the second kind {k, l} by the alternating closed
    form; {0, 0} = 1 and {0, l} = 0 for l > 0."""
    if k < 0 or l < 0:
        raise ValueError("indices must be nonnegative")
    if l == 0:
        return 1 if k == 0 else 0
    total = sum((-1) ** (l - j) * comb(l, j) * j**k for j in range(l + 1))
    return exact_count(total, factorial(l), "Stirling number")


def bell_number(m: int) -> int:
    return sum(stirling2(m, l) for l in range(m + 1))


@lru_cache(maxsize=None)
def kostka_hook_content(lam: Partition, l: int) -> int:
    """K_{lam,(n-l,1^l)}: semistandard tableaux of shape lam with n-l entries
    0 and one entry each of 1..l.  A column holds at most one 0, so the zeros
    fill the first n-l cells of row 1: this counts the standard skew tableaux
    of shape lam/(n-l), by the branching rule over the corners outside (n-l)."""
    n = sum(lam)
    if not 0 <= l <= n:
        raise ValueError("content length out of range")
    if n > l and lam[0] < n - l:
        return 0
    if l == 0:
        return 1
    return sum(kostka_hook_content(lam[:i] + (row - 1,) * (row > 1) + lam[i + 1:], l - 1)
               for i, row in enumerate(lam)
               if (i + 1 == len(lam) or lam[i + 1] < row) and (i or row > n - l))


@lru_cache(maxsize=None)
def derangements(m: int) -> int:
    if m == 0:
        return 1
    if m == 1:
        return 0
    return (m - 1) * (derangements(m - 1) + derangements(m - 2))


def rencontres(n: int, m: int) -> int:
    """Number of permutations of n letters with exactly m fixed points."""
    if not 0 <= m <= n:
        raise ValueError("fixed-point count out of range")
    return comb(n, m) * derangements(n - m)


def z_lambda(lam: Partition) -> int:
    """Centralizer order of a permutation of cycle type lam in S_|lam|."""
    z = 1
    for j in set(lam):
        pj = parts_equal_to(lam, j)
        z *= j**pj * factorial(pj)
    return z


def z_multipartition(alpha: MultiPartition, r: int) -> int:
    """Centralizer order of the class labeled by an r-multipartition in the
    wreath product of a cyclic group of order r with S_n."""
    total_parts = sum(len(a) for a in alpha)
    z = r**total_parts
    for a in alpha:
        z *= z_lambda(a)
    return z


def multipartitions_of(n: int, r: int) -> list[MultiPartition]:
    """All r-tuples of partitions with total size n, deterministic order."""
    out: list[MultiPartition] = []

    def gen(i: int, remaining: int, acc: tuple):
        if i == r - 1:
            for lam in partitions_of(remaining):
                out.append(acc + (lam,))
            return
        for size in range(remaining, -1, -1):
            for lam in partitions_of(size):
                gen(i + 1, remaining - size, acc + (lam,))

    gen(0, n, ())
    return out


def even_block_partitions(k: int, s: int) -> int:
    """Number of set partitions of a 2k-set into s nonempty blocks of even
    size, by the alternating-sum closed form."""
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    total = sum((-1) ** (s - j) * comb(2 * s, s - j) * j ** (2 * k) for j in range(1, s + 1))
    return exact_count(total, factorial(s) * 2 ** (s - 1), "even-block partition count")


def group_ring_power(radii, steps, ks: range) -> list[dict[tuple[int, ...], int]]:
    """The k-th powers of the sum of `steps` in the integer group ring of
    Z_r1 x ... x Z_rn for each k in the range `ks`, in its order and with its
    stride: one {element: coefficient} dict per k, over the elements that
    occur.  Elements are coordinate tuples; a repeated step counts as often
    as it appears.

    Inside, an element is one int in mixed radix with digit bases 2r - 1
    (the last coordinate lowest), so the product of two elements is the sum
    of their codes without carries, reduced once per distinct sum.  The power
    at the least k in `ks` is taken by products with the step while that k
    times the number of distinct steps is below the group order, else by
    repeated squaring; each later k up to the largest in `ks` is one product
    with the step."""
    radii = tuple(radii)
    if min(ks, default=0) < 0:
        raise ValueError("step count must be nonnegative")
    if not ks:
        return []
    lo, hi = min(ks), max(ks)

    def decode(code: int) -> tuple[int, ...]:
        digits = []
        for r in reversed(radii):
            code, d = divmod(code, 2 * r - 1)
            digits.append(d % r)
        return tuple(reversed(digits))

    def encode(element) -> int:
        code = 0
        for d, r in zip(element, radii):
            code = code * (2 * r - 1) + d % r
        return code

    places = []  # (base 2r - 1, r, place value), lowest digit first
    place = 1
    for r in reversed(radii):
        places.append((2 * r - 1, r, place))
        place *= 2 * r - 1

    def reduce(code: int) -> int:
        """Bring every digit of a sum of two codes back below its radius."""
        out = rest = code
        for base, r, value in places:
            rest, d = divmod(rest, base)
            if d >= r:
                out -= r * value
        return out

    reduced: dict[int, int] = {}  # sum -> reduced code, shared by all products

    def mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        sums: dict[int, int] = {}
        for u, x in a.items():
            for v, y in b.items():
                sums[u + v] = sums.get(u + v, 0) + x * y
        out: dict[int, int] = {}
        for w, z in sums.items():
            r = reduced.get(w)
            if r is None:
                r = reduced[w] = reduce(w)
            out[r] = out.get(r, 0) + z
        return out

    step: dict[int, int] = {}
    for s in steps:
        code = encode(s)
        step[code] = step.get(code, 0) + 1
    power, k, square = {0: 1}, lo, step
    if k * len(step) < prod(radii):
        # k products with the step cost at most k * len(step) * |G| term
        # products, less than the |G|^2 of a single dense squaring.
        for _ in range(k):
            power = mul(power, step)
    else:
        while k:
            if k & 1:
                power = mul(power, square)
            k >>= 1
            if k:
                square = mul(square, square)
    out = {}
    for k in range(lo, hi + 1):
        if k > lo:
            power = mul(power, step)
        if k in ks:
            out[k] = {decode(code): m for code, m in power.items()}
    return [out[k] for k in ks]
