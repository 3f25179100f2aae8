"""Exact arithmetic in the rings of cyclotomic integers Z[zeta_N].

A value is held as its terms: the (exponent, count) pairs, exponents in
range(N), of an element of Z[x]/(x^N - 1) that x -> zeta_N maps onto it.
Every character value is a sum of roots of unity, built from its exponents
by `CycNum.from_exponents`; `embed`, `galois`, `conj` and sums map or
collect terms and never reduce.  `CycNum.coeffs`, the canonical int vector
over the power basis 1, z, ..., z^(phi(N)-1), z = zeta_N, modulo the N-th
cyclotomic polynomial Phi_N, is reduced on first read: where a value is
compared, printed, tested for rationality or deduplicated.  The one
reduction, `reduce_mod_phi`, is called from `coeffs` and from the one
product loop, `sum_of_products`, so a product comes back reduced.

`class_sums`, the kernel of every certified character sum, reads each value's
terms as they stand, zeta_d as a power of zeta_N for N the lcm of the
table's conductors, through ring maps zeta_N -> 2^B onto the integers mod
M = Phi_N(2^B), which are defined on Z[x]/(x^N - 1); it never embeds or
reduces a value.  M is read through `polynomials._pack`, the one value of a
polynomial at 2^B.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import mul

from .errors import ConsistencyError
from .numbertheory import divisors, euler_phi, is_prime, unit_generators
from .polynomials import _exact_div, _pack

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, via Phi_n = (x^n - 1) / prod_{d|n, d<n} Phi_d."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            num = _exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _high_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows z^e mod Phi_n for phi(n) <= e < n, each z times the one
    before less one multiple of Phi_n: (n - phi(n)) * phi(n) ints."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows, row = [], [0] * (deg - 1) + [1]  # z^(deg - 1)
    for _ in range(n - deg):
        top = row[-1]
        row = [(row[j - 1] if j else 0) - top * phi[j] for j in range(deg)]
        rows.append(tuple(row))
    return tuple(rows)


def reduce_mod_phi(terms, n: int) -> tuple:
    """Reduce sum c z^e over the (exponent, count) pairs `terms` modulo
    Phi_n: each exponent is read mod n, one below phi(n) is added in place,
    and one at or above adds its row of `_high_powers`."""
    deg, rows = euler_phi(n), _high_powers(n)
    out = [0] * deg
    for e, c in terms:
        e %= n
        if e < deg:
            out[e] += c
        elif c:
            out = [x + c * r for x, r in zip(out, rows[e - deg])]
    return tuple(out)


def _collect(terms, n: int) -> tuple:
    """The (exponent, count) pairs `terms` as a value holds them: each
    exponent read mod n, one pair per exponent, sorted, no count 0."""
    out: dict[int, int] = {}
    for e, c in terms:
        e %= n
        out[e] = out.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in out.items() if c))


def sum_of_products(xs, ys, n: int) -> tuple:
    """sum_i xs[i] * ys[i] over term tuples in Q(zeta_n), as a reduced
    power-basis tuple: the products are added unreduced, then reduced once.
    The one product loop: `CycNum.__mul__` is its one-term case, and it is
    the reference dot product of the checks that stay independent of `class_sums`."""
    raw = [0] * (2 * n - 1)
    for x, y in zip(xs, ys):
        for i, a in x:
            for j, c in y:
                raw[i + j] += a * c
    return reduce_mod_phi(enumerate(raw), n)


class CycNum:
    """An element of Z[zeta_N], held as `terms`: its (exponent, count) pairs,
    exponents in range(N), sorted, one pair per exponent, no count 0.
    `coeffs`, its canonical vector modulo Phi_N, is reduced on first read.
    Immutable.

    Coefficients are ints; any other coefficient type, bool among them,
    raises TypeError."""

    __slots__ = ("conductor", "terms", "_coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        coeffs = list(coeffs)
        if not set(map(type, coeffs)) <= {int}:
            raise TypeError("cyclotomic coefficients must be ints")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "terms", _collect(enumerate(coeffs), conductor))
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _of(cls, conductor: int, terms: tuple, coeffs: tuple | None = None) -> "CycNum":
        """The value held as the int `terms`, with its reduced `coeffs` if known,
        both built by the caller, a method of this class: no check, no reduction."""
        x = object.__new__(cls)
        object.__setattr__(x, "conductor", conductor)
        object.__setattr__(x, "terms", terms)
        object.__setattr__(x, "_coeffs", coeffs)
        return x

    def __setattr__(self, *args):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple:
        """The canonical power-basis vector, reduced modulo Phi_N on first
        read: where a value is compared, printed or deduplicated."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", reduce_mod_phi(self.terms, self.conductor))
        return self._coeffs

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_exponents(cls, n: int, exponents) -> "CycNum":
        """sum_e zeta_n^e over the ints `exponents`, a repeated exponent
        counted once per occurrence: the one build of a value from roots."""
        if n < 1:
            raise ValueError("conductor must be positive")
        return cls._of(n, _collect(zip(exponents, repeat(1)), n))

    @staticmethod
    def from_int(value: int) -> "CycNum":
        if type(value) is not int:
            raise TypeError(f"a CycNum scalar is an int, not {type(value).__name__}")
        return CycNum._of(1, ((0, value),) if value else (), (value,))

    # -- conductor handling ---------------------------------------------------

    def embed(self, m: int) -> "CycNum":
        """Reinterpret in Z[zeta_m]; requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"cannot embed conductor {n} into {m}")
        step = m // n
        return CycNum._of(m, tuple((e * step, c) for e, c in self.terms))

    def _coerce(self, other):
        if isinstance(other, CycNum):
            return other
        if type(other) is int:
            return CycNum.from_int(other)
        return None

    def _common(self, other: "CycNum"):
        n = lcm(self.conductor, other.conductor)
        return self.embed(n), other.embed(n), n

    # -- ring / field operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, n = self._common(other)
        return CycNum._of(n, _collect(a.terms + b.terms, n))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._of(self.conductor, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, n = self._common(other)
        coeffs = sum_of_products([a.terms], [b.terms], n)
        return CycNum._of(n, tuple((e, c) for e, c in enumerate(coeffs) if c), coeffs)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("cyclotomic exponent must be nonnegative")
        result = CycNum.from_int(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def galois(self, a: int) -> "CycNum":
        """Apply the automorphism zeta_N -> zeta_N^a (a coprime to N)."""
        n = self.conductor
        if gcd(a, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        return CycNum._of(n, tuple(sorted((e * a % n, c) for e, c in self.terms)))

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta_N -> zeta_N^(-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- predicates and conversions --------------------------------------------

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_integer(self) -> int:
        """The value as an int; raises ConsistencyError if not a rational integer."""
        if not self.is_rational():
            raise ConsistencyError(f"expected a rational integer, got {self}")
        return self.coeffs[0]

    # -- equality, hashing, display ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-free but equality crosses conductors; keep unhashable

    def __repr__(self):
        return f"CycNum({self.conductor}, {list(self.coeffs)})"

    def to_text(self) -> str:
        """Render as "c0 + c1*z + ...; conductor=N" (serialization format)."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and len(self.coeffs) > 1:
                continue
            term = str(c) if i == 0 else (f"{c}*z" if i == 1 else f"{c}*z^{i}")
            parts.append(term)
        if not parts:
            parts = ["0"]
        return " + ".join(parts) + f"; conductor={self.conductor}"


# -- module-level operations -------------------------------------------------


def root_of_unity(n: int, m: int) -> CycNum:
    """zeta_n^m, the one term (m mod n, 1), with conductor n.  One instance is
    shared per (n, m mod n): `class_sums` interns values by identity first."""
    if n < 1:
        raise ValueError("order must be positive")
    return _root(n, m % n)


@lru_cache(maxsize=None)
def _root(n: int, e: int) -> CycNum:
    return CycNum.from_exponents(n, (e,))


def gauss_sum(p: int) -> CycNum:
    """g(1) = sum_x zeta_p^(x^2) in Z[zeta_p], for an odd prime p."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("Gauss sums here need an odd prime")
    return CycNum.from_exponents(p, [x * x for x in range(p)])


def gauss_sum_check(p: int) -> bool:
    """Verify g(1)^2 = p for p = 1 mod 4 and g(1)^2 = -p for p = 3 mod 4."""
    g = gauss_sum(p)
    square = g * g
    expected = p if p % 4 == 1 else -p
    return square == expected


# -- certified evaluation: character sums as rational integers ----------------


def _images(values, n: int, b: int, units) -> tuple[int, list[list[int]]]:
    """M = Phi_n(2^b) and, for each unit a in `units`, the list of
    h(sigma_a(x)) mod M over `values`, for the ring map h: Z[zeta_n] -> Z/M,
    zeta_n -> 2^b, which sends zeta_n^j to 2^(b j) mod M.  A CycNum of
    conductor d | n is read in its own power basis, zeta_d as zeta_n^(n/d),
    and sigma_a sends zeta_n^j to zeta_n^(a j)."""
    m = _pack(cyclotomic_polynomial(n), b)
    powers = [1 % m]
    for _ in range(n - 1):
        powers.append((powers[-1] << b) % m)
    out = []
    for a in units:
        images = []
        for x in values:
            step = n // x.conductor * a
            images.append(sum(c * powers[e * step % n] for e, c in x.terms) % m)
        out.append(images)
    return m, out


def lift(residue: int, modulus: int) -> int:
    """The symmetric residue of `residue` mod `modulus`, in (-M/2, M/2]."""
    residue %= modulus
    return residue - modulus if 2 * residue > modulus else residue


def class_sums(columns, weights, ks: range, left, right) -> list[list[list[int]]]:
    """For each k in `ks`, in its order and with its stride, the matrix over
    i in `left` and j in `right` of sum_c w_c x_c^k a_ci conj(a_cj), where
    column c is a tuple of CycNums (a_c0, a_c1, ..., x_c), its last entry
    x_c, and w_c is its int weight.

    The distinct values are interned as (conductor, terms) and read through
    ring maps h: zeta_N -> 2^B onto Z/M, M = Phi_N(2^B), N the lcm of their
    conductors.  Phi_N(y) divides y^N - 1, so M divides 2^(BN) - 1 and h is
    defined on Z[x]/(x^N - 1): it reads the terms as they stand, and sends
    them where it sends the value they name.  Each value's L1 norm |x|_1,
    the sum of the absolute counts of its terms, bounds |tau(x)| and
    |tau(sigma_a(x))| under every embedding tau.  Equal values held as
    different terms, such as 1 + zeta_p + ... + zeta_p^(p-1) and 0, are
    two interned values whose images agree.

    Certificate: on the map with 2^B - 1 > 2 max |x|_1, a nonzero z =
    sigma_a(x) - y has 0 < |norm(z)| <= (|x|_1 + |y|_1)^phi(N) <
    (2^B - 1)^phi(N) <= M, while h(z) = 0 would make M divide norm(z), so
    h(sigma_a(x)) = h(y) exactly when sigma_a(x) = y.  Columns are merged by
    their entries' images under h into one of the summed weight, columns of
    weight 0 are dropped, and for each a in a generating set of (Z/N)^x,
    sigma_a must map the weighted multiset of columns onto itself;
    otherwise ConsistencyError.  Every sum asked for is then fixed by each
    sigma_a, so it lies in Z[zeta_N] and in Q, hence in Z.

    Evaluation: each sum is at most bound = sum_c |w_c| |x_c|_1^k
    max_i |a_ci|_1 max_j |a_cj|_1 in absolute value; with B the least
    exponent such that (2^B - 1)^phi(N) > 2 * bound, M > 2 * bound, as
    every primitive root zeta has |2^B - zeta| >= 2^B - 1.  Per column the
    images of w_c a_ci x_c^k are carried mod M from one k to the next, one
    product with the image of conj(a_cj) gives each term, and `lift`
    recovers the sum."""
    columns = [tuple(col) for col in columns]
    values: list = []
    index: dict = {}
    at: dict[int, int] = {}  # id -> value index; the columns keep each value alive
    for col in columns:
        for x in col:
            if id(x) not in at:
                key = (x.conductor, x.terms)
                j = index.get(key)
                if j is None:
                    j = index[key] = len(values)
                    values.append(x)
                at[id(x)] = j
    l1 = [sum(abs(c) for _, c in x.terms) for x in values]
    n = lcm(*(x.conductor for x in values))
    gens = unit_generators(n)
    _, (ident, *moved) = _images(values, n, (2 * max(l1, default=0) + 1).bit_length(), (1, *gens))
    first: dict[int, int] = {}
    slot = [first.setdefault(h, j) for j, h in enumerate(ident)]
    merged: dict[tuple, int] = {}
    for col, w in zip(columns, weights):
        col = tuple([slot[at[id(x)]] for x in col])
        merged[col] = merged.get(col, 0) + w
    merged = {col: w for col, w in merged.items() if w}  # a column of weight 0 adds nothing
    for a, images in zip(gens, moved):
        image = [first.get(h, -1) for h in images]
        moved_cols: dict[tuple, int] = {}
        for col, w in merged.items():
            col = tuple([image[j] for j in col])
            moved_cols[col] = moved_cols.get(col, 0) + w
        if moved_cols != merged:
            raise ConsistencyError(
                f"zeta -> zeta^{a} does not permute the classes of the character "
                f"data over Q(zeta_{n}); Galois-incomplete table, the sum is not rational")
    if not ks:
        return []
    cols, weights = list(merged), list(merged.values())
    bound = sum(abs(w) * max(l1[c[-1]] ** ks[0], l1[c[-1]] ** ks[-1])
                * max((l1[c[i]] for i in left), default=0)
                * max((l1[c[j]] for j in right), default=0)
                for c, w in zip(cols, weights))
    deg = euler_phi(n)
    b = max(1, (2 * bound).bit_length() // deg)
    while (2**b - 1) ** deg <= 2 * bound:
        b += 1
    m, (images, conj_images) = _images(values, n, b, (1, -1))
    start = [w * pow(images[c[-1]], ks.start, m) % m for c, w in zip(cols, weights)]
    steps = [pow(images[c[-1]], ks.step, m) for c in cols]
    terms = [[images[c[i]] * t % m for c, t in zip(cols, start)] for i in left]
    conj = [[conj_images[c[j]] for c in cols] for j in right]
    out = []
    for _ in ks:
        if out:
            terms = [[t * s % m for t, s in zip(row, steps)] for row in terms]
        out.append([[lift(sum(map(mul, row, crow)), m) for crow in conj] for row in terms])
    return out
