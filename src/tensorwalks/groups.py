"""Conjugacy-class and character data for the supported group families.

Two tiers: "full" groups carry a character table, each row built when first
read; "invariant" groups carry only class sizes, which with the module
character is all the invariant-dimension formulas consume, and are one-row
tables: the trivial row, all ones.  A module is its character, a tuple of
CycNum values, one per class, the identity class first.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from math import factorial, lcm, prod
from operator import add, mul

from .combinatorics import (
    multipartition_count,
    multipartitions_of,
    partitions_of,
    z_lambda,
    z_multipartition,
)
from .cyclotomic import CycNum, root_of_unity
from .errors import SpecError, UnsupportedQueryError
from .numbertheory import euler_phi, is_prime, prime_power_base, quadratic_residues

FULL = "full"
INVARIANT = "invariant"


ClassInfo = namedtuple("ClassInfo", "label size")
IrrepInfo = namedtuple("IrrepInfo", "label")


class GroupData:
    """Classes, conductor (all character values live in Q(zeta_conductor))
    and `row`: irrep index -> the tuple of that irrep's values over the
    classes, built on first use and cached per group.  A full-tier group is
    given its irreps, an IrrepInfo label each, and their row builder; the
    identity class comes first, so irrep i has dimension chi(i, 0).  An
    invariant-tier group is given neither and is a one-row table: node 0,
    the trivial irrep, has the all-ones row, and any other node raises
    UnsupportedQueryError.  Immutable; equal only to itself."""

    __slots__ = ("name", "order", "classes", "conductor", "irreps", "row")

    def __init__(self, name: str, order: int, classes: tuple[ClassInfo, ...], conductor: int,
                 irreps: tuple[IrrepInfo, ...] | None = None,
                 row: Callable[[int], tuple[CycNum, ...]] | None = None):
        if (irreps is None) != (row is None):
            raise TypeError("a group's irreps and its row builder are given together")
        if row is None:
            row = _trivial_row(name, len(classes))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "irreps", irreps)
        object.__setattr__(self, "row", lru_cache(maxsize=None)(row))

    def __setattr__(self, *args):
        raise AttributeError("GroupData is immutable")

    @property
    def tier(self) -> str:
        return INVARIANT if self.irreps is None else FULL

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> list[int]:
        return [c.size for c in self.classes]

    def chi(self, irrep: int, cls: int) -> CycNum:
        return self.row(irrep)[cls]

    def irrep_index(self, label: str) -> int:
        """The index of the irrep labelled `label`, whitespace ignored (as in
        group specs): "(3,1)" names the irrep labelled "(3, 1)"."""
        assert self.irreps is not None
        key = "".join(label.split())
        for i, info in enumerate(self.irreps):
            if "".join(info.label.split()) == key:
                return i
        raise KeyError(label)


def _trivial_row(name: str, n_classes: int) -> Callable[[int], tuple[CycNum, ...]]:
    """The row builder of an invariant-tier group with `n_classes` classes."""
    def row(nu: int) -> tuple[CycNum, ...]:
        if nu:
            raise UnsupportedQueryError(
                f"group {name} carries invariant-only data: only node 0, "
                "the trivial irrep, has a character row")
        return (CycNum.from_int(1),) * n_classes
    return row


# ---------------------------------------------------------------------------
# Finite abelian groups Z_r1 x ... x Z_rn with the modules that step by a
# multiset of elements: cyclic, product, hypercube, circulant and Paley specs
# ---------------------------------------------------------------------------

# Most integers in the elements and the reduced module character of an abelian
# spec, |G| * (phi(N) + number of factors) for N the lcm of the orders; parsing
# builds nothing, the first read of `.group` builds the elements, and a query that
# reads the module builds its values, each held as at most one term per step.  A
# query that compares or prints the values reduces each to its phi(N) coefficients.
# The reduction table of Z[zeta_N] holds at most (N - phi(N)) * phi(N) more, within
# |G| * phi(N) since N <= |G|.
ABELIAN_LIMIT = 2**21


def abelian_elements(radii) -> tuple[tuple[int, ...], ...]:
    """The elements of Z_r1 x ... x Z_rn, last coordinate fastest: the order
    of the classes, the irreps and the quiver nodes of every abelian spec."""
    return tuple(itertools.product(*(range(r) for r in radii)))


def unit_steps(radii) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for i in range(len(radii))) for j in range(len(radii)))


def _check_abelian_size(radii: tuple[int, ...]) -> None:
    """ValueError above ABELIAN_LIMIT, on the orders alone."""
    order = prod(radii)
    if order > ABELIAN_LIMIT or order * (euler_phi(lcm(*radii)) + len(radii)) > ABELIAN_LIMIT:
        raise ValueError(f"abelian group too large to enumerate: |G| * (phi(lcm of the "
                         f"orders) + number of factors) must be at most {ABELIAN_LIMIT}")


def _step_spec(kind: str, radii: tuple[int, ...], steps, **params) -> ParsedSpec:
    """A spec of the abelian family: Z_r1 x ... x Z_rn, chi_a(b) = zeta_N^<a,b>
    with <a,b> = sum a_i b_i N / r_i and N = lcm(radii), and the module
    chi_V(b) = sum_s zeta_N^<s,b> over the multiset `steps`, whose quiver steps
    from b to b + s; the params carry the radii and the steps.  The rows of
    exponents <s,b> are built one coordinate at a time, b in
    `abelian_elements` order, and each value holds its row as its terms,
    unreduced."""
    _check_abelian_size(radii)
    name, n, steps = "x".join(f"Z{r}" for r in radii), lcm(*radii), tuple(steps)
    label = str if kind == "abelian" else lambda e: str(e[0])  # a tuple, or its one coordinate

    def group():
        scales = [n // r for r in radii]
        elements = abelian_elements(radii)

        def row(i):
            a = [ai * s for ai, s in zip(elements[i], scales)]
            return tuple(root_of_unity(n, sum(map(mul, a, b))) for b in elements)

        labels = [label(e) for e in elements]
        classes = tuple(ClassInfo(text, 1) for text in labels)
        irreps = tuple(IrrepInfo(text) for text in labels)
        return GroupData(name, prod(radii), classes, n, irreps, row)

    def values():
        exponents = [[0] * len(steps)]
        for i, r in enumerate(radii):
            shifts = [[v * s[i] * (n // r) % n for s in steps] for v in range(r)]
            exponents = [list(map(add, e, d)) for e in exponents for d in shifts]
        return tuple(CycNum.from_exponents(n, e) for e in exponents)

    params.update(radii=radii, steps=steps)
    return ParsedSpec(kind, name, params, group, values)


def _cyclic_spec(r: int) -> ParsedSpec:
    if r < 2:
        raise ValueError("cyclic order must be at least 2")
    return _step_spec("cyclic", (r,), ((1,), (r - 1,)), r=r)


def _circulant_spec(r: int, connection) -> ParsedSpec:
    if r < 2:
        raise ValueError("circulant modulus must be at least 2")
    conn = list(connection)
    if not conn:
        raise ValueError("connection set must be nonempty")
    for s in conn:
        if not 1 <= s <= r - 1:
            raise ValueError(f"connection residue {s} out of range 1..{r - 1}")
    return _step_spec("circulant", (r,), [(s,) for s in conn])


def _paley_spec(p: int) -> ParsedSpec:
    if p % 2 and p > 1:
        _check_abelian_size((p,))  # before the sqrt(p) primality test
    if p % 2 == 0 or p < 3 or not is_prime(p):
        raise ValueError(f"Paley parameter must be an odd prime, got {p}")
    return _step_spec("paley", (p,), [(s,) for s in quadratic_residues(p)], p=p)


def _product_spec(radii: tuple[int, ...]) -> ParsedSpec:
    if not radii:
        raise ValueError("need at least one cyclic factor")
    if any(r < 2 for r in radii):
        raise ValueError("each factor must have order at least 2")
    return _step_spec("abelian", radii, unit_steps(radii))


def build_cyclic(r: int) -> GroupData:
    return _cyclic_spec(r).group


def build_abelian(radii) -> GroupData:
    return _product_spec(tuple(radii)).group


def standard_module_cyclic(r: int) -> tuple[CycNum, ...]:
    """The two-character module whose quiver is the circular graph on r nodes."""
    return _cyclic_spec(r).module


def circulant_module(r: int, connection) -> tuple[CycNum, ...]:
    """Module over Z_r summing the characters in `connection`."""
    return _circulant_spec(r, connection).module


def paley_module(p: int) -> tuple[CycNum, ...]:
    """Module over Z_p whose quiver is the Paley (di)graph on p nodes."""
    return _paley_spec(p).module


def coordinate_module(radii) -> tuple[CycNum, ...]:
    """V = direct sum of the n coordinate characters of Z_r1 x ... x Z_rn."""
    return _product_spec(tuple(radii)).module


# ---------------------------------------------------------------------------
# Symmetric groups (Murnaghan-Nakayama character table)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: tuple, mu: tuple) -> int:
    """Character value chi_lam on the class of cycle type mu, by recursive
    border-strip removal on first-column hook lengths (beta sets)."""
    if not mu:
        return 1 if not lam else 0
    t, rest = mu[0], mu[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        crossings = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(
            x - (len(new_beta) - 1 - i) for i, x in enumerate(new_beta)
        )
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** crossings * murnaghan_nakayama(new_lam, rest)
    return total


def _symmetric_spec(n: int) -> ParsedSpec:
    if not 2 <= n <= 12:
        raise ValueError("symmetric group supported for 2 <= n <= 12")
    name = f"S{n}"

    def group():
        parts = partitions_of(n)  # irreps, reverse-lex: (n) = trivial first
        class_order = tuple(reversed(parts))  # (1^n) = identity first
        order = factorial(n)
        classes = tuple(ClassInfo(str(mu), order // z_lambda(mu)) for mu in class_order)
        irreps = tuple(IrrepInfo(str(lam)) for lam in parts)

        def row(i):
            return tuple(CycNum.from_int(murnaghan_nakayama(parts[i], mu)) for mu in class_order)

        return GroupData(name, order, classes, 1, irreps, row)

    return ParsedSpec("symmetric", name, {"n": n}, group, lambda: tuple(
        CycNum.from_int(mu.count(1)) for mu in reversed(partitions_of(n))))


def build_symmetric(n: int) -> GroupData:
    return _symmetric_spec(n).group


def permutation_module(n: int) -> tuple[CycNum, ...]:
    """The n-dimensional permutation module; its character counts fixed points."""
    return _symmetric_spec(n).module


# ---------------------------------------------------------------------------
# Wreath products Z_r wr S_n (invariant tier)
# ---------------------------------------------------------------------------


# Most class slots, classes times r, that a wreath spec builds: each class of
# Z_r wr S_n is an r-multipartition of n, and its label spells all r slots,
# so the text of the class list grows as classes times r.
WREATH_LIMIT = 5 * 10**6


@lru_cache(maxsize=None)
def _wreath_classes(r: int, n: int) -> tuple[tuple, ...]:
    identity = ((0, (1,) * n),)  # sorted first; the sort is stable
    return tuple(sorted(multipartitions_of(n, r), key=lambda a: a != identity))


def _wreath_spec(r: int, n: int) -> ParsedSpec:
    """Z_r wr S_n with its monomial module, chi_V(alpha) = sum_i f_i zeta_r^i,
    f_i the fixed points of alpha's slot of colour i: classes with equal
    nonzero (i, f_i) pairs share one value, built from at most n exponents."""
    if r < 2:
        raise ValueError("wreath cyclic order must be at least 2")
    if not 1 <= n <= 8:
        raise ValueError("wreath symmetric degree supported for 1 <= n <= 8")
    if multipartition_count(n, r) * r > WREATH_LIMIT:
        raise ValueError(f"wreath product too large to enumerate: its number of classes "
                         f"times r must be at most {WREATH_LIMIT}")
    name = f"Z{r}wrS{n}"

    def label(alpha) -> str:
        slots = ["()"] * r
        for i, lam in alpha:
            slots[i] = str(lam)
        return f"({', '.join(slots)})"

    def group():
        order = r**n * factorial(n)
        classes = tuple(ClassInfo(label(alpha), order // z_multipartition(alpha, r))
                        for alpha in _wreath_classes(r, n))
        return GroupData(name, order, classes, r)

    def values():
        shared: dict[tuple[tuple[int, int], ...], CycNum] = {}
        out = []
        for alpha in _wreath_classes(r, n):
            fixed = tuple((i, lam.count(1)) for i, lam in alpha if 1 in lam)
            value = shared.get(fixed)
            if value is None:
                value = shared[fixed] = CycNum.from_exponents(
                    r, [i for i, f in fixed for _ in range(f)])
            out.append(value)
        return tuple(out)

    return ParsedSpec("wreath", name, {"r": r, "n": n}, group, values)


def build_wreath_invariant(r: int, n: int) -> GroupData:
    return _wreath_spec(r, n).group


def monomial_module(r: int, n: int) -> tuple[CycNum, ...]:
    """The defining n-dimensional monomial-matrix module of Z_r wr S_n."""
    return _wreath_spec(r, n).module


# ---------------------------------------------------------------------------
# GL2 and SL2 over F_q (invariant tier, classes expanded from table rows)
# ---------------------------------------------------------------------------


# The two GL2/SL2 modules: a spec's params["which"], the closed forms' `which`, a _Row field
INDUCED = "induced"
STEINBERG = "steinberg"

_Row = namedtuple("_Row", ("family", "count", "size", INDUCED, STEINBERG))


def _gl2_rows(q: int) -> list[_Row]:
    return [
        _Row("a", q - 1, 1, q + 1, q),
        _Row("b", q - 1, q * q - 1, 1, 0),
        _Row("c", (q - 1) * (q - 2) // 2, q * q + q, 2, 1),
        _Row("d", q * (q - 1) // 2, q * q - q, 0, -1),
    ]


def _sl2_rows(q: int) -> list[_Row]:
    return [
        _Row("center", 2, 1, q + 1, q),
        _Row("u", (q - 3) // 2, q * (q + 1), 2, 1),
        _Row("v", 2, (q * q - 1) // 2, 1, 0),
        _Row("-v", 2, (q * q - 1) // 2, 1, 0),
        _Row("w", (q - 1) // 2, q * (q - 1), 0, -1),
    ]


def _linear_spec(kind: str, q: int, which: str) -> ParsedSpec:
    """GL2(F_q) or SL2(F_q), as `kind` says, with its `which` module; each row
    of the table `rows(q)` gives `count` classes that share its two values."""
    if q > 13:  # before q is factored
        raise ValueError("field sizes above 13 not supported at desk scale")
    p = prime_power_base(q)
    if p is None or p == 2:
        raise ValueError(f"field size must be an odd prime power, got {q}")
    name = f"{kind.upper()}({q})"
    order, rows = ((q * (q + 1) * (q - 1) ** 2, _gl2_rows) if kind == "gl2"
                   else (q * (q - 1) * (q + 1), _sl2_rows))

    def group():
        classes = tuple(ClassInfo(f"{row.family}({i})", row.size)
                        for row in rows(q) for i in range(1, row.count + 1))
        return GroupData(name, order, classes, 1)

    return ParsedSpec(kind, name, {"q": q, "which": which}, group, lambda: tuple(
        CycNum.from_int(getattr(row, which)) for row in rows(q) for _ in range(row.count)))


def build_gl2(q: int) -> GroupData:
    return _linear_spec("gl2", q, INDUCED).group


def build_sl2(q: int) -> GroupData:
    return _linear_spec("sl2", q, INDUCED).group


def both_modules_gl2(q: int) -> tuple[tuple[CycNum, ...], tuple[CycNum, ...]]:
    """(induced, Steinberg) for GL2(F_q)."""
    return _linear_spec("gl2", q, INDUCED).module, _linear_spec("gl2", q, STEINBERG).module


def both_modules_sl2(q: int) -> tuple[tuple[CycNum, ...], tuple[CycNum, ...]]:
    """(induced, Steinberg) for SL2(F_q)."""
    return _linear_spec("sl2", q, INDUCED).module, _linear_spec("sl2", q, STEINBERG).module


# ---------------------------------------------------------------------------
# Spec-string parser
# ---------------------------------------------------------------------------


class ParsedSpec:
    """A spec, checked by its family's spec constructor, which runs every refusal
    before making it: `kind` is one of cyclic, abelian, symmetric, wreath, gl2, sl2,
    paley, circulant; `name` is its group's name; `params` holds what the family's
    closed forms read: its numbers (r, n, q, p, radii, steps) and, for GL2/SL2,
    `which` module, INDUCED or STEINBERG.  `group`, and `module`, the character of
    the module the spec names over it: its values, one per class, the identity class
    first, so module[0] is its dimension, are each built on their first read, once,
    by the zero-argument `group` and `values`.  Immutable; equal only to itself."""

    __slots__ = ("kind", "name", "params", "_group", "_module")

    def __init__(self, kind: str, name: str, params: dict, group: Callable[[], GroupData],
                 values: Callable[[], tuple[CycNum, ...]]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_group", lru_cache(maxsize=None)(group))
        object.__setattr__(self, "_module", lru_cache(maxsize=None)(values))

    def __setattr__(self, *args):
        raise AttributeError("ParsedSpec is immutable")

    group = property(lambda self: self._group())
    module = property(lambda self: self._module())

    @property
    def steinberg(self) -> bool:
        """Whether the spec names the Steinberg module of GL2/SL2 (`@steinberg`)."""
        return self.params.get("which") == STEINBERG


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def try_word(self, word: str) -> bool:
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def expect(self, token: str):
        if not self.try_word(token):
            raise SpecError(f"expected {token!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecError("expected an integer", start)
        return int(self.text[start : self.pos])

    def argument(self) -> int:
        """The integer of a parenthesised argument, "(" integer ")"."""
        self.expect("(")
        value = self.integer()
        self.expect(")")
        return value

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_spec_full(text: str) -> ParsedSpec:
    """Parse a group/module spec string; see the README for the grammar.

    Grammar errors raise SpecError with a byte offset; invalid parameters
    (e.g. an even field size) raise SpecError without one."""
    cur = _Cursor(text)
    try:
        spec = _parse_body(cur)
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(str(exc)) from exc
    if cur.try_word("@steinberg"):
        raise SpecError("@steinberg applies only to GL2/SL2 specs")
    if not cur.at_end():
        raise SpecError("trailing input", cur.pos)
    return spec


def _parse_body(cur: _Cursor) -> ParsedSpec:
    for word in ("GL2", "SL2"):
        if cur.try_word(word):
            q = cur.argument()
            return _linear_spec(word.lower(), q, STEINBERG if cur.try_word("@steinberg") else INDUCED)
    if cur.try_word("paley"):
        return _paley_spec(cur.argument())
    if cur.try_word("circulant"):
        cur.expect("(")
        r = cur.integer()
        cur.expect(";")
        conn = [cur.integer()]
        while cur.try_word(","):
            conn.append(cur.integer())
        cur.expect(")")
        return _circulant_spec(r, conn)
    if cur.try_word("hypercube"):
        n = cur.argument()
        if n < 1:
            raise SpecError("hypercube dimension must be positive")
        # past ABELIAN_LIMIT.bit_length() factors the order alone is above the limit
        return _product_spec((2,) * min(n, ABELIAN_LIMIT.bit_length()))
    if cur.try_word("S"):
        return _symmetric_spec(cur.integer())
    if cur.try_word("Z"):
        r = cur.integer()
        if cur.try_word("wr"):
            cur.expect("S")
            return _wreath_spec(r, cur.integer())
        radii = [r]
        while cur.try_word("x"):
            cur.expect("Z")
            radii.append(cur.integer())
        if len(radii) == 1:
            return _cyclic_spec(r)
        return _product_spec(tuple(radii))
    raise SpecError("unrecognized group spec", cur.pos)

