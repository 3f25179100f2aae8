"""Conjugacy-class and character data for the supported group families.

Two tiers: "full" groups carry a character table, each row built when first
read; "invariant" groups carry only class sizes and the module character,
which is all the invariant-dimension formulas consume, and are one-row
tables: the trivial row, all ones.  Values are CycNum.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul

from .combinatorics import (
    fixed_point_count,
    kostka_hook_content,
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
IrrepInfo = namedtuple("IrrepInfo", "label dim")


class GroupData:
    """Classes, conductor (all character values live in Q(zeta_conductor))
    and `row`: irrep index -> the tuple of that irrep's values over the
    classes, built on first use and cached per group.  A full-tier group is
    given its irreps and their row builder.  An invariant-tier group is
    given neither and is a one-row table: node 0, the trivial irrep, has the
    all-ones row, and any other node raises UnsupportedQueryError.
    Immutable; equal only to itself."""

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


class ModuleChar:
    """Character of a module: one value per conjugacy class.  Immutable;
    equal only to itself."""

    __slots__ = ("group", "values", "name")

    def __init__(self, group: GroupData, values: tuple[CycNum, ...], name: str = "V"):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "name", name)

    def __setattr__(self, *args):
        raise AttributeError("ModuleChar is immutable")

    @property
    def dim(self) -> int:
        return self.values[0].as_integer()

    @property
    def self_dual(self) -> bool:
        return all(v == v.conj() for v in self.values)


# ---------------------------------------------------------------------------
# Finite abelian groups Z_r1 x ... x Z_rn with the modules that step by a
# multiset of elements: cyclic, product, hypercube, circulant and Paley specs
# ---------------------------------------------------------------------------

# Most integers in the elements and the module character of an abelian spec,
# |G| * (phi(N) + number of factors) for N the lcm of the orders; parsing builds both.
ABELIAN_LIMIT = 2**21


def abelian_elements(radii) -> tuple[tuple[int, ...], ...]:
    """The elements of Z_r1 x ... x Z_rn, last coordinate fastest: the order
    of the classes, the irreps and the quiver nodes of every abelian spec."""
    return tuple(itertools.product(*(range(r) for r in radii)))


def unit_steps(radii) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for i in range(len(radii))) for j in range(len(radii)))


def _abelian_group(name: str, radii: tuple[int, ...], label) -> GroupData:
    """chi_a(b) = zeta_N^<a,b>, <a,b> = sum a_i b_i N / r_i, N = lcm(radii);
    ValueError above ABELIAN_LIMIT, before any element is built."""
    order, conductor = prod(radii), lcm(*radii)
    if order > ABELIAN_LIMIT or order * (euler_phi(conductor) + len(radii)) > ABELIAN_LIMIT:
        raise ValueError(f"abelian group too large to enumerate: |G| * (phi(lcm of the "
                         f"orders) + number of factors) must be at most {ABELIAN_LIMIT}")
    scales = [conductor // r for r in radii]
    elements = abelian_elements(radii)

    def row(i):
        a = [ai * s for ai, s in zip(elements[i], scales)]
        return tuple(root_of_unity(conductor, sum(map(mul, a, b))) for b in elements)

    classes = tuple(ClassInfo(label(e), 1) for e in elements)
    irreps = tuple(IrrepInfo(label(e), 1) for e in elements)
    return GroupData(name, order, classes, conductor, irreps, row)


def build_cyclic(r: int) -> GroupData:
    if r < 2:
        raise ValueError("cyclic order must be at least 2")
    return _abelian_group(f"Z{r}", (r,), lambda e: str(e[0]))


def build_abelian(radii) -> GroupData:
    radii = tuple(radii)
    if not radii:
        raise ValueError("need at least one cyclic factor")
    if any(r < 2 for r in radii):
        raise ValueError("each factor must have order at least 2")
    return _abelian_group("x".join(f"Z{r}" for r in radii), radii, str)


def _step_spec(kind: str, group: GroupData, radii: tuple[int, ...], steps, name: str = "V",
               **params) -> ParsedSpec:
    """A spec of the abelian family: `group` with the module chi_V(b) =
    sum_s zeta_N^<s,b> over the multiset `steps`, whose quiver steps from b to
    b + s (the exponents are counted mod N, then reduced once); the params
    carry the radii and the steps."""
    steps = tuple(steps)
    n = group.conductor
    scaled = [[si * (n // r) for si, r in zip(s, radii)] for s in steps]
    values = []
    for b in abelian_elements(radii):
        counts = [0] * n
        for s in scaled:
            counts[sum(map(mul, s, b)) % n] += 1
        values.append(CycNum(n, counts))
    params.update(radii=radii, steps=steps)
    return ParsedSpec(kind, params, group, ModuleChar(group, tuple(values), name))


def _cyclic_spec(r: int) -> ParsedSpec:
    return _step_spec("cyclic", build_cyclic(r), (r,), ((1,), (r - 1,)), r=r)


def _circulant_spec(r: int, connection) -> ParsedSpec:
    conn = list(connection)
    if not conn:
        raise ValueError("connection set must be nonempty")
    for s in conn:
        if not 1 <= s <= r - 1:
            raise ValueError(f"connection residue {s} out of range 1..{r - 1}")
    return _step_spec("circulant", build_cyclic(r), (r,), [(s,) for s in conn],
                      f"circulant{tuple(sorted(conn))}")


def _paley_spec(p: int) -> ParsedSpec:
    # build_cyclic applies the size limit before the sqrt(p) primality test
    group = build_cyclic(p) if p % 2 and p > 1 else None
    if group is None or not is_prime(p):
        raise ValueError(f"Paley parameter must be an odd prime, got {p}")
    return _step_spec("paley", group, (p,), [(s,) for s in quadratic_residues(p)], "paley", p=p)


def _product_spec(radii: tuple[int, ...]) -> ParsedSpec:
    return _step_spec("abelian", build_abelian(radii), radii, unit_steps(radii))


def standard_module_cyclic(r: int) -> ModuleChar:
    """The two-character module whose quiver is the circular graph on r nodes."""
    return _cyclic_spec(r).module


def circulant_module(r: int, connection) -> ModuleChar:
    """Module over Z_r summing the characters in `connection`."""
    return _circulant_spec(r, connection).module


def paley_module(p: int) -> ModuleChar:
    """Module over Z_p whose quiver is the Paley (di)graph on p nodes."""
    return _paley_spec(p).module


def coordinate_module(radii) -> ModuleChar:
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


def build_symmetric(n: int) -> GroupData:
    if not 2 <= n <= 12:
        raise ValueError("symmetric group supported for 2 <= n <= 12")
    parts = partitions_of(n)  # irreps, reverse-lex: (n) = trivial first
    class_order = tuple(reversed(parts))  # (1^n) = identity first
    order = factorial(n)
    classes = tuple(
        ClassInfo(str(mu), order // z_lambda(mu)) for mu in class_order
    )
    # the dimension f^lam is the Kostka number K_{lam,(1^n)}
    irreps = tuple(IrrepInfo(str(lam), kostka_hook_content(lam, n)) for lam in parts)

    def row(i):
        return tuple(CycNum.from_int(murnaghan_nakayama(parts[i], mu)) for mu in class_order)

    return GroupData(f"S{n}", order, classes, 1, irreps, row)


def permutation_module(n: int) -> ModuleChar:
    """The n-dimensional permutation module; its character counts fixed points."""
    g = build_symmetric(n)
    parts = partitions_of(n)
    values = tuple(
        CycNum.from_int(fixed_point_count(mu)) for mu in reversed(parts)
    )
    return ModuleChar(g, values)


# ---------------------------------------------------------------------------
# Wreath products Z_r wr S_n (invariant tier)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _wreath_classes(r: int, n: int) -> tuple[tuple, ...]:
    identity = ((1,) * n,) + ((),) * (r - 1)  # sorted first; the sort is stable
    return tuple(sorted(multipartitions_of(n, r), key=lambda a: a != identity))


def build_wreath_invariant(r: int, n: int) -> GroupData:
    if r < 2:
        raise ValueError("wreath cyclic order must be at least 2")
    if not 1 <= n <= 8:
        raise ValueError("wreath symmetric degree supported for 1 <= n <= 8")
    order = r**n * factorial(n)
    classes = tuple(
        ClassInfo(str(alpha), order // z_multipartition(alpha, r))
        for alpha in _wreath_classes(r, n)
    )
    return GroupData(f"Z{r}wrS{n}", order, classes, r)


def monomial_module(r: int, n: int) -> ModuleChar:
    """The defining n-dimensional monomial-matrix module of Z_r wr S_n, with
    chi_V(alpha) = sum_i f_i zeta_r^i, f_i the fixed points of alpha_i."""
    g = build_wreath_invariant(r, n)
    shared: dict[tuple[int, ...], CycNum] = {}
    values = []
    for alpha in _wreath_classes(r, n):
        fixed = tuple(map(fixed_point_count, alpha))
        value = shared.get(fixed)
        if value is None:
            value = shared[fixed] = CycNum(r, fixed)
        values.append(value)
    return ModuleChar(g, tuple(values))


# ---------------------------------------------------------------------------
# GL2 and SL2 over F_q (invariant tier, classes expanded from table rows)
# ---------------------------------------------------------------------------


def _check_odd_prime_power(q: int) -> None:
    p = prime_power_base(q)
    if p is None or p == 2:
        raise ValueError(f"field size must be an odd prime power, got {q}")
    if q > 13:
        raise ValueError("field sizes above 13 not supported at desk scale")


_Row = namedtuple("_Row", "family count size chi_v chi_st")


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


def _expand_rows(name: str, order: int, rows: list[_Row]) -> tuple[GroupData, tuple, tuple]:
    classes = []
    chi_v = []
    chi_st = []
    for row in rows:
        classes.extend(ClassInfo(f"{row.family}({i})", row.size) for i in range(1, row.count + 1))
        chi_v.extend([CycNum.from_int(row.chi_v)] * row.count)
        chi_st.extend([CycNum.from_int(row.chi_st)] * row.count)
    g = GroupData(name, order, tuple(classes), 1)
    return g, tuple(chi_v), tuple(chi_st)


def build_gl2(q: int) -> GroupData:
    return both_modules_gl2(q)[0].group


def both_modules_gl2(q: int) -> tuple[ModuleChar, ModuleChar]:
    """(induced (q+1)-dim module, q-dim Steinberg module) for GL2(F_q)."""
    _check_odd_prime_power(q)
    order = q * (q + 1) * (q - 1) ** 2
    g, chi_v, chi_st = _expand_rows(f"GL2({q})", order, _gl2_rows(q))
    return ModuleChar(g, chi_v, name="induced"), ModuleChar(g, chi_st, name="steinberg")


def build_sl2(q: int) -> GroupData:
    return both_modules_sl2(q)[0].group


def both_modules_sl2(q: int) -> tuple[ModuleChar, ModuleChar]:
    _check_odd_prime_power(q)
    order = q * (q - 1) * (q + 1)
    g, chi_v, chi_st = _expand_rows(f"SL2({q})", order, _sl2_rows(q))
    return ModuleChar(g, chi_v, name="induced"), ModuleChar(g, chi_st, name="steinberg")


# ---------------------------------------------------------------------------
# Spec-string parser
# ---------------------------------------------------------------------------


class ParsedSpec:
    """A parsed spec string; `kind` is one of cyclic, abelian, symmetric,
    wreath, gl2, sl2, paley, circulant.  Immutable; equal only to itself."""

    __slots__ = ("kind", "params", "group", "module", "steinberg")

    def __init__(self, kind: str, params: dict, group: GroupData, module: ModuleChar,
                 steinberg: bool = False):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "steinberg", steinberg)

    def __setattr__(self, *args):
        raise AttributeError("ParsedSpec is immutable")


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
            cur.expect("(")
            q = cur.integer()
            cur.expect(")")
            kind = word.lower()
            steinberg = cur.try_word("@steinberg")
            # (induced, Steinberg); looked up at call time, so a wrapper
            # rebound onto these names sees the call
            both = both_modules_gl2 if kind == "gl2" else both_modules_sl2
            module = both(q)[steinberg]
            return ParsedSpec(kind, {"q": q}, module.group, module, steinberg)
    if cur.try_word("paley"):
        cur.expect("(")
        p = cur.integer()
        cur.expect(")")
        return _paley_spec(p)
    if cur.try_word("circulant"):
        cur.expect("(")
        r = cur.integer()
        cur.expect(";")
        conn = [cur.integer()]
        while cur.try_word(","):
            conn.append(cur.integer())
        cur.expect(")")
        if r < 2:
            raise SpecError("circulant modulus must be at least 2")
        return _circulant_spec(r, conn)
    if cur.try_word("hypercube"):
        cur.expect("(")
        n = cur.integer()
        cur.expect(")")
        if n < 1:
            raise SpecError("hypercube dimension must be positive")
        # past ABELIAN_LIMIT.bit_length() factors the order alone is above the limit
        return _product_spec((2,) * min(n, ABELIAN_LIMIT.bit_length()))
    if cur.try_word("S"):
        n = cur.integer()
        module = permutation_module(n)
        return ParsedSpec("symmetric", {"n": n}, module.group, module)
    if cur.try_word("Z"):
        r = cur.integer()
        if cur.try_word("wr"):
            cur.expect("S")
            n = cur.integer()
            module = monomial_module(r, n)
            return ParsedSpec("wreath", {"r": r, "n": n}, module.group, module)
        radii = [r]
        while cur.try_word("x"):
            cur.expect("Z")
            radii.append(cur.integer())
        if len(radii) == 1:
            return _cyclic_spec(r)
        return _product_spec(tuple(radii))
    raise SpecError("unrecognized group spec", cur.pos)

