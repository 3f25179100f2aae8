"""Cross-validation suites: every headline quantity computed by at least two
independent routes and compared exactly.  The CLI `verify` verb and the
acceptance tests both run these.  Walk counts go through the route engine
that `walks` and `invariants` run, `routes.walk_routes`, on parsed spec
strings."""

from __future__ import annotations

import random
from collections import namedtuple

from . import closedforms as cf
from .combinatorics import bell_number, group_ring_power
from .cyclotomic import gauss_sum, gauss_sum_check, reduce_mod_phi
from .diagrams import (
    DiagramElement,
    basis_count,
    compose,
    enumerate_basis,
    is_valid,
)
from .errors import ConsistencyError, exact_count
from .groups import (
    GroupData,
    ModuleChar,
    abelian_elements,
    coordinate_module,
    monomial_module,
    parse_spec_full,
    permutation_module,
    unit_steps,
)
from .numbertheory import euler_phi
from .quiver import (
    bratteli,
    centralizer_dim,
    eigen_check,
    identity_matrix,
    mat_mul,
    mckay_adjacency,
    power_rows,
    walk_counts_character,
)
from .routes import ROUTES, walk_routes
from .polynomials import Polynomial
from .series import (
    RatFunc,
    cramer_numerators,
    det_factorization_check,
    egf_hyperbolic,
    egf_pow,
    egf_product,
    poincare_character,
    walk_generating_function,
)


CheckResult = namedtuple("CheckResult", "name ok detail", defaults=("",))


class Suite:
    def __init__(self):
        self.results: list[CheckResult] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.results.append(CheckResult(name, bool(ok), "" if ok else detail))

    def equal(self, name: str, got, expected):
        self.check(name, got == expected, f"got {got}, expected {expected}")

    def routes(self, name: str, body):
        """Check `name` by calling `body`, which counts walks with
        `walk_routes` and returns a detail for a count that misses its
        reference, or nothing.  A ConsistencyError, which the engine raises
        at the first k where its routes differ, fails the check with its
        message."""
        try:
            detail = body()
        except ConsistencyError as exc:
            detail = str(exc)
        self.check(name, not detail, detail)


# -- 1. cyclic fixtures -------------------------------------------------------


def suite_z10() -> list[CheckResult]:
    s = Suite()
    spec = parse_spec_full("Z10")

    def count(k, frm, to, method, expected):
        got = walk_routes(spec, range(k, k + 1), frm, to, (method,))[0][1][0]
        return "" if got == expected else f"got {got}, expected {expected}"

    for (k, frm, to, expected) in [(6, 0, 8, 15), (12, 0, 0, 948)]:
        for method, label in (("matrix", "matrix"), ("character", "character"),
                              ("closed", "binomial")):
            s.routes(f"Z10 {label} ({k},{frm}->{to})",
                     lambda: count(k, frm, to, method, expected))
    s.equal("Z10 centralizer dim at depth 6", centralizer_dim(spec.group, spec.module, 6), 948)
    return s.results


# -- 2. Z4 x Z2 fixtures ------------------------------------------------------


def suite_z4xz2() -> list[CheckResult]:
    s = Suite()
    spec = parse_spec_full("Z4xZ2")
    g = spec.group
    bd = bratteli(g, spec.module, 6)
    labels = [i.label for i in g.irreps]
    level6 = {labels[i]: m for i, m in bd.levels[6]}
    s.equal("level-6 multiplicities", level6,
            {"(2, 0)": 16, "(1, 1)": 12, "(0, 0)": 16, "(3, 1)": 20})
    s.equal("centralizer dims per level", bd.algebra_dims, (1, 2, 6, 20, 72, 272, 1056))
    s.check("dims follow 2^(k-1) + 4^(k-1)",
            all(bd.algebra_dims[k] == 2 ** (k - 1) + 4 ** (k - 1) for k in range(1, 7)),
            str(bd.algebra_dims))

    def every_target():
        for to in range(g.n_classes):
            walk_routes(spec, range(7), 0, to, ROUTES)

    s.routes("three routes agree for every target, k <= 6", every_target)
    return s.results


# -- 3. S4 fixtures -----------------------------------------------------------

_S4_TABLE = {
    "(4,)": (1, 1, 1, 1, 1),
    "(3, 1)": (3, 1, -1, 0, -1),
    "(2, 2)": (2, 0, 2, -1, 0),
    "(2, 1, 1)": (3, -1, -1, 0, 1),
    "(1, 1, 1, 1)": (1, -1, 1, 1, -1),
}

# (24 times the power-sum form, Stirling coefficient vector) per irrep,
# valid for k >= 1
_S4_FORMS = {
    "(4,)": (lambda k: 4**k + 6 * 2**k + 8, (1, 1, 1, 1)),
    "(3, 1)": (lambda k: 3 * 4**k + 6 * 2**k, (1, 2, 3, 3)),
    "(2, 2)": (lambda k: 2 * 4**k - 8, (0, 1, 2, 2)),
    "(2, 1, 1)": (lambda k: 3 * 4**k - 6 * 2**k, (0, 1, 3, 3)),
    "(1, 1, 1, 1)": (lambda k: 4**k - 6 * 2**k + 8, (0, 0, 1, 1)),
}


def suite_s4() -> list[CheckResult]:
    from .combinatorics import stirling2

    s = Suite()
    spec = parse_spec_full("S4")
    g = spec.group
    table_ok = all(
        tuple(g.chi(i, j).as_integer() for j in range(5)) == _S4_TABLE[info.label]
        for i, info in enumerate(g.irreps)
    )
    s.check("character table matches the reference entry-for-entry", table_ok)
    s.equal("class sizes", tuple(g.class_sizes()), (1, 6, 3, 8, 6))

    def forms():
        # the engine compares matrix, character and Stirling-Kostka
        ks = range(1, 11)
        for i, info in enumerate(g.irreps):
            closed, stir = _S4_FORMS[info.label]
            for k, count in zip(ks, walk_routes(spec, ks, 0, i, ROUTES)[0][1]):
                want = exact_count(closed(k), 24, f"S4 closed form {info.label}")
                stirling_form = sum(c * stirling2(k, l + 1) for l, c in enumerate(stir))
                if not want == count == stirling_form:
                    return (f"k={k} lam={info.label}: closed {want}, routes {count}, "
                            f"stirling {stirling_form}")

    s.routes("five closed forms == matrix == character == Stirling/Kostka, k <= 10", forms)
    return s.results


# -- 4. S_n multiplicity identities -------------------------------------------


def suite_sn() -> list[CheckResult]:
    s = Suite()

    def stirling_kostka():
        for n in (2, 3, 4, 5):
            spec = parse_spec_full(f"S{n}")
            for to in range(spec.group.n_classes):
                walk_routes(spec, range(7), 0, to, ("character", "closed"))

    s.routes("character sums equal Stirling-Kostka sums (n <= 5, k <= 6)", stirling_kostka)
    s.equal("Bell numbers", (bell_number(2), bell_number(4)), (2, 15))
    ok, detail = True, ""
    for n in (2, 3, 4, 5):
        v = permutation_module(n)
        for k in (1, 2):
            if n < 2 * k:
                continue
            got = centralizer_dim(v.group, v, k)
            if got != bell_number(2 * k):
                ok, detail = False, f"n={n} k={k}: {got} vs B({2 * k})"
    s.check("centralizer dim equals Bell number when n >= 2k", ok, detail)
    return s.results


# -- 5. Paley graphs ----------------------------------------------------------


def suite_paley() -> list[CheckResult]:
    s = Suite()
    ok, detail = True, ""
    ks = range(9)
    for p in (5, 7, 11, 13, 17):
        steps = parse_spec_full(f"paley({p})").params["steps"]
        if p <= 13:
            targets = range(p)
        else:
            targets = (0, 1, 3)  # one representative per kind
        for c in targets:
            rows = zip(ks, cf.group_ring_walks((p,), steps, ks, (c,)),
                       cf.paley_bruteforce(p, ks, c),
                       cf.paley_closed_form(p, c, ks))
            for k, multi, brute, closed in rows:
                if not (brute == closed == multi):
                    ok = False
                    detail = f"p={p} k={k} c={c}: brute {brute}, closed {closed}, multinomial {multi}"
    s.check("derived closed form == multinomial sum == adjacency powers", ok, detail)
    printed = cf.paley_printed_form(7, 1, 1)
    true_count = cf.paley_bruteforce(7, range(1, 2), 1)[0]
    differs = printed != true_count
    s.check("discrepancy report: displayed residue case fails at p=7, k=1",
            differs, f"printed form gave {printed}, matching {true_count}")
    return s.results


# -- 6. wreath products -------------------------------------------------------


def suite_wreath() -> list[CheckResult]:
    from math import factorial

    s = Suite()

    def evaluators():
        for r in (2, 3, 4):
            for n in (1, 2, 3, 4):
                spec = parse_spec_full(f"Z{r}wrS{n}")
                walk_routes(spec, range(9), 0, 0, ("character", "closed"))

    s.routes("fixed-point and class-sum evaluators agree (r,n <= 4, k <= 8)", evaluators)

    ok, detail = True, ""
    for r in (2, 3, 4):
        for n in (1, 2, 3, 4):
            if r**n * factorial(n) > 200:
                continue
            for k, brute in enumerate(cf.wreath_invariants_bruteforce(r, n, range(9))):
                if brute != cf.wreath_invariants(r, n, k):
                    ok, detail = False, f"r={r} n={n} k={k}"
    s.check("group-element averaging agrees where the order is <= 200", ok, detail)

    ok, detail = True, ""
    for r in (2, 3, 4):
        for n in (1, 2, 3, 4):
            e = cf.wreath_invariants_egf(r, n, 8)
            for k in range(9):
                if e.coefficient(k) != cf.wreath_invariants(r, n, k):
                    ok, detail = False, f"r={r} n={n} k={k}: {e.coefficient(k)}"
    s.check("EGF coefficients reproduce the invariant dimensions", ok, detail)

    mod = monomial_module(2, 2)
    rf = poincare_character(mod.group, mod, 0)
    expected = RatFunc(Polynomial((1, 0, -3)), Polynomial((1, 0, -4)))
    s.equal("signed-permutation pair Poincare series", rf, expected)

    ok, detail = True, ""
    for n in (1, 2, 3, 4):
        for k in range(1, 6):
            lhs = cf.weyl_bc_centralizer(n, k)
            rhs = cf.wreath_invariants(2, n, 2 * k)
            if lhs != rhs:
                ok, detail = False, f"n={n} k={k}: {lhs} vs {rhs}"
    s.check("even-block partition sums equal 2k-step invariants", ok, detail)
    return s.results


# -- 7. GL2 / SL2 -------------------------------------------------------------


def suite_gl2sl2() -> list[CheckResult]:
    s = Suite()

    def closed_forms():
        for q in (3, 5, 7):
            for gname, dims, poin in (("GL2", cf.gl2_dims, cf.gl2_poincare),
                                      ("SL2", cf.sl2_dims, cf.sl2_poincare)):
                for which, suffix in ((cf.INDUCED, ""), (cf.STEINBERG, "@steinberg")):
                    spec = parse_spec_full(f"{gname}({q}){suffix}")
                    g = spec.group
                    if sum(g.class_sizes()) != g.order:
                        return f"{gname}({q}): class sizes do not sum to the order"
                    # the engine compares the closed forms with the character sums
                    walk_routes(spec, range(9), 0, 0, ("character", "closed"))
                    series = poin(q, which).series(12)
                    for k in range(13):
                        if series[k] != dims(q, k, which):
                            return f"{gname}({q}) {which} k={k} series"

    s.routes("closed forms == character sums == Poincare coefficients", closed_forms)
    return s.results


# -- 8. generic engines over the built-in modules -----------------------------

# (check label, spec) of each module the generic suite sweeps: full tables of
# order at most 200, with quivers small enough for exact polynomial
# determinants at desk scale
BUILTIN_SPECS = (
    *((f"Z{r} cycle", f"Z{r}") for r in (2, 3, 4, 5, 6, 10, 12)),
    *((f"{s} coordinate", s) for s in ("Z4xZ2", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ3")),
    *((f"S{n} permutation", f"S{n}") for n in (2, 3, 4, 5)),
    *((f"Paley {p}", f"paley({p})") for p in (5, 7, 13)),
)


def builtin_modules() -> list[tuple[str, GroupData, ModuleChar]]:
    """(check label, group, module) for each of `BUILTIN_SPECS`."""
    modules = [(name, parse_spec_full(spec).module) for name, spec in BUILTIN_SPECS]
    return [(name, mod.group, mod) for name, mod in modules]


def suite_generic() -> list[CheckResult]:
    s = Suite()
    for name, g, mod in builtin_modules():
        s.check(f"{name}: orthogonality", _orthogonality_ok(g), "row/column relations failed")
        a = mckay_adjacency(g, mod)
        s.check(f"{name}: det(I - tA) factors over the module character",
                det_factorization_check(g, mod, a))
        ok_eig, bad = eigen_check(g, mod, a)
        s.check(f"{name}: adjacency eigenvalue identity", ok_eig, f"failed at {bad}")
        series_ok, detail = True, ""
        walks = power_rows(a, 0, range(13))
        den, nums = cramer_numerators(a)
        for lam, num in enumerate(nums):
            coeffs = RatFunc(num, den).series(12)
            for k in range(13):
                if coeffs[k] != walks[k][lam]:
                    series_ok = False
                    detail = f"lam={lam} k={k}: {coeffs[k]} vs {walks[k][lam]}"
        s.check(f"{name}: Cramer series equals walk counts to t^12 for every node",
                series_ok, detail)
    rng = random.Random(20250810)
    ok, detail = True, ""
    for trial in range(20):
        n = rng.randint(2, 6)
        rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        powers = [identity_matrix(n)]
        for _ in range(10):
            powers.append(mat_mul(powers[-1], rows))
        for alpha in range(n):
            for gamma in range(n):
                coeffs = walk_generating_function(rows, alpha, gamma).series(10)
                for k in range(11):
                    if coeffs[k] != powers[k][alpha][gamma]:
                        ok = False
                        detail = f"trial {trial} ({alpha}->{gamma}) k={k}"
    s.check("general digraph generating functions match adjacency powers "
            "(20 random digraphs)", ok, detail)
    return s.results


def _sum_of_products(xs, ys, n: int) -> tuple:
    """sum_i xs[i] * ys[i] over power-basis coefficient tuples in Q(zeta_n);
    the products are added unreduced, then reduced once."""
    raw = [0] * (2 * euler_phi(n) - 1)
    for x, y in zip(xs, ys):
        terms = [(j, c) for j, c in enumerate(y) if c]
        for i, a in enumerate(x):
            if a:
                for j, c in terms:
                    raw[i + j] += a * c
    return reduce_mod_phi(raw, n)


def _orthogonality_ok(g: GroupData) -> bool:
    """Row and column orthogonality, both weighted by the class sizes so that
    each sum is |G| or 0: every row and conjugated row is embedded once in
    Q(zeta_conductor)."""
    n, m = g.n_classes, g.conductor
    sizes = g.class_sizes()
    weighted = [[tuple(size * c for c in x.embed(m).coeffs) for size, x in zip(sizes, g.row(nu))]
                for nu in range(n)]
    conj = [[x.conj().embed(m).coeffs for x in g.row(nu)] for nu in range(n)]
    zero = (0,) * (euler_phi(m) - 1)

    def is_delta(xs, ys, same):
        return _sum_of_products(xs, ys, m) == (g.order if same else 0, *zero)

    return (all(is_delta(weighted[nu], conj[lam], nu == lam)
                for nu in range(n) for lam in range(n))
            and all(is_delta(col, conj_col, mu == nu)
                    for mu, col in enumerate(zip(*weighted))
                    for nu, conj_col in enumerate(zip(*conj))))


# -- 9. abelian exponential generating functions ------------------------------


def suite_genfnc() -> list[CheckResult]:
    s = Suite()
    ok, detail = True, ""
    for radii in ((4, 2), (2, 2, 2), (3, 3), (2, 3), (4, 4, 4)):
        mod = coordinate_module(radii)
        a = mckay_adjacency(mod.group, mod)
        powers = power_rows(a, 0, range(11))
        ring = group_ring_power(radii, unit_steps(radii), range(11))
        for idx, c in enumerate(abelian_elements(radii)):
            egf = egf_product([egf_hyperbolic(1 + cj, rj, 10) for cj, rj in zip(c, radii)])
            for k in range(11):
                want = powers[k][idx]
                if egf.coefficient(k) != want or ring[k].get(c, 0) != want:
                    ok, detail = False, f"radii={radii} c={c} k={k}"
    s.check("EGF products equal walk counts for every target (k <= 10)", ok, detail)

    radii = (2,) * 5
    mod = coordinate_module(radii)
    a = mckay_adjacency(mod.group, mod)
    powers = power_rows(a, 0, range(11))
    cosh = egf_hyperbolic(1, 2, 10)
    sinh = egf_hyperbolic(2, 2, 10)
    ok, detail = True, ""
    for idx, c in enumerate(abelian_elements(radii)):
        h = sum(c)
        egf = egf_product([egf_pow(cosh, 5 - h), egf_pow(sinh, h)] if h else [egf_pow(cosh, 5)])
        for k in range(11):
            if egf.coefficient(k) != powers[k][idx]:
                ok, detail = False, f"c={c} k={k}"
    s.check("hypercube EGFs follow the cosh/sinh weight pattern", ok, detail)
    return s.results


# -- 10. diagram algebra ------------------------------------------------------


def suite_diagram() -> list[CheckResult]:
    s = Suite()
    ok, detail = True, ""
    for radii in ((2,), (4,), (2, 2), (4, 2), (2, 3), (2, 2, 2), (4, 4)):
        # the character route, not the group ring that basis_count uses
        mod = coordinate_module(radii)
        multiplicities = [walk_counts_character(mod.group, mod, range(7), 0, to)
                          for to in range(mod.group.n_classes)]
        for k in range(7):
            want = sum(m[k] ** 2 for m in multiplicities)
            if basis_count(radii, k) != want:
                ok, detail = False, f"radii={radii} k={k}"
    s.check("basis cardinality equals the sum of squared multiplicities", ok, detail)
    s.equal("[4,2] depth-6 basis size", len(enumerate_basis((4, 2), 6)), 1056)

    radii = (2, 3, 2, 5)
    gamma = (3, 4, 4, 1, 4, 4, 2, 4, 3, 4, 4, 2)
    beta = (2, 4, 1, 3, 1, 2, 2, 4, 1, 2, 2, 3)
    eta = (2, 3, 2, 1, 4, 2, 4, 2, 3, 3, 2, 3)
    lower = DiagramElement(radii, gamma, beta)
    upper = DiagramElement(radii, beta, eta)
    product = compose(upper, lower)
    s.check("worked 12-letter composition reproduces the printed top word",
            is_valid(lower) and is_valid(upper) and product is not None
            and product.bottom == gamma and product.top == eta,
            f"got {product}")

    ok, detail = True, ""
    for radii in ((2,), (4,), (2, 2)):
        for k in range(4):
            basis = enumerate_basis(radii, k)
            products = {(i, j): compose(e1, e2)
                        for i, e1 in enumerate(basis) for j, e2 in enumerate(basis)}
            for (i, j), prod in products.items():
                e1, e2 = basis[i], basis[j]
                nonzero = e1.bottom == e2.top
                if (prod is not None) != nonzero:
                    ok, detail = False, f"closure predicate failed {e1} {e2}"
                if prod is not None and not is_valid(prod):
                    ok, detail = False, f"product invalid {prod}"
            for (i, j), e12 in products.items():
                for l, e3 in enumerate(basis):
                    e23 = products[j, l]
                    left = compose(e12, e3) if e12 else None
                    right = compose(basis[i], e23) if e23 else None
                    if left != right:
                        ok, detail = False, "associativity failed"
    s.check("composition closure and associativity (exhaustive, small ranks)", ok, detail)

    rng = random.Random(1056)
    basis = enumerate_basis((4, 2), 4)
    ok = True
    for _ in range(4000):
        e1, e2, e3 = (rng.choice(basis) for _ in range(3))
        left = compose(compose(e1, e2), e3) if compose(e1, e2) else None
        right = compose(e1, compose(e2, e3)) if compose(e2, e3) else None
        if left != right:
            ok = False
    s.check("composition associativity (randomized, depth 4)", ok)
    return s.results


# -- 11. Gauss sums -----------------------------------------------------------


def suite_gauss() -> list[CheckResult]:
    s = Suite()
    for p in (5, 7, 13):
        s.check(f"g(1)^2 = {'+' if p % 4 == 1 else '-'}{p} in the {p}-th cyclotomic field",
                gauss_sum_check(p))
    g5 = gauss_sum(5)
    s.check("quadratic arithmetic embeds through the Gauss sum",
            g5 * g5 == 5)
    return s.results


SUITES = {
    "z10": suite_z10,
    "z4xz2": suite_z4xz2,
    "s4": suite_s4,
    "sn": suite_sn,
    "paley": suite_paley,
    "wreath": suite_wreath,
    "gl2sl2": suite_gl2sl2,
    "generic": suite_generic,
    "genfnc": suite_genfnc,
    "diagram": suite_diagram,
    "gauss": suite_gauss,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    return SUITES[name]()
