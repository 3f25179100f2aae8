"""Cross-validation suites: every headline quantity computed by at least two
independent routes and compared exactly, for the CLI `verify` verb and the
acceptance tests.  Every walk count, the Paley, wreath and GL2/SL2 closed
forms among them, comes from the route engine that `walks` and `invariants`
run, `routes.walk_routes`, on parsed spec strings, in one call per spec that
runs each route once for every target.  `routes.agree` holds each count to
its references.  Each suite yields its checks, and `run_suite` runs each one
the moment it is yielded, inside one guard: a fault (`errors.FAULTS`) fails
that check, and the run goes on."""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import cache

from . import closedforms as cf
from .combinatorics import bell_number
from .cyclotomic import gauss_sum, gauss_sum_check, sum_of_products
from .diagrams import (
    DiagramElement,
    basis_count,
    compose,
    enumerate_basis,
    is_valid,
)
from .errors import FAULTS, ConsistencyError, exact_count
from .groups import (
    GroupData,
    ParsedSpec,
    _product_spec,
    abelian_elements,
    parse_spec_full,
)
from .quiver import (
    bratteli,
    centralizer_dim,
    eigen_check,
    identity_matrix,
    mat_mul,
    mckay_adjacency,
    power_rows,
)
from .routes import ROUTES, agree, walk_routes
from .polynomials import Polynomial
from .series import (
    RatFunc,
    coordinate_egf,
    cramer_numerators,
    det_factorization_check,
    egf_hyperbolic,
    egf_pow,
    egf_product,
    poincare_character,
    walk_generating_function,
)


CheckResult = namedtuple("CheckResult", "name ok detail", defaults=("",))


# A suite yields its checks as (name, zero-argument body) pairs
Checks = Iterator[tuple[str, Callable[[], object]]]


def _holds(ok: bool, detail: str = "") -> None:
    if not ok:
        raise ConsistencyError(detail)


# -- 1. cyclic fixtures -------------------------------------------------------


def suite_z10() -> Checks:
    spec = parse_spec_full("Z10")
    for (k, frm, to, expected) in [(6, 0, 8, 15), (12, 0, 0, 948)]:
        ks = range(k, k + 1)
        for method, label in (("matrix", "matrix"), ("character", "character"),
                              ("closed", "binomial")):
            yield (f"Z10 {label} ({k},{frm}->{to})",
                   lambda: agree(walk_routes(spec, ks, frm, [to], (method,))[0]
                                 + [("expected", [expected])], ks))
    yield ("Z10 centralizer dim at depth 6",
           lambda: agree([("centralizer dim", [centralizer_dim(spec.group, spec.module, 6)]),
                          ("expected", [948])], range(6, 7)))


# -- 2. Z4 x Z2 fixtures ------------------------------------------------------


def suite_z4xz2() -> Checks:
    spec = parse_spec_full("Z4xZ2")
    g = spec.group
    # built in the first check that reads it: a fault fails each such check
    diagram = cache(lambda: bratteli(g, spec.module, 6))
    labels = [i.label for i in g.irreps]

    def level6():
        got = {labels[i]: m for i, m in diagram().levels[6]}
        _holds(got == {"(2, 0)": 16, "(1, 1)": 12, "(0, 0)": 16, "(3, 1)": 20}, f"got {got}")

    yield ("level-6 multiplicities", level6)
    yield ("centralizer dims per level",
           lambda: agree([("bratteli", diagram().algebra_dims),
                          ("class sum", [centralizer_dim(g, spec.module, k) for k in range(7)]),
                          ("expected", [1, 2, 6, 20, 72, 272, 1056])], range(7)))
    ks = range(1, 7)
    yield ("dims follow 2^(k-1) + 4^(k-1)",
           lambda: agree([("bratteli", diagram().algebra_dims[1:]),
                          ("2^(k-1) + 4^(k-1)", [2 ** (k - 1) + 4 ** (k - 1) for k in ks])], ks))
    yield ("three routes agree for every target, k <= 6",
           lambda: walk_routes(spec, range(7), 0, range(g.n_classes), ROUTES))


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


def suite_s4() -> Checks:
    from .combinatorics import stirling2

    spec = parse_spec_full("S4")
    g = spec.group
    yield ("character table matches the reference entry-for-entry", lambda: _holds(all(
        tuple(g.chi(i, j).as_integer() for j in range(5)) == _S4_TABLE[info.label]
        for i, info in enumerate(g.irreps)
    )))
    yield ("class sizes", lambda: _holds(tuple(g.class_sizes()) == (1, 6, 3, 8, 6),
                                         f"got {g.class_sizes()}"))

    def forms():
        # the engine compares matrix, character and Stirling-Kostka
        ks = range(1, 11)
        for info, pairs in zip(g.irreps, walk_routes(spec, ks, 0, range(g.n_classes), ROUTES)):
            closed, stir = _S4_FORMS[info.label]
            agree(pairs + [("closed form", [exact_count(closed(k), 24, f"S4 closed form {info.label}")
                                            for k in ks]),
                           ("stirling", [sum(c * stirling2(k, l + 1) for l, c in enumerate(stir))
                                         for k in ks])], ks, f"lam={info.label}")

    yield ("five closed forms == matrix == character == Stirling/Kostka, k <= 10", forms)


# -- 4. S_n multiplicity identities -------------------------------------------


def suite_sn() -> Checks:
    def stirling_kostka():
        for n in (2, 3, 4, 5):
            spec = parse_spec_full(f"S{n}")
            walk_routes(spec, range(7), 0, range(spec.group.n_classes), ("character", "closed"))

    yield ("character sums equal Stirling-Kostka sums (n <= 5, k <= 6)", stirling_kostka)
    yield ("Bell numbers", lambda: _holds((bell_number(2), bell_number(4)) == (2, 15),
                                          "expected B(2), B(4) = 2, 15"))

    def bell():
        for n in (2, 3, 4, 5):
            spec = parse_spec_full(f"S{n}")
            ks = [k for k in (1, 2) if n >= 2 * k]
            agree([("centralizer dim", [centralizer_dim(spec.group, spec.module, k) for k in ks]),
                   ("Bell", [bell_number(2 * k) for k in ks])], ks, f"n={n}")

    yield ("centralizer dim equals Bell number when n >= 2k", bell)


# -- 5. Paley graphs ----------------------------------------------------------


def suite_paley() -> Checks:
    def forms():
        ks = range(9)
        for p in (5, 7, 11, 13, 17):
            spec = parse_spec_full(f"paley({p})")
            targets = range(p) if p <= 13 else (0, 1, 3)  # (0, 1, 3): one of each kind
            for c, pairs in zip(targets, walk_routes(spec, ks, 0, targets, ("closed",))):
                agree(pairs + [("brute", cf.paley_bruteforce(p, ks, c))], ks, f"p={p} c={c}")

    yield ("derived closed form == multinomial sum == adjacency powers", forms)

    def discrepancy():
        printed = cf.paley_printed_form(7, 1, 1)
        true_count = cf.paley_bruteforce(7, range(1, 2), 1)[0]
        _holds(printed != true_count, f"printed form gave {printed}, matching {true_count}")

    yield ("discrepancy report: displayed residue case fails at p=7, k=1", discrepancy)


# -- 6. wreath products -------------------------------------------------------


def suite_wreath() -> Checks:
    from math import factorial

    ks = range(9)

    def invariants(r, n, ks, methods=("closed",)):
        return walk_routes(parse_spec_full(f"Z{r}wrS{n}"), ks, 0, [0], methods)[0]

    def evaluators():
        for r in (2, 3, 4):
            for n in (1, 2, 3, 4):
                invariants(r, n, ks, ("character", "closed"))

    yield ("fixed-point and class-sum evaluators agree (r,n <= 4, k <= 8)", evaluators)

    def averaging():
        for r in (2, 3, 4):
            for n in (1, 2, 3, 4):
                if r**n * factorial(n) > 200:
                    continue
                agree(invariants(r, n, ks)
                      + [("brute force", cf.wreath_invariants_bruteforce(r, n, ks))],
                      ks, f"r={r} n={n}")

    yield ("group-element averaging agrees where the order is <= 200", averaging)

    def egf():
        for r in (2, 3, 4):
            for n in (1, 2, 3, 4):
                agree(invariants(r, n, ks) + [("EGF", cf.wreath_invariants_egf(r, n, 8).coeffs)],
                      ks, f"r={r} n={n}")

    yield ("EGF coefficients reproduce the invariant dimensions", egf)

    def signed_pair():
        spec = parse_spec_full("Z2wrS2")
        rf = poincare_character(spec.group, spec.module, 0)
        _holds(rf == RatFunc(Polynomial((1, 0, -3)), Polynomial((1, 0, -4))), f"got {rf}")

    yield ("signed-permutation pair Poincare series", signed_pair)

    def even_blocks():
        even = range(2, 12, 2)
        for n in (1, 2, 3, 4):
            agree(invariants(2, n, even)
                  + [("even-block", [cf.weyl_bc_centralizer(n, k // 2) for k in even])],
                  even, f"n={n}")

    yield ("even-block partition sums equal 2k-step invariants", even_blocks)


# -- 7. GL2 / SL2 -------------------------------------------------------------


def suite_gl2sl2() -> Checks:
    def closed_forms():
        for q in (3, 5, 7):
            for gname, poin in (("GL2", cf.gl2_poincare), ("SL2", cf.sl2_poincare)):
                for which, suffix in ((cf.INDUCED, ""), (cf.STEINBERG, "@steinberg")):
                    spec = parse_spec_full(f"{gname}({q}){suffix}")
                    g = spec.group
                    _holds(sum(g.class_sizes()) == g.order,
                           f"{gname}({q}): class sizes do not sum to the order")
                    ks = range(13)
                    agree(walk_routes(spec, ks, 0, [0], ("character", "closed"))[0]
                          + [("series", poin(q, which).series(12))], ks, f"{gname}({q}) {which}")

    yield ("closed forms == character sums == Poincare coefficients", closed_forms)


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


def builtin_specs() -> list[tuple[str, ParsedSpec]]:
    """(check label, parsed spec) for each of `BUILTIN_SPECS`."""
    return [(name, parse_spec_full(spec)) for name, spec in BUILTIN_SPECS]


def suite_generic() -> Checks:
    for name, spec in builtin_specs():
        g, mod = spec.group, spec.module
        adjacency = cache(lambda: mckay_adjacency(g, mod))  # as `diagram` in suite_z4xz2
        yield (f"{name}: orthogonality",
               lambda: _holds(_orthogonality_ok(g), "row/column relations failed"))
        yield (f"{name}: det(I - tA) factors over the module character",
               lambda: _holds(det_factorization_check(mod, adjacency())))

        def eigenvalues():
            ok, bad = eigen_check(g, mod, adjacency())
            _holds(ok, f"failed at {bad}")

        def cramer():
            ks = range(13)
            walks = power_rows(adjacency(), 0, ks)
            den, nums = cramer_numerators(adjacency())
            for lam, num in enumerate(nums):
                agree([("Cramer series", RatFunc(num, den).series(12)),
                       ("power rows", [row[lam] for row in walks])], ks, f"lam={lam}")

        yield (f"{name}: adjacency eigenvalue identity", eigenvalues)
        yield (f"{name}: Cramer series equals walk counts to t^12 for every node", cramer)

    def digraphs():
        rng = random.Random(20250810)
        ks = range(11)
        for trial in range(20):
            n = rng.randint(2, 6)
            rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            powers = [identity_matrix(n)]
            for _ in range(10):
                powers.append(mat_mul(powers[-1], rows))
            for alpha in range(n):
                for gamma in range(n):
                    agree([("generating function",
                            walk_generating_function(rows, alpha, gamma).series(10)),
                           ("powers", [p[alpha][gamma] for p in powers])],
                          ks, f"trial {trial} ({alpha}->{gamma})")

    yield ("general digraph generating functions match adjacency powers "
           "(20 random digraphs)", digraphs)


def _orthogonality_ok(g: GroupData) -> bool:
    """Row and column orthogonality, both weighted by the class sizes so that
    each sum is |G| or 0: every row and conjugated row is embedded once in
    Q(zeta_conductor)."""
    n, m = g.n_classes, g.conductor
    sizes = g.class_sizes()
    weighted = [[tuple((e, size * c) for e, c in x.embed(m).terms)
                 for size, x in zip(sizes, g.row(nu))] for nu in range(n)]
    conj = [[x.conj().embed(m).terms for x in g.row(nu)] for nu in range(n)]

    def is_delta(xs, ys, same):
        total = sum_of_products(xs, ys, m)
        return total[0] == (g.order if same else 0) and not any(total[1:])

    return (all(is_delta(weighted[nu], conj[lam], nu == lam)
                for nu in range(n) for lam in range(n))
            and all(is_delta(col, conj_col, mu == nu)
                    for mu, col in enumerate(zip(*weighted))
                    for nu, conj_col in enumerate(zip(*conj))))


# -- 9. abelian exponential generating functions ------------------------------


def suite_genfnc() -> Checks:
    ks = range(11)

    def products():
        for radii in ((4, 2), (2, 2, 2), (3, 3), (2, 3), (4, 4, 4)):
            elements = abelian_elements(radii)
            by_target = walk_routes(_product_spec(radii), ks, 0, range(len(elements)),
                                    ("matrix", "closed"))
            for c, pairs in zip(elements, by_target):
                agree(pairs + [("EGF", coordinate_egf(radii, c, 10).coeffs)],
                      ks, f"radii={radii} c={c}")

    yield ("EGF products equal walk counts for every target (k <= 10)", products)

    def hypercube():
        radii = (2,) * 5
        elements = abelian_elements(radii)
        cosh = egf_hyperbolic(1, 2, 10)
        sinh = egf_hyperbolic(2, 2, 10)
        by_target = walk_routes(_product_spec(radii), ks, 0, range(len(elements)), ("matrix",))
        for c, pairs in zip(elements, by_target):
            h = sum(c)
            egf = egf_product([egf_pow(cosh, 5 - h), egf_pow(sinh, h)] if h else [egf_pow(cosh, 5)])
            agree([("EGF", [egf.coefficient(k) for k in ks])] + pairs, ks, f"c={c}")

    yield ("hypercube EGFs follow the cosh/sinh weight pattern", hypercube)


# -- 10. diagram algebra ------------------------------------------------------


def suite_diagram() -> Checks:
    def cardinality():
        ks = range(7)
        for radii in ((2,), (4,), (2, 2), (4, 2), (2, 3), (2, 2, 2), (4, 4)):
            # the character route, not the group ring that basis_count uses;
            # the coordinate module, which no spec string names when radii has one factor
            spec = _product_spec(radii)
            multiplicities = [pairs[0][1] for pairs in walk_routes(
                spec, ks, 0, range(spec.group.n_classes), ("character",))]
            squares = [sum(m[k] ** 2 for m in multiplicities) for k in ks]
            agree([("basis", [basis_count(radii, k) for k in ks]),
                   ("squared multiplicities", squares)], ks, f"radii={radii}")

    yield ("basis cardinality equals the sum of squared multiplicities", cardinality)
    yield ("[4,2] depth-6 basis size",
           lambda: agree([("basis", [len(enumerate_basis((4, 2), 6))]), ("expected", [1056])],
                         range(6, 7)))

    def worked_example():
        radii = (2, 3, 2, 5)
        gamma = (3, 4, 4, 1, 4, 4, 2, 4, 3, 4, 4, 2)
        beta = (2, 4, 1, 3, 1, 2, 2, 4, 1, 2, 2, 3)
        eta = (2, 3, 2, 1, 4, 2, 4, 2, 3, 3, 2, 3)
        lower = DiagramElement(radii, gamma, beta)
        upper = DiagramElement(radii, beta, eta)
        product = compose(upper, lower)
        _holds(is_valid(lower) and is_valid(upper) and product is not None
               and product.bottom == gamma and product.top == eta, f"got {product}")

    yield ("worked 12-letter composition reproduces the printed top word", worked_example)

    def exhaustive():
        for radii in ((2,), (4,), (2, 2)):
            for k in range(4):
                basis = enumerate_basis(radii, k)
                products = {(i, j): compose(e1, e2)
                            for i, e1 in enumerate(basis) for j, e2 in enumerate(basis)}
                for (i, j), prod in products.items():
                    e1, e2 = basis[i], basis[j]
                    if (prod is not None) != (e1.bottom == e2.top):
                        raise ConsistencyError(f"closure predicate failed {e1} {e2}")
                    if prod is not None and not is_valid(prod):
                        raise ConsistencyError(f"product invalid {prod}")
                for (i, j), e12 in products.items():
                    for l, e3 in enumerate(basis):
                        e23 = products[j, l]
                        left = compose(e12, e3) if e12 else None
                        right = compose(basis[i], e23) if e23 else None
                        if left != right:
                            raise ConsistencyError(
                                f"associativity failed {basis[i]} {basis[j]} {e3}")

    yield ("composition closure and associativity (exhaustive, small ranks)", exhaustive)

    def randomized():
        rng = random.Random(1056)
        basis = enumerate_basis((4, 2), 4)
        for _ in range(4000):
            e1, e2, e3 = (rng.choice(basis) for _ in range(3))
            e12, e23 = compose(e1, e2), compose(e2, e3)
            left = compose(e12, e3) if e12 else None
            right = compose(e1, e23) if e23 else None
            if left != right:
                raise ConsistencyError(f"associativity failed {e1} {e2} {e3}")

    yield ("composition associativity (randomized, depth 4)", randomized)


# -- 11. Gauss sums -----------------------------------------------------------


def suite_gauss() -> Checks:
    for p in (5, 7, 13):
        yield (f"g(1)^2 = {'+' if p % 4 == 1 else '-'}{p} in the {p}-th cyclotomic field",
               lambda: _holds(gauss_sum_check(p)))
    yield ("quadratic arithmetic embeds through the Gauss sum",
           lambda: _holds(gauss_sum(5).embed(20) ** 2 == 5))


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
    """The result of each check of suite `name` (every suite for "all"), in
    order: PASS when its body returns, FAIL with the message of the fault it
    raises.  A fault outside every check, in a suite's own setup, ends the run."""
    if name == "all":
        return [result for key in SUITES for result in run_suite(key)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    results = []
    for check, body in SUITES[name]():
        try:
            body()
        except FAULTS as exc:
            results.append(CheckResult(check, False, str(exc)))
        else:
            results.append(CheckResult(check, True))
    return results
