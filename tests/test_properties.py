"""Route-against-route property tests, drawn by hypothesis (skipped when it
is not installed)."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations
from math import gcd, lcm, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tensorwalks import closedforms as cf
from tensorwalks.cli import VERBS, _dumps, _read, build_parser, parse_args
from tensorwalks.combinatorics import partitions_of
from tensorwalks.diagrams import basis_count
from tensorwalks.cyclotomic import CycNum, class_sums, reduce_mod_phi
from tensorwalks.errors import ConsistencyError
from tensorwalks.groups import (
    FULL,
    _circulant_spec,
    _product_spec,
    _step_spec,
    abelian_elements,
    build_abelian,
    build_cyclic,
    parse_spec_full,
)
from tensorwalks.numbertheory import euler_phi, is_prime, quadratic_residues
from tensorwalks.polynomials import Polynomial, poly_det, poly_solve
from tensorwalks.quiver import (
    character_walk_counts,
    mat_pow,
    mckay_adjacency,
    power_rows,
    walk_count_character,
    walk_counts_character,
)
from tensorwalks.verify import _orthogonality_ok, builtin_specs
from tensorwalks.series import (
    RatFunc,
    cramer_numerators,
    poincare_character,
    poincare_cramer,
    walk_generating_function,
)

from oracles import validate_group

K_MAX = 12


@settings(max_examples=80, deadline=None)
@given(r=st.integers(2, 4), n=st.integers(1, 4), k=st.integers(0, K_MAX))
def test_wreath_fixed_point_character_and_egf_agree(r, n, k):
    spec = parse_spec_full(f"Z{r}wrS{n}")
    [fixed_point] = cf.wreath_invariants(r, n, range(k, k + 1))
    assert walk_count_character(spec.group, spec.module, k, 0, 0) == fixed_point
    assert cf.wreath_invariants_egf(r, n, K_MAX).coefficient(k) == fixed_point


@st.composite
def cyclotomic_integers(draw):
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15)))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=2 * n))
    return CycNum(n, coeffs)


def schoolbook(x: CycNum, y: CycNum, n: int) -> tuple:
    """x * y in Z[zeta_n], for conductors dividing n: the full product of the
    coefficient lists, reduced once by reduce_mod_phi."""
    a, b = x.embed(n).coeffs, y.embed(n).coeffs
    raw = [0] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            raw[i + j] += u * v
    return reduce_mod_phi(enumerate(raw), n)


@settings(max_examples=80, deadline=None)
@given(x=cyclotomic_integers(), y=cyclotomic_integers(), e=st.integers(0, 6))
def test_cyclotomic_integer_arithmetic_stays_integral(x, y, e):
    # Z[zeta_N] is a ring: sums, products, powers and conjugates of values
    # with int coefficients have int coefficients, across conductors
    m, n = x.conductor, lcm(x.conductor, y.conductor)
    power = CycNum.from_int(1)
    for _ in range(e):
        power = CycNum(m, schoolbook(power, x, m))
    for value, ring, want in ((x + y, n, None), (x - 3 * y, n, None), (x.conj(), m, None),
                              (x * y, n, schoolbook(x, y, n)),
                              (x * y.conj(), n, schoolbook(x, y.conj(), n)),
                              (x**e, m, power.embed(m).coeffs)):
        assert all(type(c) is int for c in value.coeffs)
        assert want is None or value.embed(ring).coeffs == want
    assert (x * y).conj() == x.conj() * y.conj()


@st.composite
def held_terms(draw):
    """A value held as random unreduced terms: roots added minus roots taken
    away, exponents anywhere in Z, so every residue mod n can carry a count."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 21)))
    exponents = st.lists(st.integers(-3 * n, 3 * n), max_size=3 * n)
    return CycNum.from_exponents(n, draw(exponents)) - CycNum.from_exponents(n, draw(exponents))


@settings(max_examples=80, deadline=None)
@given(x=held_terms(), y=held_terms(), a=st.integers(1, 200), e=st.integers(0, 5))
def test_arithmetic_on_terms_then_reduction_is_reduction_then_arithmetic(x, y, a, e):
    # every operation on held terms names the value the same operation on the
    # canonical vectors gives, across conductors
    cx, cy = (CycNum(v.conductor, v.coeffs) for v in (x, y))
    n = x.conductor
    a = a if gcd(a, n) == 1 else 1
    ops = {"add": lambda u, v: u + v, "sub": lambda u, v: u - 2 * v, "mul": lambda u, v: u * v,
           "neg": lambda u, v: -u, "conj": lambda u, v: u.conj() * v.conj(),
           "galois": lambda u, v: u.galois(a), "embed": lambda u, v: u.embed(3 * n),
           "pow": lambda u, v: u**e + v}
    for name, op in ops.items():
        held, reduced = op(x, y), op(cx, cy)
        assert held.conductor == reduced.conductor, name
        assert held.coeffs == reduced.coeffs, name
        assert held.is_rational() == reduced.is_rational(), name
        assert held == reduced and held.to_text() == reduced.to_text(), name


@st.composite
def abelian_step_sets(draw, max_factors=4, max_order=64, max_steps=6):
    radii = draw(st.lists(st.integers(2, 8), min_size=1, max_size=max_factors)
                 .filter(lambda radii: prod(radii) <= max_order))
    steps = draw(st.lists(st.sampled_from(abelian_elements(radii)), min_size=1, max_size=max_steps))
    return tuple(radii), steps


@settings(max_examples=25, deadline=None)
@given(abelian_step_sets())
def test_abelian_rows_are_characters_and_modules_sum_them(query):
    radii, steps = query
    g = build_cyclic(radii[0]) if len(radii) == 1 else build_abelian(radii)
    validate_group(g)
    assert _orthogonality_ok(g)
    index = {e: i for i, e in enumerate(abelian_elements(radii))}
    for b, value in zip(index, _step_spec("abelian", radii, steps).module):
        assert value == sum((g.chi(index[s], index[b]) for s in steps), CycNum(1, ()))


@settings(max_examples=40, deadline=None)
@given(abelian_step_sets(max_factors=3, max_order=48, max_steps=4))
def test_abelian_mckay_matrix_is_row_zero_translated(query):
    # chi_nu conj(chi_lam) = conj(chi_(lam - nu)), so a[nu][lam] = a[0][lam - nu];
    # row 0 is V itself, whose irreps are its steps, repeats and zero among them
    radii, steps = query
    spec = _step_spec("abelian", radii, steps)
    a = mckay_adjacency(spec.group, spec.module)
    elements = abelian_elements(radii)
    index = {e: i for i, e in enumerate(elements)}
    for nu, x in enumerate(elements):
        for lam, y in enumerate(elements):
            assert a[nu][lam] == a[0][index[tuple((b - c) % r for b, c, r in zip(y, x, radii))]]
    assert a[0] == [steps.count(e) for e in elements]


@st.composite
def circulant_queries(draw):
    r = draw(st.integers(2, 16))
    conn = sorted(draw(st.sets(st.integers(1, r - 1), min_size=1)))
    return r, conn, draw(st.integers(0, K_MAX)), draw(st.integers(0, r - 1))


@settings(max_examples=30, deadline=None)
@given(circulant_queries())
def test_circulant_multinomial_character_and_matrix_agree(query):
    r, conn, k, c = query
    spec = _circulant_spec(r, conn)
    g, v = spec.group, spec.module
    (closed,), = cf.group_ring_walks((r,), [(s,) for s in conn], range(k, k + 1), [(c,)])
    assert walk_count_character(g, v, k, 0, c) == closed
    assert power_rows(mckay_adjacency(g, v), 0, range(k, k + 1))[0][c] == closed


@settings(max_examples=20, deadline=None)
@given(circulant_queries())
def test_circulant_character_series_equals_cramer(query):
    # repeated, zero and zero-weight spectral values all occur here
    r, conn, _, _ = query
    spec = _circulant_spec(r, conn)
    g, v = spec.group, spec.module
    a = mckay_adjacency(g, v)
    for lam in range(r):
        assert poincare_character(g, v, lam) == poincare_cramer(a, lam), (r, conn, lam)


ODD_PRIMES = [p for p in range(3, 104) if is_prime(p)]


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(ODD_PRIMES), k=st.integers(0, 40), step=st.integers(1, 7), data=st.data())
def test_paley_gauss_sum_form_equals_multinomial(p, k, step, data):
    # one call for a list of targets, with repeats, negatives and values >= p,
    # read mod p; a strided range reaches k = 60
    targets = data.draw(st.lists(st.integers(-2 * p, 2 * p), max_size=8))
    steps = [(s,) for s in quadratic_residues(p)]
    ks = range(k, min(k + step * data.draw(st.integers(1, 4)), 61), step)
    assert (cf.paley_closed_form(p, ks, targets)
            == cf.group_ring_walks((p,), steps, ks, [(c % p,) for c in targets]))


@settings(max_examples=40, deadline=None)
@given(radii=st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple),
       k=st.integers(0, 10), data=st.data())
def test_abelian_multinomial_character_and_diagram_basis_agree(radii, k, data):
    spec = _product_spec(radii)
    g, v = spec.group, spec.module
    c = tuple(data.draw(st.integers(0, r - 1)) for r in radii)
    node = 0  # c's place in the character table: the last coordinate varies fastest
    for ci, r in zip(c, radii):
        node = node * r + ci
    units = [tuple(int(i == j) for i in range(len(radii))) for j in range(len(radii))]
    (walks,), = cf.group_ring_walks(radii, units, range(k, k + 1), [c])
    assert walk_count_character(g, v, k, 0, node) == walks
    # basis_count runs the same group-ring kernel, so its reference is the
    # character route over every target
    multiplicities = (walk_count_character(g, v, k, 0, t) for t in range(g.n_classes))
    assert basis_count(radii, k) == sum(m * m for m in multiplicities)


# S_n on its permutation module, three registry modules, and two
# invariant-tier groups, which serve only lambda = 0
CHARACTER_SPECS = [f"S{n}" for n in range(2, 8)] + ["Z12", "Z4xZ2", "paley(13)", "Z2wrS3", "GL2(3)"]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(CHARACTER_SPECS), big_k=st.integers(0, K_MAX), data=st.data())
def test_character_sum_consumers_agree(spec, big_k, data):
    parsed = parse_spec_full(spec)
    g, v = parsed.group, parsed.module
    lam = data.draw(st.integers(0, g.n_classes - 1)) if g.tier == FULL else 0
    ks = range(big_k + 1)
    counts, = walk_counts_character(g, v, ks, 0, [lam])
    assert counts == [walk_count_character(g, v, k, 0, lam) for k in ks]
    assert poincare_character(g, v, lam).series(big_k) == counts
    if parsed.kind == "symmetric":
        n = parsed.params["n"]
        shape = partitions_of(n)[lam]
        assert [counts] == cf.sn_irrep_dim_formula(n, ks, [shape])


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 6))
    return [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]


REGISTRY = [mckay_adjacency(spec.group, spec.module) for _, spec in builtin_specs()]


@st.composite
def power_row_queries(draw):
    """(A, frm, ks): a nonnegative digraph, n <= 7 with entries <= 3, loops
    and some rows forced to zero, and a range of k with any start, stride and
    direction, empty ranges included."""
    n = draw(st.integers(1, 7))
    zero_rows = draw(st.sets(st.integers(0, n - 1)))
    a = [[0 if i in zero_rows else draw(st.integers(0, 3)) for _ in range(n)] for i in range(n)]
    ks = range(draw(st.integers(0, 12)), draw(st.integers(-1, 12)),
               draw(st.sampled_from((1, 2, 3, -1, -2, -5))))
    return a, draw(st.integers(0, n - 1)), ks


@settings(max_examples=150, deadline=None)
@given(power_row_queries())
def test_power_rows_equal_rows_of_repeated_squaring(query):
    a, frm, ks = query
    assert power_rows(a, frm, ks) == [mat_pow(a, k)[frm] for k in ks]


@settings(max_examples=60, deadline=None)
@given(rows=st.one_of(digraphs(), st.sampled_from(REGISTRY)), data=st.data())
def test_cramer_numerators_equal_literal_cramer(rows, data):
    n = len(rows)
    sources = range(n) if n <= 6 else [data.draw(st.integers(0, n - 1))]
    for source in sources:
        den, nums = cramer_numerators(rows, source)
        assert [RatFunc(num, den) for num in nums] == [
            walk_generating_function(rows, source, lam) for lam in range(n)]


# -- the elimination kernel against the Leibniz expansion ---------------------


def leibniz_det(m):
    """Oracle: sum over permutations of sign * product, over Z[t]."""
    total = Polynomial()
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = Polynomial((-1 if inversions % 2 else 1,))
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


@st.composite
def polynomial_systems(draw):
    """(matrix, rhs) over Z[t]: n <= 5, degree <= 3, coefficients up to
    +-10^12 or small enough to cancel, with a zero row or a first column that
    forces row swaps drawn on purpose."""
    n = draw(st.integers(1, 5))
    size = draw(st.sampled_from((2, 10**12)))
    entry = st.lists(st.integers(-size, size), max_size=4).map(Polynomial)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entry) for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "zero row", "swaps")))
    if shape == "zero row":
        m[draw(st.integers(0, n - 1))] = [Polynomial()] * n
    elif shape == "swaps":
        for row in m[:-1]:
            row[0] = Polynomial()
    return m, rhs


@settings(max_examples=150, deadline=None)
@given(polynomial_systems())
def test_kernel_equals_leibniz_expansion(system):
    m, rhs = system
    det = leibniz_det(m)
    assert poly_det(m) == det
    if det.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_solve(m, rhs)
        return
    nums = [leibniz_det([row[:j] + [b] + row[j + 1:] for row, b in zip(m, rhs)])
            for j in range(len(m))]
    assert poly_solve(m, rhs) == (det, nums)


# -- RatFunc over Z[t]: one printed form for every representation -------------


int_polys = st.lists(st.integers(-9, 9), max_size=4).map(Polynomial)


@settings(max_examples=100, deadline=None)
@given(p=int_polys, q=int_polys.filter(lambda q: not q.is_zero()),
       r=st.builds(lambda r0, rest: Polynomial((r0, *rest)),
                   st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=3)))
def test_ratfunc_cancels_a_common_factor_to_one_primitive_form(p, q, r):
    rf = RatFunc(p * q, r * q)
    assert rf == RatFunc(p, r)
    assert rf.num * r == rf.den * p
    assert rf.den.coefficient(0) == 1
    assert gcd(*rf.num.coeffs, *rf.den.coeffs) == 1
    # the series of p / r, dividing by r(0) = +-1 at each step
    want = []
    for k in range(8):
        acc = p.coefficient(k) - sum(r.coefficient(j) * want[k - j] for j in range(1, k + 1))
        want.append(acc * r.coefficient(0))
    assert rf.series(7) == want


# -- the certified ring map against plain cyclotomic arithmetic ---------------


@settings(max_examples=30, deadline=None)
@given(entry=st.sampled_from(builtin_specs()), k=st.integers(0, 8))
def test_ring_map_equals_plain_sums_on_registry_modules(entry, k):
    _, spec = entry
    g, v = spec.group, spec.module
    counts = character_walk_counts(g, v, k)
    for nu in range(g.n_classes):
        for lam in range(g.n_classes):
            plain = sum((c.size * x**k * g.chi(nu, mu) * g.chi(lam, mu).conj()
                         for mu, (c, x) in enumerate(zip(g.classes, v))), CycNum(1, ()))
            assert plain.as_integer() == counts[nu][lam] * g.order, (nu, lam)
            assert walk_count_character(g, v, k, nu, lam) == counts[nu][lam], (nu, lam)


@st.composite
def galois_stable_forms(draw):
    """Columns (a0, a1, x) over Z[zeta_n] and their int weights: the Galois
    orbits of a few random columns, each orbit at one weight."""
    n = draw(st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15]))
    phi = euler_phi(n)
    values = st.lists(st.integers(-4, 4), min_size=phi, max_size=phi).map(lambda c: CycNum(n, c))
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    columns, weights = [], []
    for _ in range(draw(st.integers(1, 3))):
        column, w = (draw(values), draw(values), draw(values)), draw(st.integers(-9, 9))
        columns += [tuple(v.galois(u) for v in column) for u in units]
        weights += [w] * len(units)
    return columns, weights


@settings(max_examples=60, deadline=None)
@given(forms=galois_stable_forms(), start=st.integers(0, 12), length=st.integers(0, 6),
       step=st.integers(1, 3))
def test_ring_map_equals_plain_sums_on_galois_stable_forms(forms, start, length, step):
    # sum_c w_c x_c^k a_ci conj(a_cj) over the columns (a_c0, a_c1, x_c), for
    # each (i, j) in {0, 1}^2 and for no j: a strided range of k, and orbits
    # that repeat a column merge their weights
    columns, weights = forms
    ks = range(start, start + step * length, step)
    for left, right in [([i], [j]) for i in (0, 1) for j in (0, 1)] + [([0], [])]:
        plain = [[[sum((w * col[-1] ** k * col[i] * col[j].conj() for col, w in zip(columns, weights)),
                       CycNum(1, ())).as_integer() for j in right] for i in left] for k in ks]
        assert class_sums(columns, weights, ks, left, right) == plain, (left, right)
    # one more copy of an irrational column leaves the table Galois-incomplete
    extra = next((col for col in columns if not all(v.is_rational() for v in col)), None)
    if extra is not None:
        with pytest.raises(ConsistencyError, match="Galois-incomplete"):
            class_sums(columns + [extra], weights + [1], ks, [0], [0])


# ---------------------------------------------------------------------------
# The command line: the reader of well-formed lines and the JSON writer
# ---------------------------------------------------------------------------

# values for any option: good and bad ints, choices and others, and words
# that argparse reads specially
VALUES = ("Z10", "S4", "0", "3", "03", " 2", "-1", "x", "", "auto", "closed", "nope",
          "cramer", "dot", "(3, 1)", "1,0", "all", "--", "-h", "a b", "walks")


def good_values(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is int:
        return st.sampled_from(("0", "3", "12", " 7"))
    return st.sampled_from(("Z10", "S4", "(3, 1)", "1,0", "all", "", "a b"))


@st.composite
def well_formed_lines(draw):
    """A verb, its required options and some others, each once, in any order."""
    verb = draw(st.sampled_from(tuple(VERBS)))
    pairs = []
    for flag, kwargs in VERBS[verb][2]:
        if kwargs.get("required") or draw(st.booleans()):
            pairs.append([flag] if kwargs.get("action") == "store_true"
                         else [flag, draw(good_values(kwargs))])
    return [verb, *(word for pair in draw(st.permutations(pairs)) for word in pair)]


@st.composite
def command_lines(draw):
    """A well-formed line with a few words inserted, dropped or replaced:
    flags, abbreviations, --opt=value forms, help, "--", other verbs."""
    argv = draw(well_formed_lines())
    flags = st.sampled_from([flag for flag, _ in VERBS[argv[0]][2]])
    word = st.one_of(flags, st.sampled_from(VALUES), flags.map(lambda f: f[:4]),
                     st.builds("{}={}".format, flags, st.sampled_from(VALUES)),
                     st.sampled_from(("-h", "--help", "--", "bogus", "verify")))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "drop", "replace")))
        if edit == "insert":
            argv.insert(i, draw(word))
        elif i < len(argv) and edit == "drop":
            del argv[i]
        elif i < len(argv):
            argv[i] = draw(word)
    return argv


def parse_outcome(parse, argv):
    """The namespace as a dict, or the exit code and what was printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
def test_command_lines_parse_as_argparse_parses_them(argv):
    assert parse_outcome(parse_args, argv) == parse_outcome(build_parser().parse_args, argv)


@settings(max_examples=100, deadline=None)
@given(argv=well_formed_lines())
def test_reader_takes_every_well_formed_line(argv):
    args = _read(argv[0], argv[1:])
    assert args is not None and vars(args) == vars(build_parser().parse_args(argv))


TRICKY = ('"', "\\", "\x7f", "\x00", "\n", 'a"b', "\u00e9", "\u2028", "\ud800", "")
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**60, 10**60),
                    st.sampled_from((10**40, -(7**70), 2**200)), st.floats(), st.text(),
                    st.sampled_from(TRICKY))
keys = st.one_of(st.text(max_size=4), st.sampled_from(TRICKY), st.integers(), st.booleans(),
                 st.none())
payloads = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    st.dictionaries(keys, inner, max_size=3)), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(x=payloads)
def test_json_writer_is_json_dumps_with_indent_2(x):
    assert _dumps(x) == json.dumps(x, indent=2)
