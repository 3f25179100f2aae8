import time
from math import factorial

import pytest

from tensorwalks import groups
from tensorwalks.combinatorics import multipartition_count
from tensorwalks.cyclotomic import root_of_unity
from tensorwalks.errors import SpecError
from tensorwalks.groups import (
    FULL,
    INVARIANT,
    WREATH_LIMIT,
    GroupData,
    both_modules_gl2,
    both_modules_sl2,
    build_abelian,
    build_cyclic,
    build_gl2,
    build_sl2,
    build_symmetric,
    build_wreath_invariant,
    circulant_module,
    coordinate_module,
    monomial_module,
    murnaghan_nakayama,
    paley_module,
    parse_spec_full,
    permutation_module,
    standard_module_cyclic,
)
from tensorwalks.verify import builtin_specs

from oracles import validate_group

S4_TABLE = {
    "(4,)": [1, 1, 1, 1, 1],
    "(3, 1)": [3, 1, -1, 0, -1],
    "(2, 2)": [2, 0, 2, -1, 0],
    "(2, 1, 1)": [3, -1, -1, 0, 1],
    "(1, 1, 1, 1)": [1, -1, 1, 1, -1],
}


def test_cyclic_group():
    g = build_cyclic(10)
    validate_group(g)
    assert g.order == 10 and g.tier == FULL
    v = standard_module_cyclic(10)
    assert v[0] == 2
    assert v[1] == root_of_unity(10, 1) + root_of_unity(10, 9)
    assert all(x == x.conj() for x in v)
    with pytest.raises(ValueError):
        build_cyclic(1)


def test_cyclic_z2():
    g = build_cyclic(2)
    assert [[g.chi(a, b).as_integer() for b in range(2)] for a in range(2)] == [[1, 1], [1, -1]]


def test_abelian_group():
    g = build_abelian([4, 2])
    validate_group(g)
    assert g.order == 8 and g.n_classes == 8 and g.conductor == 4
    v = coordinate_module([4, 2])
    idx = [c.label for c in g.classes].index("(1, 1)")
    assert v[idx] == root_of_unity(4, 1) - 1
    assert any(x != x.conj() for x in v)
    with pytest.raises(ValueError):
        build_abelian([])


def test_abelian_single_factor_matches_cyclic():
    g = build_abelian([2])
    g2 = build_cyclic(2)
    assert g.order == g2.order and g.n_classes == g2.n_classes
    assert all(
        g.chi(a, b) == g2.chi(a, b) for a in range(2) for b in range(2)
    )
    v = coordinate_module([2])
    assert v[0] == 1  # one-summand module


def test_hypercube_character_values():
    v = coordinate_module([2, 2, 2])
    vals = sorted(x.as_integer() for x in v)
    assert vals == [-3, -1, -1, -1, 1, 1, 1, 3]


def test_symmetric_table_matches_reference():
    g = build_symmetric(4)
    validate_group(g)
    for i, info in enumerate(g.irreps):
        row = [g.chi(i, j).as_integer() for j in range(5)]
        assert row == S4_TABLE[info.label]
    assert g.class_sizes() == [1, 6, 3, 8, 6]
    assert g.conductor == 1


def test_symmetric_structure():
    for n in (2, 3, 5, 6):
        g = build_symmetric(n)
        validate_group(g)
        # trivial row all ones; sign row alternates with parity of the class
        classes = [eval(c.label) for c in g.classes]
        sign_index = g.irrep_index(str((1,) * n))
        for j, mu in enumerate(classes):
            assert g.chi(0, j) == 1
            assert g.chi(sign_index, j).as_integer() == (-1) ** (n - len(mu))
    with pytest.raises(ValueError):
        build_symmetric(13)


def test_murnaghan_nakayama_cache_hits_are_consistent():
    assert murnaghan_nakayama((3, 1), (2, 1, 1)) == 1
    assert murnaghan_nakayama((2, 2), (3, 1)) == -1
    assert murnaghan_nakayama((), ()) == 1


def test_larger_symmetric_tables_stay_orthogonal():
    # orthogonality is a complete consistency check on the recursion
    from tensorwalks.verify import _orthogonality_ok

    for n in (6, 7, 8):
        g = build_symmetric(n)
        validate_group(g)
        assert _orthogonality_ok(g), n


def test_desk_scale_boundary():
    g = build_symmetric(12)
    assert g.n_classes == 77
    assert sum(g.chi(i, 0).as_integer() ** 2 for i in range(g.n_classes)) == factorial(12)
    # hook-length check on one well-known dimension
    assert g.chi(g.irrep_index(str((11, 1))), 0) == 11


def _hook_dim(lam):
    n = sum(lam)
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            cols[j] += 1
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(n) // prod


def test_dimensions_match_hook_length_formula():
    # independent oracle for the identity column of the recursion-built
    # table, which carries the dimensions
    from tensorwalks.combinatorics import partitions_of

    for n in range(2, 13):
        g = build_symmetric(n)
        for i, lam in enumerate(partitions_of(n)):
            assert g.chi(i, 0).as_integer() == _hook_dim(lam), (n, lam)


def test_permutation_module_counts_fixed_points():
    v = permutation_module(4)
    assert [x.as_integer() for x in v] == [4, 2, 0, 1, 0]
    assert all(x == x.conj() for x in v)


def test_orthogonality_for_all_builtins():
    from tensorwalks.verify import _orthogonality_ok

    for name, spec in builtin_specs():
        g = spec.group
        assert _orthogonality_ok(g), name
        assert sum(c.size for c in g.classes) == g.order, name
        assert g.classes[0].size == 1, name
        assert sum(g.chi(i, 0).as_integer() ** 2 for i in range(g.n_classes)) == g.order, name


def test_orthogonality_rejects_corrupted_tables():
    from tensorwalks.verify import _orthogonality_ok

    z6 = build_cyclic(6)
    row = z6.row(1)
    # zeta^2 replaced by its conjugate at one class of one row
    bad_value = GroupData(z6.name, z6.order, z6.classes, z6.conductor, z6.irreps,
                          lambda i: row[:2] + (row[2].conj(),) + row[3:] if i == 1 else z6.row(i))
    assert not _orthogonality_ok(bad_value)
    s4 = build_symmetric(4)
    classes = list(s4.classes)
    classes[1], classes[2] = classes[1]._replace(size=3), classes[2]._replace(size=6)
    bad_sizes = GroupData(s4.name, s4.order, tuple(classes), s4.conductor, s4.irreps,
                          s4.row)
    assert not _orthogonality_ok(bad_sizes)


def test_wreath_group():
    g = build_wreath_invariant(2, 2)
    assert g.tier == INVARIANT and g.order == 8 and g.n_classes == 5
    assert sum(g.class_sizes()) == 8
    assert g.classes[0].size == 1
    v = monomial_module(2, 2)
    assert v[0] == 2
    assert all(x == x.conj() for x in v)  # entries are signs
    v1 = monomial_module(2, 1)
    assert sorted(x.as_integer() for x in v1) == [-1, 1]


def test_tier_is_whether_irreps_are_given():
    from tensorwalks.cyclotomic import CycNum
    from tensorwalks.errors import UnsupportedQueryError
    from tensorwalks.groups import ClassInfo, IrrepInfo

    classes = (ClassInfo("e", 1), ClassInfo("g", 1))
    g = GroupData("G", 2, classes, 1)
    assert g.tier == INVARIANT and g.irreps is None
    # a one-row table: node 0 is all ones, and it is built once
    assert g.row(0) == (CycNum.from_int(1),) * 2 and g.row(0) is g.row(0)
    assert g.chi(0, 1) == 1
    with pytest.raises(UnsupportedQueryError, match="group G carries invariant-only data"):
        g.row(1)
    with pytest.raises(UnsupportedQueryError):
        g.chi(1, 0)
    sign = (IrrepInfo("1"), IrrepInfo("s"))
    h = GroupData("Z2", 2, classes, 1, sign, lambda i: tuple(CycNum.from_int(1 - 2 * i * c)
                                                              for c in (0, 1)))
    assert h.tier == FULL and h.chi(1, 1) == -1
    with pytest.raises(TypeError):
        GroupData("G", 2, classes, 1, sign)
    with pytest.raises(TypeError):
        GroupData("G", 2, classes, 1, row=h.row)


def test_wreath_identity_value_is_n():
    for r, n in ((2, 3), (3, 2), (4, 2)):
        v = monomial_module(r, n)
        assert v[0].as_integer() == n


def test_wreath_r3_character_value():
    spec = parse_spec_full("Z3wrS2")
    g, v = spec.group, spec.module
    labels = [c.label for c in g.classes]
    idx = labels.index(str(((1,), (1,), ())))
    assert v[idx] == 1 + root_of_unity(3, 1)


def test_gl2_class_accounting():
    g = build_gl2(3)
    assert g.order == 48
    by_family = {}
    for c in g.classes:
        by_family.setdefault(c.label.split("(")[0], []).append(c.size)
    assert len(by_family["a"]) == 2 and by_family["a"] == [1, 1]
    assert len(by_family["b"]) == 2 and set(by_family["b"]) == {8}
    assert len(by_family["c"]) == 1 and by_family["c"] == [12]
    assert len(by_family["d"]) == 3 and set(by_family["d"]) == {6}
    assert sum(g.class_sizes()) == 48


def test_gl2_module_values():
    v, st = both_modules_gl2(5)
    assert v[0].as_integer() == 6  # q + 1 on the identity
    assert st[0].as_integer() == 5
    assert all(x == x.conj() for x in v + st)


def test_sl2_class_accounting():
    g = build_sl2(3)
    assert g.order == 24
    assert g.n_classes == 7  # q + 4
    assert sum(g.class_sizes()) == 24
    _, st = both_modules_sl2(3)
    assert sorted(x.as_integer() for x in st) == sorted([3, 3, 0, 0, 0, 0, -1])


def test_gl2_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_gl2(4)
    with pytest.raises(ValueError):
        build_gl2(6)
    with pytest.raises(ValueError):
        build_sl2(15)
    build_gl2(9)  # odd prime power is fine


def test_linear_specs_refuse_large_fields_before_factoring(monkeypatch):
    real = groups.prime_power_base

    def small_only(q):
        assert q <= 13, f"factored q = {q}"
        return real(q)

    monkeypatch.setattr(groups, "prime_power_base", small_only)
    for text in ("GL2(15)", "SL2(17)", "GL2(1000000000000000003)", "SL2(1000000000000000003)"):
        with pytest.raises(SpecError, match="above 13"):
            parse_spec_full(text)
    with pytest.raises(SpecError, match="odd prime power, got 4"):
        parse_spec_full("GL2(4)")


def test_wreath_specs_refuse_before_enumerating(monkeypatch):
    def unbuilt(r, n):
        raise AssertionError(f"enumerated Z{r}wrS{n}")

    monkeypatch.setattr(groups, "_wreath_classes", unbuilt)
    for text in ("Z30wrS8", "Z900wrS2", "Z1000wrS2", "Z1000000000000wrS1", "Z12wrS8", "Z2237wrS1"):
        start = time.perf_counter()
        with pytest.raises(SpecError, match=f"at most {WREATH_LIMIT}"):
            parse_spec_full(text)
        assert time.perf_counter() - start < 0.5, text


def test_wreath_limit_counts_classes_times_r():
    # one slot past the largest accepted r of each degree n is refused
    largest = {}
    for n in range(1, 9):
        largest[n] = max(r for r in range(2, 3000) if multipartition_count(n, r) * r <= WREATH_LIMIT)
        with pytest.raises(ValueError, match="too large"):
            build_wreath_invariant(largest[n] + 1, n)
    assert largest == {1: 2236, 2: 214, 3: 71, 4: 37, 5: 24, 6: 18, 7: 14, 8: 11}


def test_circulant_and_paley_modules():
    from tensorwalks.numbertheory import quadratic_residues

    assert quadratic_residues(13) == [1, 3, 4, 9, 10, 12]
    assert quadratic_residues(7) == [1, 2, 4]
    assert paley_module(7)[0].as_integer() == 3
    m5 = circulant_module(5, [1, 4])
    std = standard_module_cyclic(5)
    assert all(a == b for a, b in zip(m5, std))
    with pytest.raises(ValueError):
        circulant_module(5, [0])
    with pytest.raises(ValueError):
        circulant_module(5, [5])
    with pytest.raises(ValueError):
        paley_module(9)


@pytest.mark.parametrize("text, steps", [("Z1001", 2), ("hypercube(12)", 12), ("paley(199)", 99)])
def test_step_specs_reduce_one_term_per_step(monkeypatch, text, steps):
    # each value of an abelian spec is held as the sum of its steps' roots, at
    # most one term per step, and neither parsing nor the module build reduces
    from tensorwalks import cyclotomic

    def refuse(terms, n):
        raise AssertionError(f"{text} reduced a value")

    monkeypatch.setattr(cyclotomic, "reduce_mod_phi", refuse)
    spec = parse_spec_full(text)
    module = spec.module
    assert len(module) == spec.group.order, text
    assert max(len(x.terms) for x in module) <= steps, text
    assert {sum(c for _, c in x.terms) for x in module} == {steps}, text
    assert spec.module is module, text  # a second read builds nothing


def test_spec_builds_its_module_without_its_group_and_reads_steinberg_from_params(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("built a group")

    for text in ("Z10", "Z4xZ2", "hypercube(3)", "circulant(10;1,9)", "paley(13)", "S4",
                 "Z2wrS3", "GL2(3)", "SL2(5)@steinberg"):
        spec = parse_spec_full(text)
        with monkeypatch.context() as m:
            m.setattr(groups, "GroupData", unbuilt)
            module = spec.module
        assert spec.module is module and spec.group is spec.group, text
        assert len(module) == spec.group.n_classes, text
        assert spec.name == spec.group.name, text
        assert spec.steinberg == text.endswith("@steinberg"), text


def test_parser_valid_specs():
    spec = parse_spec_full("Z4xZ2")
    assert spec.group.name == "Z4xZ2" and spec.module[0] == 2
    spec = parse_spec_full(" Z10 ")
    assert spec.group.name == "Z10" and spec.module[0] == 2
    spec = parse_spec_full("SL2(3)@steinberg")
    assert spec.steinberg and spec.module[0] == 3
    assert parse_spec_full("SL2(5)@steinberg").params == {"q": 5, "which": "steinberg"}
    spec = parse_spec_full("hypercube(3)")
    assert spec.group.order == 8 and spec.module[0] == 3
    spec = parse_spec_full("Z2wrS2")
    assert spec.group.order == 8
    spec = parse_spec_full("circulant(10; 1, 9)")
    assert spec.module[0] == 2
    spec = parse_spec_full("paley(13)")
    assert spec.module[0] == 6
    spec = parse_spec_full("GL2(3)")
    assert spec.module[0] == 4
    spec = parse_spec_full("S4")
    assert spec.group.order == 24


def test_parser_whitespace_insensitive():
    g1 = parse_spec_full("Z4xZ2").group
    g2 = parse_spec_full("Z 4 x Z 2").group
    assert g1.name == g2.name


def test_irrep_labels_are_whitespace_insensitive():
    for spec in ("Z10", "Z4xZ2", "hypercube(3)", "circulant(6;1,5)", "paley(13)", "S4", "S8"):
        g = parse_spec_full(spec).group
        packed = ["".join(info.label.split()) for info in g.irreps]
        assert len(set(packed)) == len(packed), spec
        for i, label in enumerate(packed):
            assert g.irrep_index(label) == i
            assert g.irrep_index(f" {label.replace(',', ' , ')} ") == i
    with pytest.raises(KeyError):
        g.irrep_index("(7,2)")


def test_parser_errors_carry_positions():
    with pytest.raises(SpecError) as exc:
        parse_spec_full("Z4yZ2")
    assert exc.value.position == 2
    with pytest.raises(SpecError):
        parse_spec_full("paley(9)")
    with pytest.raises(SpecError):
        parse_spec_full("bogus")
    with pytest.raises(SpecError):
        parse_spec_full("S4@steinberg")
    with pytest.raises(SpecError):
        parse_spec_full("GL2(4)")
    with pytest.raises(SpecError):
        parse_spec_full("circulant(5;7)")
    with pytest.raises(SpecError) as exc:
        parse_spec_full("Z4xZ2 trailing")
    assert exc.value.position is not None


@pytest.mark.parametrize("text, message", [
    ("Z1", "cyclic order must be at least 2"),
    ("Z2xZ1", "each factor must have order at least 2"),
    ("Z2048", "abelian group too large to enumerate: |G| * (phi(lcm of the orders) + "
              "number of factors) must be at most 2097152"),
    ("hypercube(0)", "hypercube dimension must be positive"),
    ("circulant(1;1)", "circulant modulus must be at least 2"),
    ("circulant(5;7)", "connection residue 7 out of range 1..4"),
    ("paley(9)", "Paley parameter must be an odd prime, got 9"),
    ("S13", "symmetric group supported for 2 <= n <= 12"),
    ("Z1wrS2", "wreath cyclic order must be at least 2"),
    ("Z2wrS9", "wreath symmetric degree supported for 1 <= n <= 8"),
    ("Z30wrS8", "wreath product too large to enumerate: its number of classes times r "
                "must be at most 5000000"),
    ("GL2(15)", "field sizes above 13 not supported at desk scale"),
    ("SL2(4)", "field size must be an odd prime power, got 4"),
    ("Z5@steinberg", "@steinberg applies only to GL2/SL2 specs"),
])
def test_each_refusal_keeps_its_wording(text, message):
    with pytest.raises(SpecError) as exc:
        parse_spec_full(text)
    assert str(exc.value) == message and exc.value.position is None


@pytest.mark.parametrize("build, args, message", [
    (coordinate_module, ((),), "need at least one cyclic factor"),
    (circulant_module, (5, []), "connection set must be nonempty"),
])
def test_library_refusals_keep_their_wording(build, args, message):
    with pytest.raises(ValueError) as exc:
        build(*args)
    assert str(exc.value) == message


def test_group_serialization_roundtrip(capsys):
    import json

    from tensorwalks.cli import main

    assert main(["group", "--group", "Z4xZ2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "Z4xZ2"
    assert doc["order"] == "8"
    assert len(doc["classes"]) == 8
    assert all("conductor=" in s for s in doc["chi_V"])
