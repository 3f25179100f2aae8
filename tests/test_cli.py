import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tensorwalks.cli import VERBS, build_parser, main, parse_args
from test_golden import CORPUS, corpus_argv, corpus_line

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_walks_z10(capsys):
    doc = run_json(capsys, "walks", "--group", "Z10", "--k", "6", "--from", "0", "--to", "8")
    assert doc["count"] == "15"
    assert set(doc["methods"]) == {"matrix", "character", "closed:binomial"}


def test_walks_methods_individually(capsys):
    for method in ("matrix", "character", "closed"):
        doc = run_json(capsys, "walks", "--group", "Z10", "--k", "12",
                       "--from", "0", "--to", "0", "--method", method)
        assert doc["count"] == "948"


def test_walks_by_label(capsys):
    doc = run_json(capsys, "walks", "--group", "S4", "--k", "2",
                   "--from", "(4,)", "--to", "(3, 1)")
    assert doc["count"] == "3"


def test_walks_paley_auto(capsys):
    doc = run_json(capsys, "walks", "--group", "paley(13)", "--k", "2", "--to", "1")
    assert doc["count"] == "2"
    assert "closed:gauss-sum" in doc["methods"]


# (spec, from, to, count at k = 5, routes run by --method auto); matrix and
# character each run alone, closed runs the "closed:" routes of auto
ROUTE_CASES = [
    ("Z10", "0", "3", "5", ["matrix", "character", "closed:binomial"]),
    ("Z4xZ3", "1", "7", "10", ["matrix", "character", "closed:multinomial"]),
    ("hypercube(3)", "2", "5", "60", ["matrix", "character", "closed:multinomial"]),
    ("circulant(10;1,3,7,9)", "0", "4", "0", ["matrix", "character", "closed:multinomial"]),
    ("paley(13)", "0", "1", "610",
     ["matrix", "character", "closed:multinomial", "closed:gauss-sum"]),
    ("S4", "0", "2", "85", ["matrix", "character", "closed:stirling-kostka"]),
    ("S4", "1", "2", "256", ["matrix", "character"]),
    ("GL2(3)", "0", "0", "51", ["character", "closed:linear-group"]),
    ("SL2(5)@steinberg", "0", "0", "52", ["character", "closed:linear-group"]),
    ("Z2wrS3", "0", "0", "0", ["character", "closed:wreath"]),
    ("Z2wrS3", "0", "1", None, []),
]


@pytest.mark.parametrize("method", ("auto", "matrix", "character", "closed"))
@pytest.mark.parametrize("spec,frm,to,count,auto", ROUTE_CASES,
                         ids=[f"{c[0]}:{c[1]}->{c[2]}" for c in ROUTE_CASES])
def test_walks_route_selection(capsys, method, spec, frm, to, count, auto):
    if method == "auto":
        want = auto
    elif method == "closed":
        want = [m for m in auto if m.startswith("closed:")]
    else:
        want = [m for m in auto if m == method]
    code, out, err = run(capsys, "walks", "--group", spec, "--k", "5",
                         "--from", frm, "--to", to, "--method", method)
    if not want:
        assert code == 3 and out == "", err
        return
    assert code == 0, err
    doc = json.loads(out)
    assert doc["methods"] == want and doc["count"] == count


@pytest.mark.parametrize("spec,counts", [
    ("Z10", ["1", "0", "2", "0", "6", "0", "20"]),        # full tier
    ("GL2(3)", ["1", "1", "2", "5", "15", "51", "187"]),   # invariant tier
])
def test_invariants_never_build_a_matrix(capsys, monkeypatch, spec, counts):
    import tensorwalks.routes as routes_mod

    def forbidden(*args):
        raise AssertionError("the matrix route ran")

    monkeypatch.setattr(routes_mod, "mckay_adjacency", forbidden)
    monkeypatch.setattr(routes_mod, "power_rows", forbidden)
    doc = run_json(capsys, "invariants", "--group", spec, "--k", "6")
    assert doc["counts"] == counts
    # the stubs sit where the matrix route calls them
    with pytest.raises(AssertionError):
        main(["walks", "--group", "Z10", "--k", "6", "--method", "matrix"])


REFUSED_SPECS = ("Z30wrS8", "Z1000wrS2", "Z1000000000000wrS1", "GL2(1000000000000000003)",
                 "SL2(1000000000000000003)", "GL2(15)", "GL2(4)", "hypercube(17)", "Z2048",
                 "S13", "paley(9)", "circulant(5;7)")
MODULE_FREE_QUERIES = (
    ("walks", "--group", "Z1001", "--k", "5", "--to", "3", "--method", "closed"),
    ("walks", "--group", "hypercube(12)", "--k", "4", "--to", "5", "--method", "closed"),
    ("egf", "--group", "Z4wrS6", "--order", "26"),
    ("egf", "--group", "hypercube(3)", "--order", "10"),
    ("poincare", "--group", "GL2(5)@steinberg", "--method", "paper"),
    ("diagalg", "--group", "hypercube(3)", "--k", "4"),
)


def test_nothing_reads_a_module_it_does_not_need(capsys, monkeypatch):
    # refusals and closed-form queries read a spec's params and group only
    from tensorwalks.groups import ParsedSpec, parse_spec_full

    queries = [("invariants", "--group", spec, "--k", "2") for spec in REFUSED_SPECS]
    queries += MODULE_FREE_QUERIES
    unpatched = [run(capsys, *argv) for argv in queries]

    def forbidden(self):
        raise AssertionError(f"the module of a {self.kind} spec was read")

    monkeypatch.setattr(ParsedSpec, "module", property(forbidden))
    for argv, want in zip(queries, unpatched):
        assert run(capsys, *argv) == want, argv
        assert want[0] == (2 if argv[2] in REFUSED_SPECS else 0), (argv, want)
    for text in ("Z10", "Z4xZ2", "hypercube(3)", "circulant(10;1,9)", "paley(13)", "S4",
                 "Z2wrS3", "GL2(3)", "SL2(5)@steinberg"):
        parse_spec_full(text)


def test_nothing_builds_a_group_it_does_not_need(capsys, monkeypatch):
    # every refusal runs on params alone, and egf and diagalg print the
    # spec's name: none of them builds the group or reads the module
    from tensorwalks.groups import ParsedSpec

    refused = REFUSED_SPECS + ("circulant(1;1)", "Z1", "Z2xZ1", "Z1wrS2", "Z2wrS9")
    queries = [(verb, "--group", spec, *rest) for spec in refused
               for verb, *rest in (("invariants", "--k", "2"), ("egf", "--order", "3"),
                                   ("diagalg", "--k", "2"),
                                   ("walks", "--k", "2", "--method", "closed"))]
    built_free = [("egf", "--group", "Z4wrS6", "--order", "26"),
                  ("egf", "--group", "hypercube(3)", "--order", "10"),
                  ("egf", "--group", "Z4xZ2", "--order", "8", "--target", "1,1"),
                  ("diagalg", "--group", "hypercube(3)", "--k", "4"),
                  ("diagalg", "--group", "hypercube(3)", "--k", "2", "--list"),
                  ("walks", "--group", "hypercube(12)", "--k", "4", "--to", "5", "--method", "closed"),
                  ("walks", "--group", "Z1001", "--k", "5", "--to", "3", "--method", "closed")]
    unpatched = {argv: run(capsys, *argv) for argv in queries + built_free}

    def forbidden(self):
        raise AssertionError(f"the group or module of a {self.kind} spec was read")

    monkeypatch.setattr(ParsedSpec, "group", property(forbidden))
    monkeypatch.setattr(ParsedSpec, "module", property(forbidden))
    for argv in queries:
        code, out, err = unpatched[argv]
        assert code == 2 and out == "" and err.startswith("error: "), (argv, err)
        assert run(capsys, *argv) == (code, out, err), argv
    for argv in built_free:
        code, out, _ = unpatched[argv]
        assert code == 0 and out, argv
        assert run(capsys, *argv) == unpatched[argv], argv


def test_walks_auto_skips_the_matrix_route_above_the_node_bound(capsys):
    from tensorwalks.cli import AUTO_MATRIX_NODES

    start = time.perf_counter()
    doc = run_json(capsys, "walks", "--group", "Z1001", "--k", "5", "--to", "3")
    assert time.perf_counter() - start < 2
    assert doc["count"] == "5" and doc["methods"] == ["character", "closed:binomial"]
    # at the bound the matrix route still runs; one node past it, auto leaves
    # it out and agrees with an explicit --method matrix
    assert AUTO_MATRIX_NODES == 2**7
    doc = run_json(capsys, "walks", "--group", "hypercube(7)", "--k", "6", "--to", "3")
    assert doc["methods"] == ["matrix", "character", "closed:multinomial"]
    spec = f"Z{AUTO_MATRIX_NODES + 1}"
    auto = run_json(capsys, "walks", "--group", spec, "--k", "9", "--to", "5")
    matrix = run_json(capsys, "walks", "--group", spec, "--k", "9", "--to", "5", "--method", "matrix")
    assert auto["methods"] == ["character", "closed:binomial"] and matrix["methods"] == ["matrix"]
    assert auto["count"] == matrix["count"] == "36"  # C(9, 2): 7 steps up, 2 down


def test_invariants_call_the_kernel_once(capsys, monkeypatch):
    # the character route's whole sequence is one certified evaluation
    import tensorwalks.quiver as quiver_mod

    calls = []
    real = quiver_mod.class_sums

    def counting(columns, weights, ks, left, right):
        calls.append((ks, left, right))
        return real(columns, weights, ks, left, right)

    monkeypatch.setattr(quiver_mod, "class_sums", counting)
    for spec in ("Z4wrS5", "GL2(3)", "S6", "Z4xZ2"):
        calls.clear()
        doc = run_json(capsys, "invariants", "--group", spec, "--k", "28")
        assert len(doc["counts"]) == 29
        assert calls == [(range(29), [0], [0])], spec


def test_matrix_route_takes_every_k_from_one_power_rows_call(monkeypatch):
    # and each route runs once for all the targets of a call
    from collections import Counter

    import tensorwalks.closedforms as cf_mod
    import tensorwalks.quiver as quiver_mod
    import tensorwalks.routes as routes_mod
    from tensorwalks.closedforms import cyclic_walks
    from tensorwalks.errors import ConsistencyError
    from tensorwalks.groups import parse_spec_full

    calls = []
    real = routes_mod.power_rows

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(routes_mod, "power_rows", counting)
    results = routes_mod.walk_routes(parse_spec_full("Z10"), range(7), 0, [2], ("matrix",))
    assert results == [[("matrix", cyclic_walks(10, range(7), 0, [2])[0])]]
    assert calls == [(0, range(7))]
    monkeypatch.undo()

    spec = parse_spec_full("Z4xZ2")
    ks, targets = range(7), range(spec.group.n_classes)
    one_target = [routes_mod.walk_routes(spec, ks, 0, [to], routes_mod.ROUTES)[0] for to in targets]
    adjacency = routes_mod.mckay_adjacency(spec.group, spec.module)  # its own class sum, not counted
    counts = Counter()

    def counted(name, body):
        def wrapper(*args):
            counts[name] += 1
            return body(*args)
        return wrapper

    monkeypatch.setattr(routes_mod, "mckay_adjacency", counted("mckay_adjacency", lambda g, v: adjacency))
    monkeypatch.setattr(routes_mod, "power_rows", counted("power_rows", real))
    monkeypatch.setattr(quiver_mod, "_character_sums",
                        counted("_character_sums", quiver_mod._character_sums))
    monkeypatch.setattr(cf_mod, "group_ring_power", counted("group_ring_power", cf_mod.group_ring_power))
    assert len(targets) == 8
    assert routes_mod.walk_routes(spec, ks, 0, targets, routes_mod.ROUTES) == one_target
    assert counts == dict.fromkeys(("mckay_adjacency", "power_rows", "_character_sums",
                                    "group_ring_power"), 1)
    monkeypatch.undo()

    # each target-taking closed form runs once for every target of its family
    for name in ("cyclic_walks", "paley_closed_form", "sn_irrep_dim_formula"):
        monkeypatch.setattr(cf_mod, name, counted(name, getattr(cf_mod, name)))
    counts.clear()
    for family in map(parse_spec_full, ("Z10", "paley(13)", "S5")):
        routes_mod.walk_routes(family, ks, 0, range(family.group.n_classes), routes_mod.ROUTES)
    assert counts == dict.fromkeys(("cyclic_walks", "paley_closed_form", "sn_irrep_dim_formula"), 1)
    monkeypatch.undo()

    # a fault at one target alone names its node and k, and a one-target call only its k
    real_character = routes_mod.walk_counts_character

    def planted(g, v, ks, frm, targets):  # one count off, at node 5 and k = 3
        counts = real_character(g, v, ks, frm, targets)
        if 5 in targets:
            counts[targets.index(5)][3] += 1
        return counts

    monkeypatch.setattr(routes_mod, "walk_counts_character", planted)
    with pytest.raises(ConsistencyError, match=r"^node 5: routes disagree at k=3: "):
        routes_mod.walk_routes(spec, ks, 0, targets, routes_mod.ROUTES)
    routes_mod.walk_routes(spec, ks, 0, [0, 1, 2, 3, 4, 6, 7], routes_mod.ROUTES)
    with pytest.raises(ConsistencyError, match=r"^routes disagree at k=3: \[\('matrix', "):
        routes_mod.walk_routes(spec, ks, 0, [5], routes_mod.ROUTES)


def test_agree_raises_at_the_first_k_where_routes_differ():
    from tensorwalks.errors import ConsistencyError
    from tensorwalks.routes import agree

    agree([("a", [1, 2, 3]), ("b", [1, 2, 3])], range(4, 7))
    with pytest.raises(ConsistencyError) as info:
        agree([("a", [1, 2, 3]), ("b", [1, 5, 4])], range(4, 7), "p=5")
    assert str(info.value) == "p=5: routes disagree at k=5: [('a', 2), ('b', 5)]"
    with pytest.raises(ConsistencyError, match=r"^routes disagree at k=6: "):
        agree([("a", [1, 2, 3]), ("b", [1, 2, 4])], range(4, 7))


def test_paley_closed_forms_finish(capsys):
    # there are C(k + |S| - 1, |S| - 1) step-type compositions, about 10^11 for
    # paley(31) at k = 30: the multinomial route must not enumerate them
    doc = run_json(capsys, "walks", "--group", "paley(31)", "--k", "30")
    assert doc["count"] == "6185518039770454408641257522196000"
    assert doc["methods"] == ["matrix", "character", "closed:multinomial", "closed:gauss-sum"]
    doc = run_json(capsys, "invariants", "--group", "paley(29)", "--k", "16")
    assert doc["counts"][-3:] == ["383172654703034", "5364417070649084", "75101839291178266"]


def test_abelian_closed_route_enumerates_no_compositions(capsys):
    # the closed route is one group-ring power; a sum over step-type
    # compositions would take C(2003, 3) terms at hypercube(4), k = 2000.
    # The enumerator is a test oracle: no library module binds one.
    import sys

    counts = [run_json(capsys, "walks", "--group", "hypercube(4)", "--k", "2000",
                       "--method", method)["count"] for method in ("closed", "character")]
    assert counts[0] == counts[1]
    assert len(run_json(capsys, "invariants", "--group", "Z4xZ2", "--k", "12")["counts"]) == 13
    assert not [name for name, mod in list(sys.modules.items())
                if name.startswith("tensorwalks") and hasattr(mod, "compositions")]


def test_a_wrong_conjugate_image_fails_through_the_closed_route(capsys, monkeypatch):
    # the matrix and character routes share the ring map, so a wrong image
    # of conj(zeta) gives both the same wrong count; on an abelian spec the
    # closed route, which reads only the steps, still tells them apart
    from tensorwalks import cyclotomic

    real = cyclotomic._images

    def unconjugated(values, n, b, units):
        return real(values, n, b, [1 if a == -1 else a for a in units])

    argv = ("walks", "--group", "Z4xZ3", "--k", "1", "--to", "1")
    assert run_json(capsys, *argv)["count"] == "1"
    monkeypatch.setattr(cyclotomic, "_images", unconjugated)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert "[('matrix', 0), ('character', 0), ('closed:multinomial', 1)]" in err


def test_character_rows_are_built_on_first_use(capsys, monkeypatch):
    # a row of characters is built when a route first reads it, once per
    # group: egf and diagalg read none, invariants row 0 at most, a character
    # walk 0 -> c rows 0 and c, and the adjacency build every row
    from tensorwalks.groups import GroupData

    built = []
    real_init = GroupData.__init__

    def recording_init(self, name, order, classes, conductor, irreps=None, row=None):
        def recorded(i):
            built.append(i)
            return row(i)
        real_init(self, name, order, classes, conductor, irreps, row and recorded)

    monkeypatch.setattr(GroupData, "__init__", recording_init)

    def rows_read(*argv):
        built.clear()
        run_json(capsys, *argv)
        assert len(built) == len(set(built)), built
        return sorted(built)

    assert rows_read("walks", "--group", "S12", "--k", "10", "--to", "40",
                     "--method", "character") == [0, 40]
    assert rows_read("walks", "--group", "hypercube(12)", "--k", "10", "--to", "5",
                     "--method", "character") == [0, 5]
    assert rows_read("egf", "--group", "hypercube(10)", "--order", "10") == []
    assert rows_read("diagalg", "--group", "hypercube(10)", "--k", "12") == []
    assert rows_read("invariants", "--group", "hypercube(12)", "--k", "4") in ([], [0])
    assert rows_read("walks", "--group", "S6", "--k", "4", "--to", "3") == list(range(11))


def test_abelian_specs_too_large_to_enumerate_are_usage_errors(capsys):
    import time

    from tensorwalks.groups import ABELIAN_LIMIT, build_abelian

    too_large = ("hypercube(40)", "Z1000003", "paley(1000003)", "paley(1000000007)",
                 "circulant(1000003; 1)", "Z2048xZ2048", "hypercube(17)",
                 f"hypercube({10**30})", f"Z{10**30}xZ2", f"paley({10**30 + 1})")
    for spec, message in [(s, "too large") for s in too_large] + [(f"paley({10**12})",
                                                                   "odd prime")]:
        start = time.perf_counter()
        code, _, err = run(capsys, "walks", "--group", spec, "--k", "2", "--method", "closed")
        assert code == 2 and message in err, (spec, err)
        assert time.perf_counter() - start < 1, spec
    # |G| (phi(N) + factors) against the limit: 2^16 * 17 is under it, 2^17 * 18 over
    assert build_abelian((2,) * 16).order == 2**16
    with pytest.raises(ValueError, match="too large"):
        build_abelian((2,) * 17)
    assert 2**16 * 17 <= ABELIAN_LIMIT < 2**17 * 18
    doc = run_json(capsys, "invariants", "--group", "hypercube(12)", "--k", "4")
    assert doc["counts"] == ["1", "0", "12", "0", "408"]  # 3n^2 - 2n closed 4-walks


def test_invariants_wreath(capsys):
    doc = run_json(capsys, "invariants", "--group", "Z2wrS2", "--k", "6")
    assert doc["counts"] == ["1", "0", "1", "0", "4", "0", "16"]


def test_invariants_csv(capsys):
    code, out, _ = run(capsys, "invariants", "--group", "Z2wrS2", "--k", "4", "--csv")
    assert code == 0
    assert out.splitlines() == ["k,count", "0,1", "1,0", "2,1", "3,0", "4,4"]


def test_dims_csv_quotes_labels(capsys):
    import csv

    for spec in ("S4", "Z4xZ2"):
        doc = run_json(capsys, "dims", "--group", spec, "--k", "2")
        code, out, _ = run(capsys, "dims", "--group", spec, "--k", "2", "--csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert all(len(row) == 2 for row in rows)
        assert rows == [["label", "count"]] + [[d["label"], d["count"]] for d in doc["dims"]]


def test_dims(capsys):
    doc = run_json(capsys, "dims", "--group", "S4", "--k", "2")
    by_label = {d["label"]: d["count"] for d in doc["dims"]}
    assert by_label == {"(4,)": "2", "(3, 1)": "3", "(2, 2)": "1",
                        "(2, 1, 1)": "1", "(1, 1, 1, 1)": "0"}
    code, out, _ = run(capsys, "dims", "--group", "Z3", "--k", "2", "--csv")
    assert code == 0 and out == "label,count\n0,2\n1,1\n2,1\n"


def test_poincare_paper_sl2_steinberg(capsys):
    doc = run_json(capsys, "poincare", "--group", "SL2(3)@steinberg", "--method", "paper")
    # the display form is reduced: at q = 3 the printed fraction shares (1 - t)
    assert doc["num"] == "1 - 2t - 2t^2"
    assert doc["den"] == "1 - 2t - 3t^2"
    assert doc["unreduced_degree"] == 7


def test_poincare_methods_agree(capsys):
    docs = [run_json(capsys, "poincare", "--group", "Z10", "--lambda", "0",
                     "--method", m) for m in ("cramer", "character")]
    assert docs[0]["ratfunc"] == docs[1]["ratfunc"]


def test_poincare_wreath_character(capsys):
    doc = run_json(capsys, "poincare", "--group", "Z2wrS2", "--method", "character")
    assert doc["num"] == "1 - 3t^2"
    assert doc["den"] == "1 - 4t^2"


def test_character_series_past_the_degree_limit_exits_3(capsys, monkeypatch):
    # the degree, the number of distinct values of chi_V, is counted before
    # any class sum, so a series that would run for hours is refused at once
    import tensorwalks.series as series_mod

    for spec, degree in (("Z214wrS2", 22899), ("Z40wrS3", 10721), ("Z60wrS2", 1801),
                         ("Z20wrS3", 1361)):
        code, out, err = run(capsys, "poincare", "--group", spec)
        assert (code, out) == (3, ""), spec
        assert err == (f"unsupported: the character series of {spec} has degree {degree}, the "
                       f"number of distinct values of chi_V, above 1000\n"), err
    # Z10 takes 6 distinct values: answered at the limit, refused below it
    monkeypatch.setattr(series_mod, "DEGREE_LIMIT", 6)
    assert run_json(capsys, "poincare", "--group", "Z10")["den"]
    monkeypatch.setattr(series_mod, "DEGREE_LIMIT", 5)
    code, out, err = run(capsys, "poincare", "--group", "Z10", "--method", "character")
    assert (code, out) == (3, "") and "degree 6" in err, err
    assert run_json(capsys, "poincare", "--group", "Z10", "--method", "cramer")["den"]


def test_egf_abelian(capsys):
    doc = run_json(capsys, "egf", "--group", "Z4xZ2", "--order", "6", "--target", "3,1")
    assert doc["coeffs"] == ["0", "0", "0", "0", "4", "0", "20"]


def test_egf_wreath(capsys):
    doc = run_json(capsys, "egf", "--group", "Z2wrS2", "--order", "6")
    assert doc["coeffs"] == ["1", "0", "1", "0", "4", "0", "16"]


def test_wrong_rencontres_weight_fails_the_wreath_egf(capsys, monkeypatch):
    # one permutation too many with a single fixed point: the weighted sum is
    # no longer divisible by 3!, and a count of 7/6 must never be printed
    from tensorwalks import closedforms

    real = closedforms.rencontres
    monkeypatch.setattr(closedforms, "rencontres", lambda n, m: real(n, m) + (m == 1))
    code, out, err = run(capsys, "egf", "--group", "Z2wrS3", "--order", "4")
    assert code == 4 and out == ""
    assert "wreath EGF coefficient came out 7/6" in err


def test_bratteli_json(capsys):
    code, out, _ = run(capsys, "bratteli", "--group", "Z4xZ2", "--levels", "6")
    doc = json.loads(out)
    assert doc["algebra_dims"] == ["1", "2", "6", "20", "72", "272", "1056"]


def test_bratteli_dot(capsys):
    code, out, _ = run(capsys, "bratteli", "--group", "S4", "--levels", "2",
                       "--format", "dot")
    assert code == 0 and out.startswith("graph bratteli")


def test_quiver_outputs(capsys):
    code, out, _ = run(capsys, "quiver", "--group", "Z3", "--format", "dot")
    assert code == 0 and "dir=none" in out
    doc = run_json(capsys, "quiver", "--group", "Z3")
    assert doc["dim"] == 3


def test_group_serialization(capsys):
    doc = run_json(capsys, "group", "--group", "S4")
    assert doc["order"] == "24" and doc["tier"] == "full"


def test_group_prints_every_slot_of_a_wreath_class(capsys):
    classes = [("((1, 1), (), ())", 1), ("((2,), (), ())", 3), ("((1,), (1,), ())", 2),
               ("((1,), (), (1,))", 2), ("((), (2,), ())", 3), ("((), (1, 1), ())", 1),
               ("((), (1,), (1,))", 2), ("((), (), (2,))", 3), ("((), (), (1, 1))", 1)]
    chi_v = ["2", "0", "1 + 1*z", "-1*z", "0", "2*z", "-1", "0", "-2 + -2*z"]
    want = {"name": "Z3wrS2", "order": "18", "tier": "invariant",
            "classes": [{"label": label, "size": str(size)} for label, size in classes],
            "chi_V": [f"{v}; conductor=3" for v in chi_v]}
    code, out, _ = run(capsys, "group", "--group", "Z3wrS2")
    assert code == 0 and out == json.dumps(want, indent=2) + "\n"
    doc = run_json(capsys, "group", "--group", "Z4wrS8")
    labels = [(c["label"], int(c["size"])) for c in doc["classes"]]
    assert len(labels) == 2580
    assert labels[:3] == [("((1, 1, 1, 1, 1, 1, 1, 1), (), (), ())", 1),
                          ("((8,), (), (), ())", 82575360), ("((7, 1), (), (), ())", 23592960)]
    assert labels[-1] == ("((), (), (), (1, 1, 1, 1, 1, 1, 1, 1))", 1)
    assert sum(size for _, size in labels) == int(doc["order"]) == 4**8 * 40320


# the verbs whose payload is built in cli.py, each checked under its own name
# against its line of tests/golden.txt (exit code, stdout and stderr digests)
PINNED_STDOUT = (
    "quiver --group S4",
    "quiver --group S4 --format dot",
    "bratteli --group Z4xZ2 --levels 3",
    "bratteli --group Z4xZ2 --levels 3 --format dot",
    "group --group Z5",
    "group --group GL2(3)",
    "poincare --group S4 --lambda 1 --method cramer",
    "poincare --group SL2(3)@steinberg --method paper",
    "egf --group Z4xZ2 --order 6 --target 3,1",
    "egf --group Z4wrS6 --order 26",
    "egf --group Z2xZ2xZ2xZ2xZ2xZ2 --order 25 --target 1,0,1,0,0,0",
    "diagalg --group hypercube(3) --k 5 --list",
    "verify --suite paley",
    # a degree-330 character series with coefficients of up to 126 digits
    "poincare --group Z5wrS6",
)


@pytest.mark.parametrize("command", PINNED_STDOUT)
def test_stdout_bytes_are_pinned(command):
    argv = command.split()
    lines = [line for line in CORPUS.read_text().splitlines() if corpus_argv(line) == argv]
    assert len(lines) == 1, f"{command!r} is on {len(lines)} lines of {CORPUS.name}"
    assert corpus_line(argv) == lines[0]


def test_diagalg(capsys):
    doc = run_json(capsys, "diagalg", "--group", "Z4xZ2", "--k", "6", "--target", "1,1")
    assert doc["count"] == "144"
    doc = run_json(capsys, "diagalg", "--group", "Z4xZ2", "--k", "6")
    assert doc["count"] == "1056"
    doc = run_json(capsys, "diagalg", "--group", "Z2xZ2", "--k", "2", "--list")
    assert doc["count"] == "8"
    assert {"bottom": [1, 1], "top": [1, 1]} in doc["elements"]


def test_diagalg_list_is_the_indented_json_of_its_payload(capsys):
    # k = 0 with and without a target, empty bases, and longer words
    from tensorwalks.diagrams import enumerate_basis

    for group, radii, k, target, count in (
            ("Z2xZ2", (2, 2), 0, None, 1), ("Z2xZ2", (2, 2), 0, "0,0", 1),
            ("Z2xZ2", (2, 2), 0, "1,0", 0), ("Z4xZ2", (4, 2), 3, "1,1", 0),
            ("Z4xZ2", (4, 2), 3, None, 20), ("Z2xZ3", (2, 3), 2, "1,1", 4)):
        argv = ["diagalg", "--group", group, "--k", str(k), "--list"]
        if target:
            argv += ["--target", target]
        elements = enumerate_basis(radii, k, target and tuple(map(int, target.split(","))))
        payload = {"group": group, "k": k, "count": str(count),
                   "elements": [{"bottom": list(e.bottom), "top": list(e.top)} for e in elements]}
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == json.dumps(payload, indent=2) + "\n", argv


def test_diagalg_counts_without_listing_words(capsys):
    # 5^12 words; the count is sum_j C(5, j) (5 - 2j)^24 / 32
    doc = run_json(capsys, "diagalg", "--group", "hypercube(5)", "--k", "12")
    assert doc["count"] == "3725378557692065"
    code, out, err = run(capsys, "diagalg", "--group", "hypercube(5)", "--k", "-1")
    assert code == 2 and out == "" and "word length must be nonnegative" in err


def test_counts_print_past_the_default_digit_cap(capsys):
    import sys

    cap = sys.get_int_max_str_digits()
    counts = [run_json(capsys, "walks", "--group", "Z10", "--k", "15000", "--method", m)["count"]
              for m in ("matrix", "character")]
    assert counts[0] == counts[1] and len(counts[0]) == 4515
    k = 100000
    doc = run_json(capsys, "diagalg", "--group", "hypercube(2)", "--k", str(k))
    assert sys.get_int_max_str_digits() == cap
    sys.set_int_max_str_digits(0)
    try:
        assert doc["count"] == str(2 ** (2 * k - 1)) and len(doc["count"]) == 60206
    finally:
        sys.set_int_max_str_digits(cap)


def test_diagalg_list_size_guard(capsys, monkeypatch):
    import time

    import tensorwalks.cli as cli_mod

    # 5^12 words to list, although the block for this target is empty
    start = time.perf_counter()
    code, out, err = run(capsys, "diagalg", "--group", "hypercube(5)", "--k", "12",
                         "--target", "1,0,0,0,0", "--list")
    assert code == 3 and out == "" and "--list" in err
    assert time.perf_counter() - start < 1.0
    doc = run_json(capsys, "diagalg", "--group", "hypercube(3)", "--k", "5", "--list")
    assert doc["count"] == "14763" and len(doc["elements"]) == 14763
    # few words, too many elements: the guard counts the requested block
    monkeypatch.setattr(cli_mod, "LIST_LIMIT", 1000)
    code, out, err = run(capsys, "diagalg", "--group", "Z4xZ2", "--k", "6", "--list")
    assert code == 3 and out == "", err
    doc = run_json(capsys, "diagalg", "--group", "Z4xZ2", "--k", "6", "--target", "1,1",
                   "--list")
    assert doc["count"] == "144"


def test_unknown_irrep_label_is_a_usage_error(capsys):
    for argv in (("walks", "--group", "S4", "--k", "3", "--from", "foo"),
                 ("poincare", "--group", "S4", "--lambda", "bar")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "unknown irrep label" in err and argv[-1] in err and "S4" in err, err


def test_irrep_labels_ignore_whitespace(capsys):
    for spec, frm, to, packed in (("S4", "(2, 2)", "(3, 1)", ("(2,2)", " ( 3,1 ) ")),
                                  ("Z4xZ2", "(0, 0)", "(1, 0)", ("(0,0)", "(1,0)"))):
        want = run_json(capsys, "walks", "--group", spec, "--k", "2", "--from", frm, "--to", to)
        got = run_json(capsys, "walks", "--group", spec, "--k", "2",
                       "--from", packed[0], "--to", packed[1])
        assert got == want
    code, out, err = run(capsys, "walks", "--group", "S4", "--k", "2", "--from", "(2,1)")
    assert code == 2 and out == "" and err == "error: unknown irrep label '(2,1)' for S4\n"


def test_egf_refusal_names_the_supported_specs(capsys):
    for spec in ("Z4", "circulant(6;1,5)", "paley(5)", "S4"):
        code, out, err = run(capsys, "egf", "--group", spec, "--order", "4")
        assert code == 3 and out == "", spec
        assert "ZaxZb..." in err and "hypercube(n)" in err and "wreath" in err, err


def test_target_validation(capsys):
    code, out, err = run(capsys, "egf", "--group", "Z2wrS2", "--order", "4", "--target", "1")
    assert code == 3 and out == "", err
    for verb, extra in (("diagalg", ("--k", "2")), ("egf", ("--order", "2"))):
        code, out, err = run(capsys, verb, "--group", "Z4xZ2", *extra, "--target", "5,0")
        assert code == 2 and out == "" and "out of range" in err, verb


def test_verify_verb(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gauss")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_runs_the_cli_routes(capsys, monkeypatch):
    # a fault in the character route of walks off the trivial irrep on S_n,
    # and a closed form wrong at k = 2 alone, must fail verify
    import tensorwalks.closedforms as cf_mod
    import tensorwalks.quiver as quiver_mod
    from tensorwalks.verify import run_suite

    real_sums = quiver_mod.class_sums

    def faulty_sums(columns, weights, ks, left, right):
        # off the trivial node (one node on each side, not the same one)
        # every sum gains sum(weights) = |G|, so every count gains one
        sums = real_sums(columns, weights, ks, left, right)
        if left != right:
            sums = [[[s + sum(weights) for s in row] for row in matrix] for matrix in sums]
        return sums

    def failures(suite):
        return [r.detail for r in run_suite(suite) if not r.ok]

    monkeypatch.setattr(quiver_mod, "class_sums", faulty_sums)
    for suite in ("s4", "sn"):
        assert any("routes disagree" in d for d in failures(suite)), suite
    code, out, _ = run(capsys, "verify", "--suite", "sn")
    assert code == 4 and "FAIL" in out
    monkeypatch.setattr(quiver_mod, "class_sums", real_sums)

    real_wreath = cf_mod.wreath_invariants
    monkeypatch.setattr(cf_mod, "wreath_invariants",
                        lambda r, n, ks: [x + (k == 2) for k, x in zip(ks, real_wreath(r, n, ks))])
    failed = {r.name: r.detail for r in run_suite("wreath") if not r.ok}
    assert "k=2" in failed["fixed-point and class-sum evaluators agree (r,n <= 4, k <= 8)"]


def test_verify_reads_its_walk_counts_from_the_engine(monkeypatch):
    # a fault planted in the route engine alone fails each check that holds a
    # closed form or a character count to its reference; `egf` prints the EGF
    # that the genfnc suite checks
    import tensorwalks.cli as cli_mod
    import tensorwalks.routes as routes_mod
    import tensorwalks.verify as verify_mod

    real_closed = routes_mod.closed_walks
    monkeypatch.setattr(routes_mod, "closed_walks", lambda spec, ks, frm, targets: [
        (label, [[x + (k == 2) for k, x in zip(ks, counts)] for counts in per_target])
        for label, per_target in real_closed(spec, ks, frm, targets)])
    failed = {r.name: r.detail for suite in ("paley", "wreath", "genfnc")
              for r in verify_mod.run_suite(suite) if not r.ok}
    for name in ("derived closed form == multinomial sum == adjacency powers",
                 "group-element averaging agrees where the order is <= 200",
                 "EGF coefficients reproduce the invariant dimensions",
                 "even-block partition sums equal 2k-step invariants",
                 "EGF products equal walk counts for every target (k <= 10)"):
        assert "k=2" in failed.get(name, ""), name
    monkeypatch.undo()

    real_rows = routes_mod.power_rows
    monkeypatch.setattr(routes_mod, "power_rows", lambda a, frm, ks: [
        [x + (k == 2) for x in row] for k, row in zip(ks, real_rows(a, frm, ks))])
    failed = {r.name: r.detail for r in verify_mod.run_suite("genfnc") if not r.ok}
    assert "k=2" in failed.get("hypercube EGFs follow the cosh/sinh weight pattern", "")
    monkeypatch.undo()

    real_character = routes_mod.walk_counts_character
    monkeypatch.setattr(routes_mod, "walk_counts_character", lambda *args: [
        [x + 1 for x in counts] for counts in real_character(*args)])
    failed = {r.name for r in verify_mod.run_suite("diagram") if not r.ok}
    assert failed == {"basis cardinality equals the sum of squared multiplicities"}
    assert cli_mod.coordinate_egf is verify_mod.coordinate_egf


def test_verify_reports_every_check_under_a_fault(capsys, monkeypatch):
    # a fault in the one class-sum kernel fails each check that reads it, on
    # its own line, and the run goes on to the summary
    import tensorwalks.quiver as quiver_mod
    from tensorwalks.verify import run_suite

    untouched = {r.name for suite in ("gauss", "paley") for r in run_suite(suite)}
    real_sums = quiver_mod.class_sums
    monkeypatch.setattr(quiver_mod, "class_sums", lambda *args: [
        [[s + 1 for s in row] for row in matrix] for matrix in real_sums(*args)])
    code, out, err = run(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert code == 4 and err == ""
    assert len(lines) == 110 and lines[-1].endswith("/109 checks passed")
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
    assert "FAIL three routes agree for every target, k <= 6: character sum came out 1/8" in lines
    assert {f"PASS {name}" for name in untouched} <= set(lines)


def test_gauss_suite_fails_the_embedding_check_alone_on_an_embed_fault(monkeypatch):
    # coefficient i of a value of conductor n > 1 lands on zeta_m^(i*m/n + 1):
    # g(1) in Q(zeta_20) becomes zeta_20 g(1), whose square is not 5
    from tensorwalks.cyclotomic import CycNum
    from tensorwalks.verify import run_suite

    real_embed = CycNum.embed

    def misplaced(self, m):
        n = self.conductor
        if n == 1 or m == n:
            return real_embed(self, m)
        raw = [0] * (len(self.coeffs) * (m // n) + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * (m // n) + 1] = c
        return CycNum(m, raw)

    monkeypatch.setattr(CycNum, "embed", misplaced)
    results = {r.name: r.ok for r in run_suite("gauss")}
    assert results.pop("quadratic arithmetic embeds through the Gauss sum") is False
    assert len(results) == 3 and all(results.values())


def test_verify_runs_each_check_before_the_next_is_named(monkeypatch):
    # the z10 checks read their loop's variables: each runs at its own (k, method)
    import tensorwalks.verify as verify_mod

    real = verify_mod.walk_routes
    asked = []

    def recorder(spec, ks, frm, targets, methods):
        asked.append((list(ks), frm, targets, methods))
        return real(spec, ks, frm, targets, methods)

    monkeypatch.setattr(verify_mod, "walk_routes", recorder)
    assert all(r.ok for r in verify_mod.run_suite("z10"))
    assert asked == [([k], frm, [to], (method,))
                     for k, frm, to in ((6, 0, 8), (12, 0, 0))
                     for method in ("matrix", "character", "closed")]


def test_a_fault_outside_every_check_ends_verify(capsys, monkeypatch):
    # the guard holds each check's body only: a suite's own spec read is not a check
    import tensorwalks.verify as verify_mod
    from tensorwalks.errors import ConsistencyError

    real = verify_mod.parse_spec_full

    def planted(text):
        if text == "Z4xZ2":
            raise ConsistencyError("planted")
        return real(text)

    monkeypatch.setattr(verify_mod, "parse_spec_full", planted)
    assert run(capsys, "verify", "--suite", "z4xz2") == (4, "", "consistency failure: planted\n")


def test_verify_check_names_are_distinct():
    from tensorwalks.verify import run_suite

    names = [r.name for r in run_suite("all")]
    assert len(set(names)) == len(names) == 109


def readme_verbs() -> list[list[str]]:
    """The argv of each verb example of the README, as the CI smoke step reads them."""
    import shlex

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\nVerbs:\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("tensorwalks ")]


def test_main_reads_each_spec_once(capsys, monkeypatch):
    import tensorwalks.cli as cli_mod

    real = cli_mod.parse_spec_full
    calls = []
    monkeypatch.setattr(cli_mod, "parse_spec_full", lambda text: calls.append(text) or real(text))
    examples = [argv for argv in readme_verbs() if "--group" in argv]
    assert len(examples) >= 9
    for argv in examples:
        calls.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert calls == [argv[argv.index("--group") + 1]], argv
    calls.clear()
    assert run(capsys, "verify", "--suite", "gauss")[0] == 0
    assert calls == []


def test_kernel_fault_exits_4_without_a_traceback(capsys, monkeypatch):
    import tensorwalks.polynomials as poly_mod

    def planted(m, n):
        raise ArithmeticError("inexact division in the elimination kernel")

    monkeypatch.setattr(poly_mod, "_eliminate", planted)
    code, out, err = run(capsys, "poincare", "--group", "S4", "--method", "cramer")
    assert (code, out) == (4, "")
    assert err == "consistency failure: inexact division in the elimination kernel\n"


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "walks", "--group", "paley(9)", "--k", "2")
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "walks", "--group", "Z4yZ2", "--k", "2")
    assert code == 2 and "offset" in err


def test_invariant_tier_refusals_print_one_message(capsys):
    # an invariant-tier group is a one-row table: every query that reads a
    # row other than node 0's exits 3 with the group's one message
    from tensorwalks.errors import UnsupportedQueryError
    from tensorwalks.groups import parse_spec_full
    from tensorwalks.quiver import character_walk_counts, eigen_check

    for spec in ("GL2(3)", "Z2wrS2"):
        message = (f"unsupported: group {spec} carries invariant-only data: only node 0, "
                   "the trivial irrep, has a character row\n")
        for argv in (["dims", "--group", spec, "--k", "2"], ["quiver", "--group", spec],
                     ["bratteli", "--group", spec, "--levels", "2"],
                     ["bratteli", "--group", spec, "--levels", "-1"],
                     ["poincare", "--group", spec, "--method", "cramer"],
                     ["poincare", "--group", spec, "--lambda", "1"],
                     ["walks", "--group", spec, "--k", "3", "--to", "1"],
                     ["walks", "--group", spec, "--k", "3", "--to", "1", "--method", "character"],
                     ["walks", "--group", spec, "--k", "3", "--to", "1", "--method", "matrix"],
                     ["walks", "--group", spec, "--k", "3", "--to", "1", "--method", "closed"]):
            assert run(capsys, *argv) == (3, "", message), argv
        g, v = parse_spec_full(spec).group, parse_spec_full(spec).module
        with pytest.raises(UnsupportedQueryError, match="only node 0"):
            eigen_check(g, v, [[0] * g.n_classes for _ in range(g.n_classes)])
        with pytest.raises(UnsupportedQueryError, match="only node 0"):
            character_walk_counts(g, v, 2)


def test_a_full_table_with_no_route_prints_the_generic_refusal(capsys):
    # every row of S4 exists, so no row is refused: the message names the routes
    assert run(capsys, "walks", "--group", "S4", "--k", "3", "--from", "1", "--method", "closed") == (
        3, "", "unsupported: no route among closed applies to S4 (full tier) from node 1 to 0\n")


def test_exit_code_unsupported(capsys):
    code, _, err = run(capsys, "dims", "--group", "Z2wrS2", "--k", "2")
    assert code == 3
    code, _, err = run(capsys, "walks", "--group", "Z2wrS2", "--k", "2", "--to", "1")
    assert code == 3
    code, _, err = run(capsys, "diagalg", "--group", "S4", "--k", "2")
    assert code == 3


def test_exit_code_consistency_failure(capsys, monkeypatch):
    # auto mode runs every applicable method and must refuse to print when
    # they disagree; force a bad closed form to trip the gate
    import tensorwalks.closedforms as cf_mod

    monkeypatch.setattr(cf_mod, "cyclic_walks",
                        lambda r, ks, a, targets: [[10**6] * len(ks) for _ in targets])
    code, _, err = run(capsys, "walks", "--group", "Z10", "--k", "6",
                       "--from", "0", "--to", "8")
    assert code == 4 and "disagree" in err


def test_a_kostka_fault_fails_only_the_closed_symmetric_route(capsys, monkeypatch):
    # the S_n table that the matrix and character routes read is built from
    # Murnaghan-Nakayama alone, so only closed:stirling-kostka meets the fault
    import tensorwalks.closedforms as cf_mod
    import tensorwalks.combinatorics as comb_mod
    import tensorwalks.groups as groups_mod
    from tensorwalks.errors import ConsistencyError

    argv = ("walks", "--group", "S8", "--k", "6", "--to", "3", "--method")
    want = run_json(capsys, *argv, "matrix")["count"]

    def planted(lam, l):
        raise ConsistencyError("planted Kostka fault")

    for module in (comb_mod, cf_mod):
        monkeypatch.setattr(module, "kostka_hook_content", planted)
    monkeypatch.setattr(groups_mod, "kostka_hook_content", planted, raising=False)
    for method in ("matrix", "character"):
        assert run_json(capsys, *argv, method)["count"] == want, method
    code, out, err = run(capsys, *argv, "closed")
    assert code == 4 and out == "" and "planted Kostka fault" in err


def test_invariants_consistency_failure(capsys, monkeypatch):
    import tensorwalks.closedforms as cf_mod

    real = cf_mod.wreath_invariants
    monkeypatch.setattr(cf_mod, "wreath_invariants", lambda r, n, ks: [10**6] * len(ks))
    code, out, err = run(capsys, "invariants", "--group", "Z2wrS2", "--k", "3")
    assert code == 4 and out == "" and "disagree" in err
    # wrong at k = 2 alone: the sequences differ there first
    monkeypatch.setattr(cf_mod, "wreath_invariants",
                        lambda r, n, ks: [x + (k == 2) for k, x in zip(ks, real(r, n, ks))])
    code, out, err = run(capsys, "invariants", "--group", "Z2wrS2", "--k", "6")
    assert code == 4 and out == "" and "k=2" in err


def test_non_integral_series_exits_4(capsys, monkeypatch):
    # a closed-form Poincare series whose coefficients leave the integers is
    # a wrong series, never printed
    import tensorwalks.closedforms as cf_mod
    from tensorwalks.polynomials import Polynomial

    real = cf_mod.gl2_poincare

    def planted(q, which):
        rf = real(q, which)
        return cf_mod.RatFunc(rf.num, rf.den * Polynomial((2, -1)))

    monkeypatch.setattr(cf_mod, "gl2_poincare", planted)
    code, out, err = run(capsys, "poincare", "--group", "GL2(5)", "--method", "paper")
    assert code == 4 and out == "" and "consistency failure" in err


def test_galois_incomplete_table_exits_4(capsys, monkeypatch):
    # no route may turn a table whose sums are irrational into a count: Z5
    # with chi_V(1) = zeta + 1, which zeta -> zeta^2 moves off the table
    import tensorwalks.cli as cli_mod
    from tensorwalks.cyclotomic import CycNum
    from tensorwalks.groups import ParsedSpec, parse_spec_full

    spec = parse_spec_full("Z5")
    values = (spec.module[0], CycNum(5, [1, 1, 0, 0]), *spec.module[2:])
    planted = ParsedSpec(spec.kind, spec.name, spec.params, lambda: spec.group, lambda: values)
    monkeypatch.setattr(cli_mod, "parse_spec_full", lambda text: planted)
    for argv in (("walks", "--group", "Z5", "--k", "3"),
                 ("walks", "--group", "Z5", "--k", "3", "--method", "character"),
                 ("poincare", "--group", "Z5"),
                 ("poincare", "--group", "Z5", "--method", "cramer")):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == "" and "Galois-incomplete" in err, argv


def test_json_round_trip(capsys):
    code, out, _ = run(capsys, "walks", "--group", "Z10", "--k", "6",
                       "--from", "0", "--to", "8")
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2) + "\n" == out


def test_negative_counts_are_usage_errors(capsys):
    # each of these used to loop forever or print an empty list with exit 0
    for argv in (("walks", "--group", "Z10", "--k", "-1"),
                 ("dims", "--group", "Z10", "--k", "-1"),
                 ("invariants", "--group", "Z10", "--k", "-1"),
                 ("egf", "--group", "Z4xZ2", "--order", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "nonnegative" in err, argv


ALL_VERBS = "{walks,dims,invariants,poincare,egf,bratteli,quiver,group,diagalg,verify}"


def test_verbs_table_lists_the_subcommands_in_order():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(VERBS) == tuple(sub.choices) == tuple(ALL_VERBS[1:-1].split(","))
    from tensorwalks.routes import ROUTES

    assert dict(VERBS["walks"][2])["--method"]["choices"] == ("auto",) + ROUTES


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["--group", "Z10", "walks"],
    ["walks"], ["walks", "--help"], ["walks", "--group", "Z10", "--k", "x"],
    # a parser of the verb alone would take this line with one argument left
    # over, and its own usage line would not name the other verbs
    ["walks", "--group", "Z4", "--k", "2", "--bogus"],
    ["walks", "--group", "Z10", "--k", "3", "--method", "nope"],
])
def test_bad_command_lines_exit_as_the_full_parser_does(capsys, argv):
    outcomes = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        outcomes.append((exc.value.code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code in (0, 2) and (out if code == 0 else err)
    if "--bogus" in argv:
        assert ALL_VERBS in err and "unrecognized arguments: --bogus" in err


@pytest.mark.parametrize("argv", [
    ["walks", "--group", "Z10", "--k", "6", "--to", "8", "--method", "closed"],
    ["dims", "--group", "S4", "--k", "2", "--csv"],
    ["poincare", "--group", "S4", "--lambda", "1", "--method", "cramer"],
    ["egf", "--group", "Z4xZ2", "--order", "6", "--target", "3,1"],
    ["bratteli", "--group", "Z4", "--levels", "3", "--format", "dot"],
    ["group", "--group", "Z5"],
    ["diagalg", "--group", "Z4xZ2", "--k", "6", "--list"],
    ["verify"],
])
def test_one_verb_parser_reads_what_the_full_parser_reads(argv):
    assert vars(parse_args(argv)) == vars(build_parser().parse_args(argv))


def test_main_leaves_the_collector_alone(capsys):
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    assert main(["walks", "--group", "Z10", "--k", "6", "--to", "8"]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()


def child_env(path=SRC, buffered=False):
    """The environment of a fresh interpreter with `path` ahead of the sources
    on PYTHONPATH; `buffered` clears PYTHONUNBUFFERED, so that a short
    stdout is written by the flush at exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (path, SRC))))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def process(*argv, path=SRC, entry=("-m", "tensorwalks"), buffered=False):
    return subprocess.run([sys.executable, *entry, *argv], env=child_env(path, buffered),
                          capture_output=True, text=True, timeout=120)


def test_process_entry_keeps_exit_codes_and_piped_output(capsys, tmp_path):
    # stdout past a pipe's buffer arrives whole: the bytes main writes in-process
    listing = ["diagalg", "--group", "hypercube(2)", "--k", "5", "--list"]
    out = process(*listing)
    assert out.returncode == 0 and main(listing) == 0
    assert len(out.stdout) > 65536 and out.stdout == capsys.readouterr().out
    for argv, code in ((["walks", "--group", "Z10", "--k", "3", "--bogus"], 2),
                       (["walks", "--group", "paley(9)", "--k", "2"], 2),
                       (["dims", "--group", "Z2wrS2", "--k", "2"], 3)):
        out = process(*argv)
        assert out.returncode == code and out.stdout == "" and out.stderr, argv
    # routes that disagree: a wrong binomial closed form, planted at start-up
    (tmp_path / "sitecustomize.py").write_text(
        "import tensorwalks.closedforms as cf\n"
        "cf.cyclic_walks = lambda r, ks, a, targets: [[10**6] * len(ks) for _ in targets]\n")
    out = process("walks", "--group", "Z10", "--k", "6", "--to", "8", path=tmp_path)
    assert out.returncode == 4 and out.stdout == "" and "disagree" in out.stderr
    # the process entry skips the interpreter's teardown, not the atexit
    # callbacks, and exits with the code main returns
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit callback ran\\n'))\n")
    for argv, code in ((["group", "--group", "Z5"], 0),
                       (["walks", "--group", "paley(9)", "--k", "2"], 2),
                       (["dims", "--group", "Z2wrS2", "--k", "2"], 3)):
        for buffered in (False, True):
            out = process(*argv, path=tmp_path, buffered=buffered)
            assert out.returncode == code, (argv, out.stderr)
            assert out.stderr.endswith("atexit callback ran\n"), (argv, out.stderr)
            assert ('"name": "Z5"' in out.stdout) == (code == 0), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_entry_fails_on_a_full_device_or_closed_pipe_as_a_plain_exit_does():
    # the output is written by the flush at exit; the process entry then
    # leaves the failure to the interpreter, which reports it and exits 120
    # as for a script that calls main and exits normally
    argv = ["walks", "--group", "Z10", "--k", "6", "--to", "8"]
    plain = ["-c", "import sys; from tensorwalks.cli import main; sys.exit(main())"]
    outcomes = []
    for cmd in ([sys.executable, "-m", "tensorwalks", *argv], [sys.executable, *plain, *argv]):
        with open("/dev/full", "w") as full:
            out = subprocess.run(cmd, env=child_env(buffered=True), stdout=full,
                                 stderr=subprocess.PIPE, text=True, timeout=120)
        proc = subprocess.Popen(cmd, env=child_env(buffered=True), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        outcomes.append((out.returncode, out.stderr, proc.wait(timeout=120), err))
    assert outcomes[0] == outcomes[1]
    full_code, full_err, pipe_code, pipe_err = outcomes[0]
    assert full_code == pipe_code == 120
    assert "No space left on device" in full_err and "BrokenPipeError" in pipe_err


def test_process_entry_exits_1_without_a_traceback_when_the_reader_goes_away():
    # stdout past the buffer is written while main runs, into a pipe whose
    # read end is already closed; the process entry ends the output quietly
    proc = subprocess.Popen([sys.executable, "-m", "tensorwalks", "diagalg", "--group",
                             "hypercube(2)", "--k", "5", "--list"], env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (1, "")


# imported by no well-formed walks, invariants, dims, poincare or egf query
NOT_LOADED = {"argparse", "gettext", "locale", "json", "fractions", "decimal",
              "tensorwalks.verify", "tensorwalks.diagrams"}


def test_a_query_imports_only_the_modules_of_its_verb(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write('\\n'.join(sorted(sys.modules))))\n")

    def loaded(*argv, entry=("-m", "tensorwalks")):
        out = process(*argv, path=tmp_path, entry=entry)
        return out.returncode, set(out.stderr.splitlines())

    _, start = loaded(entry=("-c", "pass"))
    for argv in (["walks", "--group", "Z10", "--k", "6", "--to", "8"],
                 ["invariants", "--group", "Z2wrS3", "--k", "6"],
                 ["dims", "--group", "S4", "--k", "3"],
                 ["poincare", "--group", "S8", "--method", "cramer", "--lambda", "3"],
                 ["poincare", "--group", "GL2(5)", "--method", "paper"],
                 ["egf", "--group", "Z3wrS4", "--order", "10"]):
        code, modules = loaded(*argv)
        assert code == 0 and "tensorwalks.cli" in modules, argv
        assert not (modules - start) & NOT_LOADED, argv
    code, modules = loaded("verify", "--suite", "gauss")
    assert code == 0 and "tensorwalks.verify" in modules
    code, modules = loaded("walks", "--group", "Z10", "--k", "3", "--bogus")
    assert code == 2 and "argparse" in modules
    assert any(ALL_VERBS in line for line in modules)
