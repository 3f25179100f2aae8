import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorwalks.cli import VERBS, build_parser, main, parse_args

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
    import tensorwalks.routes as routes_mod
    from tensorwalks.closedforms import cyclic_walks
    from tensorwalks.groups import parse_spec_full

    calls = []
    real = routes_mod.power_rows

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(routes_mod, "power_rows", counting)
    results = routes_mod.walk_routes(parse_spec_full("Z10"), range(7), 0, 2, ("matrix",))
    assert results == [("matrix", [cyclic_walks(10, k, 0, 2) for k in range(7)])]
    assert calls == [(0, range(7))]


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
    from tensorwalks.cyclotomic import CertifiedSums

    real = CertifiedSums.ring_map

    def unconjugated(self, bound):
        m, images, _ = real(self, bound)
        return m, images, images

    argv = ("walks", "--group", "Z4xZ3", "--k", "1", "--to", "1")
    assert run_json(capsys, *argv)["count"] == "1"
    monkeypatch.setattr(CertifiedSums, "ring_map", unconjugated)
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


# sha256 of the exact stdout of each verb whose payload is built in cli.py
PINNED_STDOUT = {
    "quiver --group S4": "541c9d917e98a3d00619d7757570101a94b6d8d0ddaac50729b82e6610f69595",
    "quiver --group S4 --format dot":
        "6665fc515b832668d2e051c7ad15c522912a1da2a39ec3ef1d730a92f0c0576b",
    "bratteli --group Z4xZ2 --levels 3":
        "37360688bf736d13088d894832d2aaf56209f284f941f242f58f35fa3aa4259a",
    "bratteli --group Z4xZ2 --levels 3 --format dot":
        "9f7a4002b1c6881ed8b1d4b58bb9425618ce9ee0108db7c112973f8d709e8ce4",
    "group --group Z5": "a54393fc4097d87a1f6b0531e157aa2bd3c4d6f0137b523ffd9594c80153b413",
    "group --group GL2(3)": "3c40769d729611acc108455c4bffed601977e786cef73c53b1b613ae91cd385b",
    "poincare --group S4 --lambda 1 --method cramer":
        "d121000eb0703aa6c0113d5c9b92e8b339096a4b9043772f23b8c4379b6bfac2",
    "poincare --group SL2(3)@steinberg --method paper":
        "bf1eb298d8405bf9b4ae8e07850cbf86030e8cd522d1b36f9878d527f133a665",
    "egf --group Z4xZ2 --order 6 --target 3,1":
        "557b848797fc36eb803510a6c14a0470007177710f971f34d56ba48289b5570c",
    "egf --group Z4wrS6 --order 26":
        "e862cb355a90a09a3947897967ca65afdae339a44c6dbf4f1166b4504ac6c302",
    "egf --group Z2xZ2xZ2xZ2xZ2xZ2 --order 25 --target 1,0,1,0,0,0":
        "7810910b266200be5e68138a8046db181375ec2720c8cfe4f5013c424bdae080",
    "diagalg --group hypercube(3) --k 5 --list":
        "f7760529c1ad66fa443b3d72b1d16238394f8e309c63e287d05b76dde6457565",
    "verify --suite paley": "815e3dd591d4a440ff947a0176ea05f11f3c19d5804d0344b6a4b8ccbcb45e64",
}


@pytest.mark.parametrize("command", PINNED_STDOUT)
def test_stdout_bytes_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command], out


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
                        lambda r, n, k: real_wreath(r, n, k) + (k == 2))
    failed = {r.name: r.detail for r in run_suite("wreath") if not r.ok}
    assert "k=2" in failed["fixed-point and class-sum evaluators agree (r,n <= 4, k <= 8)"]


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
                     ["walks", "--group", spec, "--k", "3", "--to", "1", "--method", "character"]):
            assert run(capsys, *argv) == (3, "", message), argv
        g, v = parse_spec_full(spec).group, parse_spec_full(spec).module
        with pytest.raises(UnsupportedQueryError, match="only node 0"):
            eigen_check(g, v, [[0] * g.n_classes for _ in range(g.n_classes)])
        with pytest.raises(UnsupportedQueryError, match="only node 0"):
            character_walk_counts(g, v, 2)


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

    monkeypatch.setattr(cf_mod, "cyclic_walks", lambda r, k, a, c: 10**6)
    code, _, err = run(capsys, "walks", "--group", "Z10", "--k", "6",
                       "--from", "0", "--to", "8")
    assert code == 4 and "disagree" in err


def test_invariants_consistency_failure(capsys, monkeypatch):
    import tensorwalks.closedforms as cf_mod

    real = cf_mod.wreath_invariants
    monkeypatch.setattr(cf_mod, "wreath_invariants", lambda r, n, k: 10**6)
    code, out, err = run(capsys, "invariants", "--group", "Z2wrS2", "--k", "3")
    assert code == 4 and out == "" and "disagree" in err
    # wrong at k = 2 alone: the sequences differ there first
    monkeypatch.setattr(cf_mod, "wreath_invariants",
                        lambda r, n, k: real(r, n, k) + (k == 2))
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
    from tensorwalks.groups import ModuleChar, ParsedSpec, parse_spec_full

    spec = parse_spec_full("Z5")
    values = (spec.module.values[0], CycNum(5, [1, 1, 0, 0]), *spec.module.values[2:])
    planted = ParsedSpec(spec.kind, spec.params, spec.group, ModuleChar(spec.group, values))
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
        "cf.cyclic_walks = lambda r, k, a, c: 10**6\n")
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
