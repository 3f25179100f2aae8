"""Command-line interface.

Exit codes: 0 success; 2 parse/usage error; 3 unsupported combination for the
group's data tier, or a `diagalg --list` too large to write out; 4 internal
consistency failure (cross-checking routes gave different counts -- never
ignored).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import closedforms as cf
from .diagrams import basis_count, enumerate_basis
from .errors import ConsistencyError, SpecError, UnsupportedQueryError
from .groups import ParsedSpec, group_to_json, parse_spec_full
from .quiver import bratteli, bratteli_dot, mat_pow, mckay_adjacency, quiver_dot
from .routes import ROUTES, linear_group_forms, walk_routes
from .series import egf_hyperbolic, egf_product, poincare_character, poincare_cramer
from .verify import run_suite


def _require_nonnegative(option: str, value: int) -> None:
    if value < 0:
        raise SpecError(f"{option} must be nonnegative, got {value}")


def emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def emit_csv(rows) -> None:
    import csv  # only --csv pays for the import

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _node_index(spec: ParsedSpec, token: str) -> int:
    g = spec.group
    try:
        idx = int(token)
    except ValueError:
        if g.irreps is None:
            raise UnsupportedQueryError(
                f"group {g.name} has no irrep labels; use index 0")
        try:
            return g.irrep_index(token)
        except KeyError:
            raise SpecError(f"unknown irrep label {token!r} for {g.name}") from None
    n = g.n_classes
    if not 0 <= idx < n:
        raise SpecError(f"node index {idx} out of range 0..{n - 1}")
    return idx


def cmd_walks(args) -> int:
    _require_nonnegative("--k", args.k)
    spec = parse_spec_full(args.group)
    frm = _node_index(spec, args.frm)
    to = _node_index(spec, args.to)
    methods = ROUTES if args.method == "auto" else (args.method,)
    results = walk_routes(spec, range(args.k, args.k + 1), frm, to, methods)
    emit({"group": spec.group.name, "k": args.k, "from": frm, "to": to,
          "count": str(results[0][1][0]), "methods": [m for m, _ in results]})
    return 0


def cmd_dims(args) -> int:
    _require_nonnegative("--k", args.k)
    spec = parse_spec_full(args.group)
    g, v = spec.group, spec.module
    a = mckay_adjacency(g, v)
    row = mat_pow(a.rows(), args.k)[0]
    labels = [i.label for i in g.irreps]
    if args.csv:
        emit_csv([("label", "count")] + [(lab, c) for lab, c in zip(labels, row)])
    else:
        emit({"group": g.name, "k": args.k,
              "dims": [{"label": lab, "count": str(c)} for lab, c in zip(labels, row)]})
    return 0


def cmd_invariants(args) -> int:
    _require_nonnegative("--k", args.k)
    spec = parse_spec_full(args.group)
    # the character sum against the closed forms only: the matrix route would
    # build an n^3-cost adjacency matrix to read one entry of each power
    counts = walk_routes(spec, range(args.k + 1), 0, 0, ("character", "closed"))[0][1]
    if args.csv:
        emit_csv([("k", "count")] + list(enumerate(counts)))
    else:
        emit({"group": spec.group.name, "counts": [str(c) for c in counts]})
    return 0


def cmd_poincare(args) -> int:
    spec = parse_spec_full(args.group)
    g, v = spec.group, spec.module
    lam = _node_index(spec, args.lam)
    if args.method == "cramer":
        rf = poincare_cramer(mckay_adjacency(g, v), lam)
    elif args.method == "character":
        rf = poincare_character(g, v, lam)
    else:  # paper
        if spec.kind not in ("gl2", "sl2") or lam != 0:
            raise UnsupportedQueryError(
                "--method paper provides only the GL2/SL2 invariant series")
        _, poincare, which = linear_group_forms(spec)
        rf = poincare(spec.params["q"], which)
    num, den = rf.display_pair()
    emit({"group": g.name, "lambda": lam, "method": args.method,
          "num": num.to_text(), "den": den.to_text(),
          "ratfunc": {"num": [str(Fraction(c)) for c in num.coeffs],
                      "den": [str(Fraction(c)) for c in den.coeffs]},
          "unreduced_degree": g.n_classes})
    return 0


def cmd_egf(args) -> int:
    _require_nonnegative("--order", args.order)
    spec = parse_spec_full(args.group)
    if spec.kind == "abelian":
        radii = spec.params["radii"]
        target = _parse_target(args.target, radii) if args.target else (0,) * len(radii)
        egf = egf_product([egf_hyperbolic(1 + c, r, args.order)
                           for c, r in zip(target, radii)])
    elif spec.kind == "wreath" and not args.target:
        egf = cf.wreath_invariants_egf(spec.params["r"], spec.params["n"], args.order)
    else:
        raise UnsupportedQueryError(
            "EGFs are defined here for abelian groups and, without --target, "
            "wreath-product groups")
    emit({"group": spec.group.name, "order": egf.order,
          "coeffs": [str(c) for c in egf.coeffs]})
    return 0


def _parse_target(text: str, radii) -> tuple[int, ...]:
    """An element of Z_r1 x ... x Z_rn given as comma-separated components."""
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SpecError(f"bad target {text!r}; expected comma-separated integers") from exc
    if len(parts) != len(radii):
        raise SpecError(f"target needs {len(radii)} components, got {len(parts)}")
    for t, r in zip(parts, radii):
        if not 0 <= t < r:
            raise SpecError(f"target component {t} out of range for Z{r}")
    return parts


def cmd_bratteli(args) -> int:
    spec = parse_spec_full(args.group)
    bd = bratteli(spec.group, spec.module, args.levels)
    if args.format == "dot":
        sys.stdout.write(bratteli_dot(bd) + "\n")
    else:
        sys.stdout.write(bd.to_json() + "\n")
    return 0


def cmd_quiver(args) -> int:
    spec = parse_spec_full(args.group)
    a = mckay_adjacency(spec.group, spec.module)
    if args.format == "dot":
        sys.stdout.write(quiver_dot(spec.group, a) + "\n")
    else:
        labels = [i.label for i in spec.group.irreps]
        sys.stdout.write(a.to_json(labels) + "\n")
    return 0


def cmd_group(args) -> int:
    spec = parse_spec_full(args.group)
    sys.stdout.write(group_to_json(spec.group, spec.module) + "\n")
    return 0


def emit_basis(name: str, k: int, elements) -> None:
    """Write what `emit` writes for the `diagalg --list` payload, byte for
    byte, without building it: each distinct word is rendered once."""
    words: dict[tuple[int, ...], str] = {}

    def word(w):
        text = words.get(w)
        if text is None:
            text = words[w] = ("[\n        " + ",\n        ".join(map(str, w)) + "\n      ]"
                               if w else "[]")
        return text

    out = sys.stdout
    out.write(f'{{\n  "group": {json.dumps(name)},\n  "k": {k},\n'
              f'  "count": "{len(elements)}",\n  "elements": ')
    if not elements:
        out.write("[]\n}\n")
        return
    out.write("[\n")
    out.write(",\n".join(f'    {{\n      "bottom": {word(e.bottom)},\n'
                          f'      "top": {word(e.top)}\n    }}' for e in elements))
    out.write("\n  ]\n}\n")


# most words, and most basis elements, that `diagalg --list` writes out
LIST_LIMIT = 10**6


def cmd_diagalg(args) -> int:
    spec = parse_spec_full(args.group)
    if spec.kind != "abelian":
        raise UnsupportedQueryError(
            "the diagram basis is defined for abelian groups with the "
            "coordinate module (use ZaxZb... or hypercube(n))")
    radii = spec.params["radii"]
    target = _parse_target(args.target, radii) if args.target else None
    if args.list:
        n = len(radii)
        # n^k words, with k capped exactly: for n >= 2, n^k > LIST_LIMIT
        # once k reaches its bit length; a negative k fails in basis_count
        words = n ** min(max(args.k, 0), LIST_LIMIT.bit_length())
        if words > LIST_LIMIT or basis_count(radii, args.k, target) > LIST_LIMIT:
            raise UnsupportedQueryError(
                f"--list lists at most {LIST_LIMIT} words and {LIST_LIMIT} elements; "
                f"{n}^{args.k} words or their basis exceed that (omit --list to count)")
        emit_basis(spec.group.name, args.k, enumerate_basis(radii, args.k, target))
    else:
        emit({"group": spec.group.name, "k": args.k,
              "count": str(basis_count(radii, args.k, target))})
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = 0
    for r in results:
        if r.ok:
            sys.stdout.write(f"PASS {r.name}\n")
        else:
            failures += 1
            sys.stdout.write(f"FAIL {r.name}: {r.detail}\n")
    sys.stdout.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 0 if failures == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorwalks",
        description="Exact walk counts, multiplicities, and Poincare series "
                    "on McKay quivers of finite groups.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_group(p):
        p.add_argument("--group", required=True,
                       help="group spec, e.g. Z10, Z4xZ2, S4, Z2wrS2, GL2(3), "
                            "SL2(3)@steinberg, paley(13), circulant(10;1,9), hypercube(3)")

    p = sub.add_parser("walks", help="count k-step walks between quiver nodes")
    add_group(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--from", dest="frm", default="0")
    p.add_argument("--to", dest="to", default="0")
    p.add_argument("--method", choices=("auto",) + ROUTES, default="auto")
    p.set_defaults(func=cmd_walks)

    p = sub.add_parser("dims", help="multiplicities of every irrep at tensor depth k")
    add_group(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("invariants", help="invariant dimensions for k = 0..K")
    add_group(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("poincare", help="Poincare series of walk multiplicities")
    add_group(p)
    p.add_argument("--lambda", dest="lam", default="0")
    p.add_argument("--method", choices=("cramer", "character", "paper"),
                   default="character")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("egf", help="exponential generating function coefficients")
    add_group(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--target", help="comma-separated target element (abelian only)")
    p.set_defaults(func=cmd_egf)

    p = sub.add_parser("bratteli", help="branching diagram for levels 0..K")
    add_group(p)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_bratteli)

    p = sub.add_parser("quiver", help="adjacency matrix of the McKay quiver")
    add_group(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("group", help="serialize the group and module data")
    add_group(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("diagalg", help="diagram basis of the centralizer algebra")
    add_group(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", help="comma-separated target element")
    p.add_argument("--list", action="store_true", help="materialize the elements")
    p.set_defaults(func=cmd_diagalg)

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # counts are exact and printed in full, past Python's default cap of 4300
    # digits on int -> str; the caller's cap is restored on return
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UnsupportedQueryError as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return 3
    except ConsistencyError as exc:
        sys.stderr.write(f"consistency failure: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    sys.exit(main())
