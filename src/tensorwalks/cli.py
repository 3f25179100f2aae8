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

from . import closedforms as cf
from .diagrams import basis_count, enumerate_basis
from .errors import ConsistencyError, SpecError, UnsupportedQueryError
from .groups import ParsedSpec, parse_spec_full
from .quiver import bratteli, mckay_adjacency, power_rows
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
    row = power_rows(mckay_adjacency(g, v), 0, range(args.k, args.k + 1))[0]
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
    emit({"group": g.name, "lambda": lam, "method": args.method,
          "num": rf.num.to_text(), "den": rf.den.to_text(),
          "ratfunc": {"num": [str(c) for c in rf.num.coeffs],
                      "den": [str(c) for c in rf.den.coeffs]},
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
    labels = [i.label for i in spec.group.irreps]
    if args.format == "dot":
        sys.stdout.write(bratteli_dot(labels, bd) + "\n")
    else:
        emit({"group": spec.group.name,
              "levels": [[{"label": labels[i], "multiplicity": str(m)} for i, m in level]
                         for level in bd.levels],
              "edges": [[{"from": labels[a], "to": labels[b], "count": str(c)} for a, b, c in lv]
                        for lv in bd.edges],
              "algebra_dims": [str(d) for d in bd.algebra_dims]})
    return 0


def cmd_quiver(args) -> int:
    spec = parse_spec_full(args.group)
    a = mckay_adjacency(spec.group, spec.module)
    labels = [i.label for i in spec.group.irreps]
    if args.format == "dot":
        sys.stdout.write(quiver_dot(labels, a) + "\n")
    else:
        emit({"dim": len(a), "entries": [[str(e) for e in row] for row in a],
              "labels": labels})
    return 0


def cmd_group(args) -> int:
    spec = parse_spec_full(args.group)
    g = spec.group
    emit({"name": g.name, "order": str(g.order), "tier": g.tier,
          "classes": [{"label": c.label, "size": str(c.size)} for c in g.classes],
          "chi_V": [v.to_text() for v in spec.module.values]})
    return 0


def quiver_dot(labels, a) -> str:
    """Graphviz rendering.  Symmetric pairs are drawn once without direction
    (per-pair convention); asymmetric pairs keep their arrows.  Loops allowed."""
    lines = ["digraph quiver {"]
    for i, lab in enumerate(labels):
        lines.append(f'  n{i} [label="{lab}"];')
    n = len(a)
    for i in range(n):
        for j in range(i, n):
            fwd, bwd = a[i][j], a[j][i]
            if i == j:
                lines.extend(f"  n{i} -> n{i};" for _ in range(fwd))
            elif fwd == bwd:
                lines.extend(f"  n{i} -> n{j} [dir=none];" for _ in range(fwd))
            else:
                lines.extend(f"  n{i} -> n{j};" for _ in range(fwd))
                lines.extend(f"  n{j} -> n{i};" for _ in range(bwd))
    lines.append("}")
    return "\n".join(lines)


def bratteli_dot(labels, bd) -> str:
    lines = ["graph bratteli {", "  rankdir=TB;"]
    for k, level in enumerate(bd.levels):
        names = " ".join(f"k{k}_{i}" for i, _ in level)
        lines.append(f"  {{ rank=same; {names} }}")
        for i, m in level:
            lines.append(f'  k{k}_{i} [label="{labels[i]} ({m})"];')
    for k, step in enumerate(bd.edges):
        present_prev = {i for i, _ in bd.levels[k]}
        present_next = {i for i, _ in bd.levels[k + 1]}
        for a_i, b_i, c in step:
            if a_i in present_prev and b_i in present_next:
                lines.extend(f"  k{k}_{a_i} -- k{k + 1}_{b_i};" for _ in range(c))
    lines.append("}")
    return "\n".join(lines)


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


_GROUP = ("--group", {"required": True,
                      "help": "group spec, e.g. Z10, Z4xZ2, S4, Z2wrS2, GL2(3), "
                              "SL2(3)@steinberg, paley(13), circulant(10;1,9), hypercube(3)"})
_K = ("--k", {"type": int, "required": True})
_CSV = ("--csv", {"action": "store_true"})
_FORMAT = ("--format", {"choices": ("json", "dot"), "default": "json"})

# verb -> (help, command, options), in the order of the usage line
VERBS = {
    "walks": ("count k-step walks between quiver nodes", cmd_walks,
              (_GROUP, _K, ("--from", {"dest": "frm", "default": "0"}),
               ("--to", {"default": "0"}),
               ("--method", {"choices": ("auto",) + ROUTES, "default": "auto"}))),
    "dims": ("multiplicities of every irrep at tensor depth k", cmd_dims, (_GROUP, _K, _CSV)),
    "invariants": ("invariant dimensions for k = 0..K", cmd_invariants, (_GROUP, _K, _CSV)),
    "poincare": ("Poincare series of walk multiplicities", cmd_poincare,
                 (_GROUP, ("--lambda", {"dest": "lam", "default": "0"}),
                  ("--method", {"choices": ("cramer", "character", "paper"),
                                "default": "character"}))),
    "egf": ("exponential generating function coefficients", cmd_egf,
            (_GROUP, ("--order", {"type": int, "required": True}),
             ("--target", {"help": "comma-separated target element (abelian only)"}))),
    "bratteli": ("branching diagram for levels 0..K", cmd_bratteli,
                 (_GROUP, ("--levels", {"type": int, "required": True}), _FORMAT)),
    "quiver": ("adjacency matrix of the McKay quiver", cmd_quiver, (_GROUP, _FORMAT)),
    "group": ("serialize the group and module data", cmd_group, (_GROUP,)),
    "diagalg": ("diagram basis of the centralizer algebra", cmd_diagalg,
                (_GROUP, _K, ("--target", {"help": "comma-separated target element"}),
                 ("--list", {"action": "store_true", "help": "materialize the elements"}))),
    "verify": ("run a cross-check suite", cmd_verify, (("--suite", {"default": "all"}),)),
}


def build_parser(verbs=VERBS) -> argparse.ArgumentParser:
    """The parser of the command line, with subparsers for `verbs` only."""
    parser = argparse.ArgumentParser(
        prog="tensorwalks",
        description="Exact walk counts, multiplicities, and Poincare series "
                    "on McKay quivers of finite groups.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in verbs:
        summary, func, options = VERBS[verb]
        p = sub.add_parser(verb, help=summary)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def parse_args(argv: list[str]):
    """What `build_parser().parse_args(argv)` returns, and on a bad command
    line the same message and exit.  A query builds the parser of its own
    verb alone; only a command line that it does not take entirely (no verb
    first, or arguments left over) is parsed again by the full parser, whose
    usage line names every verb."""
    if argv and argv[0] in VERBS:
        args, rest = build_parser(argv[:1]).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    # counts are exact and printed in full, past Python's default cap of 4300
    # digits on int -> str; the caller's cap is restored on return
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
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


def run() -> int:
    """The process entry (`python -m tensorwalks`, the `tensorwalks` script):
    `main` on `sys.argv`, then every object left is frozen, so that the
    interpreter's last cyclic collection at exit walks none of them.  A
    caller that lives on calls `main`, which leaves the collector alone."""
    import gc

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
