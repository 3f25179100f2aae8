"""Command-line interface.

Exit codes: 0 success; 2 parse/usage error; 3 unsupported combination for the
group's data tier, or a `diagalg --list` too large to write out; 4 internal
consistency failure (cross-checking routes gave different counts -- never
ignored).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import ConsistencyError, SpecError, UnsupportedQueryError
from .groups import ParsedSpec, parse_spec_full
from .quiver import bratteli, mckay_adjacency, power_rows
from .series import egf_hyperbolic, egf_product, poincare_character, poincare_cramer

# Every query is a fresh process, so the modules of one verb alone (routes
# and closedforms, diagrams, verify) are imported inside the commands that
# use them, and argparse and json only on the lines and values that need them.


def _require_nonnegative(option: str, value: int) -> None:
    if value < 0:
        raise SpecError(f"{option} must be nonnegative, got {value}")


def _dumps(x, pad: str = "\n") -> str:
    """`json.dumps(x, indent=2)`, byte for byte, with every line after the
    first indented as `pad` says.  Str-keyed dicts, lists, tuples, ints and
    printable ASCII strings without quote or backslash are written here;
    anything else is handed to `json`, whose output holds no raw newline."""
    t = type(x)
    if t is str:
        if x.isascii() and x.isprintable() and '"' not in x and "\\" not in x:
            return f'"{x}"'
    elif t is int:
        return str(x)
    elif t is list or t is tuple:
        if not x:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in x]) + pad + "]"
    elif t is dict and all(type(k) is str for k in x):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [f"{_dumps(k)}: {_dumps(v, inner)}" for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    import json

    return json.dumps(x, indent=2).replace("\n", pad)


def emit(payload) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


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
    from .routes import ROUTES, walk_routes

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
    from .routes import walk_routes

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
        from .routes import linear_group_forms

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
        from .closedforms import wreath_invariants_egf

        egf = wreath_invariants_egf(spec.params["r"], spec.params["n"], args.order)
    else:
        raise UnsupportedQueryError(
            "EGFs are defined here for abelian groups with the coordinate module "
            "(ZaxZb... or hypercube(n)) and, without --target, wreath products "
            "(ZrwrSn)")
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
    out.write(f'{{\n  "group": {_dumps(name)},\n  "k": {k},\n'
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
    from .diagrams import basis_count, enumerate_basis

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
    from .verify import run_suite

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
               # "auto" and the routes of routes.ROUTES
               ("--method", {"choices": ("auto", "matrix", "character", "closed"),
                             "default": "auto"}))),
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


def build_parser():
    """The argparse parser of the command line, one subparser per verb."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tensorwalks",
        description="Exact walk counts, multiplicities, and Poincare series "
                    "on McKay quivers of finite groups.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (summary, func, options) in VERBS.items():
        p = sub.add_parser(verb, help=summary)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _read(verb: str, words: list[str]):
    """The namespace argparse makes of `verb` followed by `words`, when every
    word is an exact option name of the verb followed by its value (none for
    a flag), each option given at most once and every required one present;
    otherwise None.  A value must not start with "-" and must convert by the
    option's `type` into its `choices`."""
    _, func, options = VERBS[verb]
    table = dict(options)
    given = {}
    it = iter(words)
    for word in it:
        kwargs = table.get(word)
        if kwargs is None or word in given:
            return None
        if kwargs.get("action") == "store_true":
            given[word] = True
            continue
        value = next(it, "-")  # a missing value reads as "-"
        if value.startswith("-"):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[word] = value
    values = {"verb": verb, "func": func}
    for flag, kwargs in options:
        if flag not in given and kwargs.get("required"):
            return None
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        values[kwargs.get("dest", flag[2:])] = given.get(flag, default)
    return SimpleNamespace(**values)


def parse_args(argv: list[str]):
    """What `build_parser().parse_args(argv)` returns, and on a bad command
    line the same message and exit.  A line of exact option names and plain
    values is read from `VERBS` without argparse; every other line (help,
    abbreviations, `--opt=value`, values starting with "-", every error)
    goes to the full parser, whose usage line names every verb."""
    args = _read(argv[0], argv[1:]) if argv and argv[0] in VERBS else None
    return args if args is not None else build_parser().parse_args(argv)


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


def _flushed() -> bool:
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        return False
    return True


def run() -> int:
    """The process entry (`python -m tensorwalks`, the `tensorwalks` script):
    `main` on `sys.argv`, then an exit without the interpreter's teardown of
    every module.  Standard output and error are flushed and the atexit
    callbacks run, as at a normal exit; if a flush fails, the code is
    returned and the interpreter reports the failure as it always does.  A
    pipe closed while `main` writes ends the output quietly with code 1.  A
    caller that lives on calls `main`."""
    try:
        code = main()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if _flushed():
        import atexit

        atexit._run_exitfuncs()
        if _flushed():
            os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(run())
