"""The route engine: runs the walk-counting routes that apply to a parsed
spec and checks that their sequences agree.  The CLI's `walks` and
`invariants` verbs and the `verify` suites all count through it; `agree` is
the one comparison of labelled sequences, also for the `verify` references."""

from __future__ import annotations

from . import closedforms as cf
from .combinatorics import partitions_of
from .errors import ConsistencyError, UnsupportedQueryError
from .groups import FULL, ParsedSpec, abelian_elements
from .quiver import mckay_adjacency, power_rows, walk_counts_character


def closed_walks(spec: ParsedSpec, ks: range, frm: int, targets) -> list[tuple[str, list[list[int]]]]:
    """Every family closed form that applies, as (label, counts over ks per target)."""
    out = []
    kind, params = spec.kind, spec.params
    if kind == "cyclic":
        out.append(("closed:binomial", cf.cyclic_walks(params["r"], ks, frm, targets)))
    elif kind in ("abelian", "circulant", "paley"):
        radii = params["radii"]
        elements = abelian_elements(radii)
        diffs = [tuple((c - a) % r for a, c, r in zip(elements[frm], elements[to], radii))
                 for to in targets]
        out.append(("closed:multinomial", cf.group_ring_walks(radii, params["steps"], ks, diffs)))
        if kind == "paley":
            out.append(("closed:gauss-sum",
                        cf.paley_closed_form(params["p"], ks, [to - frm for to in targets])))
    elif kind == "symmetric" and frm == 0:
        n, shapes = params["n"], partitions_of(params["n"])
        out.append(("closed:stirling-kostka", cf.sn_irrep_dim_formula(n, ks, [shapes[to] for to in targets])))
    elif kind == "wreath" and frm == 0 and targets == [0]:
        out.append(("closed:wreath", [cf.wreath_invariants(params["r"], params["n"], ks)]))
    elif kind in ("gl2", "sl2") and frm == 0 and targets == [0]:
        dims = cf.gl2_dims if kind == "gl2" else cf.sl2_dims
        out.append(("closed:linear-group", [[dims(params["q"], k, params["which"]) for k in ks]]))
    return out


ROUTES = ("matrix", "character", "closed")


def walk_routes(spec: ParsedSpec, ks: range, frm: int, targets,
                methods) -> list[list[tuple[str, list[int]]]]:
    """Run each route in `methods` that applies over every k in `ks`, once
    for all of `targets`, and check that their sequences agree target by
    target; with several targets, a disagreement names the node.

    The matrix power needs a full character table; the character sum reads
    the rows of `frm` and the targets, and an invariant-tier group refuses
    any row past node 0; "closed" runs every family closed form that applies.
    When none applies, those rows are read before the generic refusal, so a
    row an invariant-tier group lacks is named.  Only the matrix and
    character routes and the refusal read the spec's group and module; the
    closed forms read its params.
    Returns, for each target, (route label, counts) pairs in the order above."""
    targets = list(targets)
    routes: list[tuple[str, list[list[int]]]] = []
    if "matrix" in methods and spec.group.tier == FULL:
        rows = power_rows(mckay_adjacency(spec.group, spec.module), frm, ks)
        routes.append(("matrix", [[row[to] for row in rows] for to in targets]))
    if "character" in methods:
        routes.append(("character", walk_counts_character(spec.group, spec.module, ks, frm, targets)))
    if "closed" in methods:
        routes.extend(closed_walks(spec, ks, frm, targets))
    if not routes:
        g = spec.group
        for node in (frm, *targets):
            g.row(node)  # an invariant-tier group names the row it lacks
        raise UnsupportedQueryError(
            f"no route among {', '.join(methods)} applies to {g.name} "
            f"({g.tier} tier) from node {frm} to {', '.join(map(str, targets))}")
    results = [[(label, counts[i]) for label, counts in routes] for i in range(len(targets))]
    for to, pairs in zip(targets, results):
        agree(pairs, ks, f"node {to}" if len(targets) > 1 else "")
    return results


def agree(results, ks, context: str = "") -> None:
    """Raise ConsistencyError at the first k in `ks` where the sequences of
    `results`, (label, counts over ks) pairs, differ; the message names each
    label's count there, after `context` when one is given."""
    for i, k in enumerate(ks):
        if len({counts[i] for _, counts in results}) != 1:
            prefix = f"{context}: " if context else ""
            raise ConsistencyError(
                f"{prefix}routes disagree at k={k}: {[(label, counts[i]) for label, counts in results]}")
