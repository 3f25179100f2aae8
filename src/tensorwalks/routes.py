"""The route engine: runs the walk-counting routes that apply to a parsed
spec and checks that their sequences agree.  The CLI's `walks` and
`invariants` verbs and the `verify` suites all count through it."""

from __future__ import annotations

from . import closedforms as cf
from .combinatorics import partitions_of
from .errors import ConsistencyError, UnsupportedQueryError
from .groups import FULL, ParsedSpec, abelian_elements
from .quiver import mckay_adjacency, power_rows, walk_counts_character


def linear_group_forms(spec: ParsedSpec):
    """(dims, poincare, which): the closed forms of a GL2 or SL2 spec, and
    the module, induced or Steinberg, that it names."""
    forms = (cf.gl2_dims, cf.gl2_poincare) if spec.kind == "gl2" else (cf.sl2_dims, cf.sl2_poincare)
    return (*forms, cf.STEINBERG if spec.steinberg else cf.INDUCED)


def closed_walks(spec: ParsedSpec, ks: range, frm: int, to: int) -> list[tuple[str, list[int]]]:
    """Every family closed form that applies, as (label, counts over ks)."""
    out = []
    kind, params = spec.kind, spec.params
    if kind == "cyclic":
        out.append(("closed:binomial", [cf.cyclic_walks(params["r"], k, frm, to) for k in ks]))
    elif kind in ("abelian", "circulant", "paley"):
        radii = params["radii"]
        elements = abelian_elements(radii)
        diff = tuple((c - a) % r for a, c, r in zip(elements[frm], elements[to], radii))
        out.append(("closed:multinomial", cf.group_ring_walks(radii, params["steps"], ks, diff)))
        if kind == "paley":
            out.append(("closed:gauss-sum", cf.paley_closed_form(params["p"], to - frm, ks)))
    elif kind == "symmetric" and frm == 0:
        lam = partitions_of(params["n"])[to]
        out.append(("closed:stirling-kostka", [cf.sn_irrep_dim_formula(params["n"], k, lam) for k in ks]))
    elif kind == "wreath" and frm == 0 and to == 0:
        out.append(("closed:wreath", [cf.wreath_invariants(params["r"], params["n"], k) for k in ks]))
    elif kind in ("gl2", "sl2") and frm == 0 and to == 0:
        dims, _, which = linear_group_forms(spec)
        out.append(("closed:linear-group", [dims(params["q"], k, which) for k in ks]))
    return out


ROUTES = ("matrix", "character", "closed")


def walk_routes(spec: ParsedSpec, ks: range, frm: int, to: int, methods) -> list[tuple[str, list[int]]]:
    """Run each route in `methods` that applies over every k in `ks` and
    check that their sequences agree.

    The matrix power needs a full character table; the character sum reads
    the rows of `frm` and `to`, and an invariant-tier group refuses any row
    past node 0; "closed" runs every family closed form that applies.
    Returns (route label, counts) pairs in the order above."""
    g, v = spec.group, spec.module
    results: list[tuple[str, list[int]]] = []
    if "matrix" in methods and g.tier == FULL:
        rows = power_rows(mckay_adjacency(g, v), frm, ks)
        results.append(("matrix", [row[to] for row in rows]))
    if "character" in methods:
        results.append(("character", walk_counts_character(g, v, ks, frm, to)))
    if "closed" in methods:
        results.extend(closed_walks(spec, ks, frm, to))
    if not results:
        raise UnsupportedQueryError(
            f"no route among {', '.join(methods)} applies to {g.name} "
            f"({g.tier} tier) from node {frm} to {to}")
    for i, k in enumerate(ks):
        if len({counts[i] for _, counts in results}) != 1:
            raise ConsistencyError(
                f"routes disagree at k={k}: {[(label, counts[i]) for label, counts in results]}")
    return results
