"""Expected answers for benchmark queries, by a route the query did not use.

Cyclic, abelian, hypercube, circulant and Paley groups get a plain-integer
walk count on the Cayley graph of the dual group, which shares no code with
the library.  The other families use a library route other than the one the
query ran: the character route for matrix queries on S_n, the Stirling-Kostka
sum (plain Stirling numbers, library Kostka numbers) for the others on S_n,
the EGF route for wreath products, and the published Poincare series or the
closed forms for GL2/SL2.

`Oracle.checker(argv)` does all the work up front and returns a function of
the query's standard output that gives None when it is right and a reason
when it is not.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import factorial

from workloads import partitions_count


def _options(argv: list[str]) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i]] = True
            i += 1
    return opts


class Cayley:
    """Quiver of an abelian group with a module that sums characters: node a
    steps to node a + s for every connection element s, with multiplicity."""

    def __init__(self, radii: tuple[int, ...], steps: list[tuple[int, ...]]):
        self.elements = list(itertools.product(*(range(r) for r in radii)))
        index = {e: i for i, e in enumerate(self.elements)}
        self.succ = [[index[tuple((x + s) % r for x, s, r in zip(e, step, radii))]
                      for step in steps] for e in self.elements]
        self.labels = [str(e[0]) if len(radii) == 1 else str(e) for e in self.elements]
        self.index = index

    def vectors(self, source: int, k: int) -> list[list[int]]:
        """Walk counts from `source` to every node after 0..k steps."""
        v = [0] * len(self.elements)
        v[source] = 1
        out = [v]
        for _ in range(k):
            nxt = [0] * len(v)
            for i, c in enumerate(v):
                if c:
                    for j in self.succ[i]:
                        nxt[j] += c
            v = nxt
            out.append(v)
        return out

    def adjacency(self) -> list[list[int]]:
        n = len(self.elements)
        rows = [[0] * n for _ in range(n)]
        for i, targets in enumerate(self.succ):
            for j in targets:
                rows[i][j] += 1
        return rows


def cayley(spec: str) -> Cayley | None:
    """The Cayley-graph description of a spec, or None outside those families."""
    m = re.fullmatch(r"Z(\d+)", spec)
    if m:
        r = int(m[1])
        return Cayley((r,), [(1,), (r - 1,)])
    m = re.fullmatch(r"circulant\((\d+);([\d,]+)\)", spec)
    if m:
        return Cayley((int(m[1]),), [(int(s),) for s in m[2].split(",")])
    m = re.fullmatch(r"paley\((\d+)\)", spec)
    if m:
        p = int(m[1])
        return Cayley((p,), [(s,) for s in sorted({x * x % p for x in range(1, p)})])
    m = re.fullmatch(r"hypercube\((\d+)\)", spec)
    radii = (2,) * int(m[1]) if m else None
    if re.fullmatch(r"Z\d+(xZ\d+)+", spec):
        radii = tuple(int(x) for x in spec[1:].split("xZ"))
    if radii is None:
        return None
    units = [tuple(int(i == j) for i in range(len(radii))) for j in range(len(radii))]
    return Cayley(radii, units)


def stirling_rows(k_max: int) -> list[list[int]]:
    """Stirling numbers of the second kind: rows[k][j] = {k, j} for j <= k."""
    rows = [[1]]
    for k in range(1, k_max + 1):
        prev = rows[-1]
        rows.append([0] + [(j * prev[j] if j < k else 0) + prev[j - 1] for j in range(1, k + 1)])
    return rows


def series_coefficients(num: list[Fraction], den: list[Fraction], count: int) -> list[Fraction]:
    out: list[Fraction] = []
    for k in range(count):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def _sequence_check(got: list, expected: list, what: str) -> str | None:
    if len(got) != len(expected):
        return f"{what}: {len(got)} values, expected {len(expected)}"
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return f"{what}[{i}] = {a}, expected {b}"
    return None


class Oracle:
    """Computes expected answers; caches the library groups it builds."""

    def __init__(self):
        from tensorwalks import closedforms
        from tensorwalks.combinatorics import kostka_hook_content, partitions_of
        from tensorwalks.groups import parse_spec_full
        from tensorwalks.quiver import walk_count_character

        self._cf = closedforms
        self._partitions_of = partitions_of
        self._kostka = kostka_hook_content
        self._parse = parse_spec_full
        self._character = walk_count_character
        self._specs: dict = {}
        self._cayley: dict = {}

    def _spec(self, text: str):
        if text not in self._specs:
            self._specs[text] = self._parse(text)
        return self._specs[text]

    def _graph(self, text: str) -> Cayley | None:
        if text not in self._cayley:
            self._cayley[text] = cayley(text)
        return self._cayley[text]

    # -- expected walk counts ------------------------------------------------

    def _linear(self, spec, k_max: int, route: str) -> list[int]:
        """Invariant counts of GL2/SL2 by the published series or closed forms."""
        cf, q = self._cf, spec.params["q"]
        which = cf.STEINBERG if spec.steinberg else cf.INDUCED
        if route == "closed":
            dims = cf.gl2_dims if spec.kind == "gl2" else cf.sl2_dims
            return [dims(q, k, which) for k in range(k_max + 1)]
        rf = (cf.gl2_poincare if spec.kind == "gl2" else cf.sl2_poincare)(q, which)
        return [int(c) for c in rf.series(k_max)]

    def _wreath_egf(self, spec, k_max: int) -> list[int]:
        egf = self._cf.wreath_invariants_egf(spec.params["r"], spec.params["n"], k_max)
        if any(c.denominator != 1 for c in egf.coeffs):
            raise ValueError(f"EGF route gave a non-integer count for {spec.group.name}")
        return [int(c) for c in egf.coeffs]

    def walks(self, text: str, frm: int, to: int, k_max: int, used: str) -> list[int]:
        """Walk counts frm -> to for k = 0..k_max by a route other than `used`."""
        graph = self._graph(text)
        if graph is not None:
            return [v[to] for v in graph.vectors(frm, k_max)]
        spec = self._spec(text)
        g, v = spec.group, spec.module
        if spec.kind == "symmetric":
            n = spec.params["n"]
            if used == "matrix":
                return [self._character(g, v, k, frm, to) for k in range(k_max + 1)]
            if frm != 0:
                raise ValueError("the benchmark asks S_n character walks only from node 0")
            # Stirling-Kostka: sum over l of {k, l} K(lam, (n - l, 1^l)); the
            # Kostka numbers are 1 for the trivial irrep (to = 0).
            kostka = ([1] * (n + 1) if to == 0 else
                      [self._kostka(self._partitions_of(n)[to], l) for l in range(n + 1)])
            return [sum(s * c for s, c in zip(row, kostka)) for row in stirling_rows(k_max)]
        if frm != 0 or to != 0:
            raise ValueError(f"{text} supports only the invariant walk count")
        if spec.kind == "wreath":
            return self._wreath_egf(spec, k_max)
        if spec.kind in ("gl2", "sl2"):
            return self._linear(spec, k_max, "closed" if used == "paper" else "paper")
        raise ValueError(f"no reference route for {text}")

    def dims_rows(self, text: str, levels: int) -> tuple[list[str], list[list[int]]]:
        """Irrep labels and the walk counts from node 0 at depths 0..levels."""
        graph = self._graph(text)
        if graph is not None:
            return graph.labels, graph.vectors(0, levels)
        spec = self._spec(text)
        g, v = spec.group, spec.module
        rows = [[self._character(g, v, k, 0, lam) for lam in range(g.n_classes)]
                for k in range(levels + 1)]
        return [i.label for i in g.irreps], rows

    def n_classes(self, text: str) -> int:
        graph = self._graph(text)
        return len(graph.elements) if graph is not None else self._spec(text).group.n_classes

    # -- checkers ---------------------------------------------------------------

    def checker(self, argv: list[str]):
        verb, opts = argv[0], _options(argv)
        if verb == "verify":
            return _check_verify
        return getattr(self, f"_check_{verb}")(opts["--group"], opts)

    def _check_walks(self, text, opts):
        k, frm, to = int(opts["--k"]), int(opts.get("--from", 0)), int(opts.get("--to", 0))
        expected = self.walks(text, frm, to, k, opts.get("--method", "auto"))[k]

        def check(doc):
            if not doc["methods"]:
                return "no method reported"
            return None if int(doc["count"]) == expected else f"count {doc['count']}, expected {expected}"
        return _json_checker(check)

    def _check_dims(self, text, opts):
        k = int(opts["--k"])
        labels, rows = self.dims_rows(text, k)

        def check(doc):
            got = [(d["label"], int(d["count"])) for d in doc["dims"]]
            return _sequence_check(got, list(zip(labels, rows[k])), "dims")
        return _json_checker(check)

    def _check_bratteli(self, text, opts):
        levels = int(opts["--levels"])
        labels, rows = self.dims_rows(text, levels)
        expected = [[(labels[i], m) for i, m in enumerate(row) if m] for row in rows]
        dims = [sum(m * m for m in row) for row in rows]

        def check(doc):
            got = [[(e["label"], int(e["multiplicity"])) for e in level] for level in doc["levels"]]
            return (_sequence_check(got, expected, "levels")
                    or _sequence_check([int(d) for d in doc["algebra_dims"]], dims, "algebra_dims"))
        return _json_checker(check)

    def _check_quiver(self, text, opts):
        graph = self._graph(text)
        if graph is not None:
            expected = graph.adjacency()
        else:
            spec = self._spec(text)
            n = spec.group.n_classes
            expected = [[self._character(spec.group, spec.module, 1, i, j) for j in range(n)]
                        for i in range(n)]

        def check(doc):
            got = [[int(e) for e in row] for row in doc["entries"]]
            return _sequence_check(got, expected, "entries")
        return _json_checker(check)

    def _check_invariants(self, text, opts):
        k = int(opts["--k"])
        expected = self.walks(text, 0, 0, k, "auto")

        def check(doc):
            return _sequence_check([int(c) for c in doc["counts"]], expected, "counts")
        return _json_checker(check)

    def _check_egf(self, text, opts):
        order = int(opts["--order"])
        graph = self._graph(text)
        if graph is not None:
            target = tuple(int(x) for x in opts["--target"].split(","))
            counts = [v[graph.index[target]] for v in graph.vectors(0, order)]
        else:
            spec = self._spec(text)
            counts = [self._character(spec.group, spec.module, k, 0, 0) for k in range(order + 1)]

        def check(doc):
            # Coefficients are of t^k / k!, so they are the walk counts themselves.
            return _sequence_check([Fraction(c) for c in doc["coeffs"]], counts, "coeffs")
        return _json_checker(check)

    def _check_poincare(self, text, opts):
        lam, method = int(opts.get("--lambda", 0)), opts.get("--method", "character")
        # Two rational functions of degree at most d and n agree when their
        # first d + n + 1 coefficients do; n bounds the true series' degree.
        n = self.n_classes(text)
        expected = self.walks(text, 0, lam, 2 * n + 1, method)

        def check(doc):
            num = [Fraction(c) for c in doc["ratfunc"]["num"]]
            den = [Fraction(c) for c in doc["ratfunc"]["den"]]
            count = max(len(num), len(den)) + n + 1
            if count > len(expected):
                return f"series of degree {max(len(num), len(den)) - 1} exceeds the class count"
            return _sequence_check(series_coefficients(num, den, count), expected[:count], "series")
        return _json_checker(check)

    def _check_diagalg(self, text, opts):
        k = int(opts["--k"])
        expected = sum(m * m for m in self._graph(text).vectors(0, k)[k])

        def check(doc):
            if int(doc["count"]) != expected:
                return f"count {doc['count']}, expected {expected}"
            if "--list" in opts and len(doc["elements"]) != expected:
                return f"{len(doc['elements'])} elements listed, expected {expected}"
            return None
        return _json_checker(check)

    def _check_group(self, text, opts):
        order, classes = group_size(text)

        def check(doc):
            sizes = [int(c["size"]) for c in doc["classes"]]
            if int(doc["order"]) != order or sum(sizes) != order or len(sizes) != classes:
                return f"order {doc['order']} with {len(sizes)} classes, expected {order} and {classes}"
            return None
        return _json_checker(check)


def group_size(text: str) -> tuple[int, int]:
    """(order, number of conjugacy classes) of the groups the benchmark names."""
    m = re.fullmatch(r"(GL2|SL2)\((\d+)\)(@steinberg)?", text)
    if m:
        q = int(m[2])
        return ((q * q - 1) * (q * q - q), q * q - 1) if m[1] == "GL2" else (q * (q * q - 1), q + 4)
    m = re.fullmatch(r"S(\d+)", text)
    if m:
        return factorial(int(m[1])), partitions_count(int(m[1]))
    graph = cayley(text)
    if graph is None:
        raise ValueError(f"no reference group size for {text}")
    return len(graph.elements), len(graph.elements)


def _json_checker(check):
    def run(stdout: str) -> str | None:
        try:
            return check(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
    return run


_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$", re.M)


def _check_verify(stdout: str) -> str | None:
    m = _VERIFY_TOTAL.search(stdout)
    if m is None:
        return "no 'N/N checks passed' line"
    if m[1] != m[2] or int(m[2]) == 0:
        return m[0]
    return None


def result_digits(stdout: str) -> int:
    """Digits of the longest integer in an output: the size of the result."""
    return max((len(d) for d in re.findall(r"\d+", stdout)), default=0)


def verify_totals(stdout: str) -> tuple[int, int]:
    """(checks, failed checks) from the output of `verify`."""
    m = _VERIFY_TOTAL.search(stdout)
    return (int(m[2]), int(m[2]) - int(m[1])) if m else (0, 0)

