"""Seeded query streams for the tensorwalks benchmark.

A stream is a list of cycles; a cycle holds one query per slot of its
workload, in a seeded order.  Each slot takes its group from a list ordered
by measured cost: with C cycles in a run, the slot visits the middle of each
of the C equal parts of that list once, in a seeded order.  So the mix of
problem sizes in a run is fixed by the workload and the run length, and the
seed draws what barely moves the cost: the order, the endpoints, most step
counts (within narrow ranges), circulant connection sets, targets, lambdas
and module choices.  That keeps the end-to-end figures, medians and tails
included, steady from seed to seed.

Left out on purpose, because they hang or loop at the seed commit:
``invariants --group paley(29)`` (the auto route runs circulant_walks over
C(k+13, 13) compositions), ``walks --group paley(31)`` on the auto route,
any negative ``--k``, and ``diagalg --group hypercube(5) --k 12``.
"""

from __future__ import annotations

import random

WORKLOADS = ("adjacency", "sequences")

# Wall time of one cycle at the seed commit (2 cores, Python 3.11.7).  A run
# measures round(seconds / this) whole cycles, so the set of queries depends
# only on the workload, the seed and --seconds, never on the program's speed.
NOMINAL_CYCLE_S = {"adjacency": 22.5, "sequences": 2.2}

# Sizes ordered by the measured cost of their exact adjacency build.
_CYCLIC_LIGHT = (20, 22, 24, 21, 23, 26, 28, 30, 27, 25)
_CYCLIC_HEAVY = (32, 29, 36, 31, 34, 33, 38, 40, 35, 37, 39)
_PALEY = (13, 17, 19, 23)
_SYMMETRIC = (8, 9, 10)
# (r, n, K) for Z_r wr S_n, ordered by the cost of `invariants --k K`.
_WREATH = ((2, 4, 20), (3, 4, 24), (2, 5, 24), (3, 5, 24), (4, 4, 28),
           (2, 6, 30), (3, 6, 30), (4, 5, 28), (4, 6, 22))
_LINEAR_Q = (3, 5, 7, 9, 11, 13)
_SMALL = ("Z10", "S4", "Z4xZ2", "GL2(3)")
_SMALL_FULL = ("Z10", "S4", "Z4xZ2")
SUITES = ("z10", "z4xz2", "s4", "sn", "paley", "wreath", "gl2sl2", "generic",
          "genfnc", "diagram", "gauss")


def _pick(seq, q: float):
    return seq[min(int(q * len(seq)), len(seq) - 1)]


def _symmetric_set(rng: random.Random, r: int) -> list[int]:
    a, b = rng.sample(range(1, (r + 1) // 2), 2)
    return sorted({a, b, r - a, r - b})


def partitions_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _nodes(spec: str) -> int:
    """Number of quiver nodes of a full-table spec used by the generator."""
    if spec.startswith("S"):
        return partitions_count(int(spec[1:]))
    if spec.startswith("hypercube("):
        return 2 ** int(spec[10:-1])
    if spec.startswith("paley("):
        return int(spec[6:-1])
    count = 1
    for factor in spec.split("x"):
        count *= int(factor[1:])
    return count


def _walks(rng, spec, k, method="auto", endpoints=True):
    argv = ["walks", "--group", spec, "--k", str(k)]
    if endpoints:
        n = _nodes(spec)
        argv += ["--from", str(rng.randrange(n)), "--to", str(rng.randrange(n))]
    if method != "auto":
        argv += ["--method", method]
    return argv


def _linear(rng, q):
    spec = f"{rng.choice(('GL2', 'SL2'))}({q})"
    return spec + "@steinberg" if rng.random() < 0.5 else spec


# -- large builds on the adjacency workload: full-table groups, where the n^3
# CycNum adjacency sum dominates


def _adj_dims_cyclic(q, rng):
    return ["dims", "--group", f"Z{_pick(_CYCLIC_HEAVY, q)}", "--k", str(rng.randint(60, 100))]


def _adj_walks_cyclic(q, rng):
    return _walks(rng, f"Z{_pick(_CYCLIC_LIGHT, q)}", rng.randint(20, 60))


def _adj_walks_abelian(q, rng):
    return _walks(rng, _pick(("Z4xZ4xZ2", "Z6xZ6"), q), rng.randint(16, 24), "matrix")


def _adj_walks_hypercube(q, rng):
    return _walks(rng, f"hypercube({_pick((5, 6), q)})", rng.randint(10, 16))


def _adj_dims_symmetric(q, rng):
    return ["dims", "--group", f"S{_pick(_SYMMETRIC, q)}", "--k", str(rng.randint(6, 12))]


def _adj_walks_symmetric(q, rng):
    return _walks(rng, f"S{_pick(_SYMMETRIC[1:], q)}", rng.randint(6, 12), "matrix")


def _adj_walks_circulant(q, rng):
    r = _pick(tuple(range(20, 33)), q)
    conn = ",".join(map(str, _symmetric_set(rng, r)))
    return ["walks", "--group", f"circulant({r};{conn})", "--k", str(rng.randint(12, 24)),
            "--from", "0", "--to", str(rng.randrange(r))]


def _adj_dims_circulant(q, rng):
    r = _pick((26, 27, 28, 30, 32), q)
    conn = ",".join(map(str, _symmetric_set(rng, r)))
    return ["dims", "--group", f"circulant({r};{conn})", "--k", str(rng.randint(12, 24))]


def _adj_quiver_paley(q, rng):
    return ["quiver", "--group", f"paley({_pick(_PALEY, q)})"]


def _adj_dims_paley(q, rng):
    return ["dims", "--group", f"paley({_pick(_PALEY, q)})", "--k", str(rng.randint(8, 14))]


def _adj_bratteli(q, rng):
    return ["bratteli", "--group", _pick(("S8", "S9", "Z24", "Z30"), q),
            "--levels", str(rng.randint(8, 16))]


# -- sequences: character sums, closed forms and group builds; no adjacency


def _seq_invariants_wreath(q, rng):
    r, n, k = _pick(_WREATH, q)
    return ["invariants", "--group", f"Z{r}wrS{n}", "--k", str(k)]


def _seq_invariants_linear(q, rng):
    return ["invariants", "--group", _linear(rng, _pick(_LINEAR_Q[:-1], q)), "--k", "40"]


def _seq_invariants_symmetric(q, rng):
    return ["invariants", "--group", f"S{_pick(tuple(range(6, 13)), q)}", "--k", "20"]


def _seq_invariants_abelian(q, rng):
    spec, k = _pick((("Z6xZ5", 24), ("Z30", 24), ("circulant", 20), ("Z8xZ6", 22),
                     ("Z12xZ10", 15)), q)
    if spec == "circulant":
        r = rng.randint(20, 28)
        spec = f"circulant({r};{','.join(map(str, _symmetric_set(rng, r)))})"
    return ["invariants", "--group", spec, "--k", str(k)]


def _seq_egf_wreath(q, rng):
    r, n, _ = _pick(_WREATH, q)
    return ["egf", "--group", f"Z{r}wrS{n}", "--order", str(rng.randint(20, 30))]


def _seq_egf_abelian(q, rng):
    radii = _pick(((3, 5), (4, 6), (2, 3, 4), (2,) * 4, (2,) * 6), q)
    target = ",".join(str(rng.randrange(r)) for r in radii)
    spec = "x".join(f"Z{r}" for r in radii)
    return ["egf", "--group", spec, "--order", str(rng.randint(20, 30)), "--target", target]


def _seq_poincare_character(q, rng):
    spec = _pick(("S6", "GL2(5)", "SL2(7)", "S8", "GL2(9)", "Z2wrS4", "S10", "Z2wrS5"), q)
    lam = str(rng.randrange(5)) if spec[0] == "S" and spec[1:].isdigit() else "0"
    return ["poincare", "--group", spec, "--method", "character", "--lambda", lam]


def _seq_poincare_paper(q, rng):
    return ["poincare", "--group", _linear(rng, _pick(_LINEAR_Q, q)), "--method", "paper"]


def _seq_walks_character(q, rng):
    if q < 0.5:
        return ["walks", "--group", "Z60", "--k", str(rng.randint(100, 200)), "--from", "0",
                "--to", str(rng.randrange(60)), "--method", "character"]
    return ["walks", "--group", "S12", "--k", str(rng.randint(8, 12)), "--from", "0",
            "--to", str(rng.randrange(partitions_count(12))), "--method", "character"]


# -- small builds on the adjacency workload: every verify suite, Cramer series
# and small queries of every verb


def _small_cramer(spec):
    def slot(q, rng):
        lam = rng.randrange(_nodes(spec))
        return ["poincare", "--group", spec, "--method", "cramer", "--lambda", str(lam)]
    return slot


def _small_verify(suite):
    return lambda q, rng: ["verify", "--suite", suite]


def _small_walks(q, rng):
    spec = _pick(_SMALL, q)
    k = rng.randint(4, 12)
    if spec in ("S4", "GL2(3)"):
        return _walks(rng, spec, k, endpoints=False)
    return _walks(rng, spec, k)


def _small_dims(q, rng):
    return ["dims", "--group", _pick(_SMALL_FULL, q), "--k", str(rng.randint(4, 12))]


def _small_invariants(q, rng):
    return ["invariants", "--group", _pick(_SMALL, q), "--k", str(rng.randint(8, 16))]


def _small_poincare(q, rng):
    spec = _pick(_SMALL, q)
    lam = 0 if spec == "GL2(3)" else rng.randrange(_nodes(spec))
    return ["poincare", "--group", spec, "--method", "character", "--lambda", str(lam)]


def _small_egf(q, rng):
    target = f"{rng.randrange(4)},{rng.randrange(2)}"
    return ["egf", "--group", "Z4xZ2", "--order", str(rng.randint(8, 16)), "--target", target]


def _small_bratteli(q, rng):
    return ["bratteli", "--group", _pick(_SMALL_FULL, q), "--levels", str(rng.randint(4, 10))]


def _small_quiver(q, rng):
    return ["quiver", "--group", _pick(_SMALL_FULL, q)]


def _small_group(q, rng):
    return ["group", "--group", _pick(_SMALL, q)]


def _small_diagalg(q, rng):
    return ["diagalg", "--group", "Z4xZ2", "--k", str(rng.randint(3, 6))]


def _small_diagalg_list(q, rng):
    return ["diagalg", "--group", "hypercube(3)", "--k", "5", "--list"]


_LARGE_BUILDS = (_adj_dims_cyclic, _adj_walks_cyclic, _adj_walks_abelian, _adj_walks_hypercube,
                 _adj_dims_symmetric, _adj_walks_symmetric, _adj_walks_circulant,
                 _adj_dims_circulant, _adj_quiver_paley, _adj_dims_paley, _adj_bratteli)
_SMALL_BUILDS = (tuple(_small_verify(s) for s in SUITES)
                 + tuple(_small_cramer(s) for s in ("S6", "S7", "S8", "S8", "Z12", "paley(13)"))
                 + (_small_walks, _small_dims, _small_invariants, _small_poincare, _small_egf, _small_bratteli,
                    _small_quiver, _small_group, _small_diagalg, _small_diagalg_list))

SLOTS = {
    "adjacency": _LARGE_BUILDS + _SMALL_BUILDS,
    "sequences": (_seq_invariants_wreath, _seq_invariants_linear, _seq_invariants_symmetric,
                  _seq_invariants_abelian, _seq_egf_wreath, _seq_egf_abelian,
                  _seq_poincare_character, _seq_poincare_paper, _seq_walks_character),
}


def cycles_for(workload: str, seconds: int, traced: bool) -> int:
    """Whole cycles in one run; a traced run measures half as many, twice."""
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
    return max(1, cycles // 2) if traced else cycles


def generate(workload: str, seed: int, cycles: int) -> list[list[list[str]]]:
    """The argv lists of every query, grouped by cycle; a pure function of
    its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    slots = SLOTS[workload]
    strata = [rng.sample(range(cycles), cycles) for _ in slots]
    stream = []
    for c in range(cycles):
        cycle = [slot((strata[i][c] + 0.5) / cycles, rng) for i, slot in enumerate(slots)]
        rng.shuffle(cycle)
        stream.append(cycle)
    return stream
