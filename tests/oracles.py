"""Reference helpers that only the tests use: brute-force enumerations and
structural checks the library does not need."""

from math import comb

from tensorwalks.groups import FULL, GroupData


def multinomial(k: int, parts) -> int:
    """Multinomial coefficient k! / prod(parts!); the parts must sum to k."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) != k:
        raise ValueError("parts must sum to k")
    out = 1
    rest = k
    for p in parts:
        out *= comb(rest, p)
        rest -= p
    return out


def compositions(k: int, m: int):
    """Yield all m-tuples of nonnegative ints summing to k."""
    if m == 0:
        if k == 0:
            yield ()
        return
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(k - first, m - 1):
            yield (first,) + rest


def validate_group(g: GroupData) -> None:
    """Raise AssertionError when the structural invariants fail."""
    assert sum(g.class_sizes()) == g.order, "class sizes must sum to the order"
    assert g.classes[0].size == 1, "identity class must come first with size 1"
    if g.tier == FULL:
        assert len(g.irreps) == g.n_classes, "need as many irreps as classes"
        dims = [g.chi(i, 0).as_integer() for i in range(g.n_classes)]
        assert sum(d * d for d in dims) == g.order, "sum of squared dims"
        assert all(v == 1 for v in g.row(0)), "irrep 0 must be the trivial character"
        assert all(d > 0 for d in dims), "identity column must carry the dimensions"
