"""Matrix-unit basis of the centralizer algebra of an abelian group acting on
tensor powers of its coordinate module, realized as two-row labeled diagrams.

A basis element pairs a bottom word gamma and a top word beta over the letter
alphabet 1..n (one letter per cyclic factor); it is valid when each letter
appears in both words with multiplicities congruent modulo that factor's
order.  Composition is concatenation: stacking e1 on top of e2 gives a
nonzero result exactly when e2's top row matches e1's bottom row, and the
worked product keeps e2's bottom with e1's top."""

from __future__ import annotations

import itertools
from collections import namedtuple

from .combinatorics import group_ring_power
from .groups import unit_steps


class DiagramElement(namedtuple("DiagramElement", "radii bottom top")):
    """Bottom word gamma and top word beta over the letters 1..len(radii)."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.bottom)


def word_target(radii, word) -> tuple[int, ...]:
    """Componentwise sum of the coordinate vectors of the letters, mod radii."""
    counts = [0] * len(radii)
    for letter in word:
        counts[letter - 1] += 1
    return tuple(c % r for c, r in zip(counts, radii))


def is_valid(e: DiagramElement) -> bool:
    n = len(e.radii)
    if len(e.top) != len(e.bottom):
        return False
    words_ok = all(1 <= x <= n for x in e.bottom) and all(1 <= x <= n for x in e.top)
    if not words_ok:
        return False
    return word_target(e.radii, e.bottom) == word_target(e.radii, e.top)


def basis_counts(radii, k: int) -> dict[tuple[int, ...], int]:
    """Number of words of length k per target vector, without listing the
    words: the k-th power of the sum of the unit vectors (letter j adds 1 to
    coordinate j) in the group ring."""
    if k < 0:
        raise ValueError("word length must be nonnegative")
    return group_ring_power(radii, unit_steps(radii), range(k, k + 1))[0]


def basis_count(radii, k: int, target=None) -> int:
    """Cardinality of the diagram basis without materializing it."""
    counts = basis_counts(radii, k)
    if target is not None:
        m = counts.get(tuple(target), 0)
        return m * m
    return sum(m * m for m in counts.values())


def enumerate_basis(radii, k: int, target=None) -> list[DiagramElement]:
    """All valid basis elements, in lexicographic (bottom, top) order.  With a
    target: the square block for that target; without: the whole basis."""
    radii = tuple(radii)
    if k < 0:
        raise ValueError("word length must be nonnegative")
    # Words come out of `product` in lexicographic order, so each target's
    # block lists its words in that order too.
    words = [(word, word_target(radii, word))
             for word in itertools.product(range(1, len(radii) + 1), repeat=k)]
    by_target: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for word, t in words:
        by_target.setdefault(t, []).append(word)
    if target is not None:
        block = by_target.get(tuple(target), [])
        return [DiagramElement(radii, bottom, top) for bottom in block for top in block]
    return [DiagramElement(radii, bottom, top) for bottom, t in words for top in by_target[t]]


def compose(e1: DiagramElement, e2: DiagramElement) -> DiagramElement | None:
    """Product with e2 applied first (e1 stacked above e2); None is the zero
    of the algebra."""
    if e1.radii != e2.radii or e1.k != e2.k:
        raise ValueError("elements live in different algebras")
    if e2.top != e1.bottom:
        return None
    return DiagramElement(e1.radii, e2.bottom, e1.top)
