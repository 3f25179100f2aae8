import itertools
from math import comb, factorial

import pytest

from tensorwalks.combinatorics import (
    bell_number,
    derangements,
    even_block_partitions,
    group_ring_power,
    kostka_hook_content,
    multipartition_count,
    multipartitions_of,
    partitions_of,
    rencontres,
    stirling2,
    z_lambda,
    z_multipartition,
)
from tensorwalks.errors import ConsistencyError, exact_count
from tensorwalks.groups import build_symmetric

from oracles import compositions, multinomial


def test_exact_count_accepts_only_nonnegative_integer_quotients():
    assert exact_count(42, 6, "x") == 7
    assert exact_count(0, 5, "x") == 0
    with pytest.raises(ConsistencyError, match=r"^walk count came out 7/6$"):
        exact_count(7, 6, "walk count")
    with pytest.raises(ConsistencyError, match=r"came out -12/6"):
        exact_count(-12, 6, "dimension formula")
    with pytest.raises(ConsistencyError, match=r"came out -1/6"):
        exact_count(-1, 6, "dimension formula")


def test_partitions_reverse_lex():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(10)) == 42
    for n in range(1, 9):
        parts = partitions_of(n)
        assert parts[0] == (n,)
        assert all(sum(p) == n for p in parts)
        assert all(list(p) == sorted(p, reverse=True) for p in parts)


def _set_partitions(items, blocks):
    """Brute-force set partitions of `items` into exactly `blocks` parts."""
    if not items:
        if blocks == 0:
            yield []
        return

    def rec(rest, acc):
        if not rest:
            if len(acc) == blocks:
                yield [list(b) for b in acc]
            return
        x, tail = rest[0], rest[1:]
        for i in range(len(acc)):
            yield from rec(tail, acc[: i] + [acc[i] + [x]] + acc[i + 1 :])
        if len(acc) < blocks:
            yield from rec(tail, acc + [[x]])

    yield from rec(list(items), [])


def test_stirling_against_enumeration():
    assert stirling2(0, 0) == 1
    assert stirling2(0, 3) == 0
    assert stirling2(4, 2) == 7
    for k in range(1, 7):
        for l in range(1, k + 1):
            assert stirling2(k, l) == sum(1 for _ in _set_partitions(range(k), l))


def test_stirling_recurrence():
    for k in range(21):
        for l in range(1, 21):
            assert stirling2(k + 1, l) == l * stirling2(k, l) + stirling2(k, l - 1)


def test_bell_numbers():
    assert [bell_number(m) for m in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_kostka_values():
    assert kostka_hook_content((2, 2), 2) == 1
    assert kostka_hook_content((2, 2), 3) == 2
    assert kostka_hook_content((2, 2), 4) == 2
    for n in range(1, 8):
        for l in range(n + 1):
            assert kostka_hook_content((n,), l) == 1
    # single-column shape admits a filling only when at most one zero remains
    assert kostka_hook_content((1, 1, 1), 3) == 1
    assert kostka_hook_content((1, 1, 1), 2) == 1
    assert kostka_hook_content((1, 1, 1), 1) == 0
    assert kostka_hook_content((3, 1), 2) == 2


def test_kostka_dimension_identity():
    # at depth one the multiplicity of each irrep in the permutation module
    # weights its dimension, read from the Murnaghan-Nakayama table, into
    # dim V = n
    for n in range(2, 6):
        g = build_symmetric(n)
        total = sum(
            g.chi(i, 0).as_integer() * kostka_hook_content(lam, 1)
            for i, lam in enumerate(partitions_of(n))
        )
        assert total == n


def test_kostka_rsk_identity():
    # RSK maps the n!/(n-l)! words of length n with n-l zeros and one each
    # of 1..l one-to-one onto the pairs (standard, semistandard of content
    # (n-l, 1^l)) of tableaux of one shape lam, so
    # sum_lam f^lam K_{lam,(n-l,1^l)} = n!/(n-l)!; f^lam is read from the
    # identity column of the Murnaghan-Nakayama table
    for n in range(2, 13):
        g = build_symmetric(n)
        dims = [g.chi(i, 0).as_integer() for i in range(len(g.irreps))]
        for l in range(n + 1):
            total = sum(f * kostka_hook_content(lam, l)
                        for f, lam in zip(dims, partitions_of(n)))
            assert total == factorial(n) // factorial(n - l), (n, l)


def test_rencontres():
    assert rencontres(2, 1) == 0
    assert rencontres(2, 2) == 1
    assert rencontres(4, 2) == 6
    for n in range(1, 9):
        counts = [rencontres(n, m) for m in range(n + 1)]
        assert sum(counts) == factorial(n)
        assert sum(m * c for m, c in enumerate(counts)) == factorial(n)
    # direct enumeration for small n
    for n in range(1, 6):
        seen = [0] * (n + 1)
        for perm in itertools.permutations(range(n)):
            seen[sum(1 for i, x in enumerate(perm) if i == x)] += 1
        assert seen == [rencontres(n, m) for m in range(n + 1)]


def test_derangements():
    assert [derangements(m) for m in range(7)] == [1, 0, 1, 2, 9, 44, 265]


def test_centralizer_orders():
    assert z_lambda((1, 1, 1, 1)) == 24
    assert z_lambda((2, 1, 1)) == 4
    for n in range(1, 9):
        assert sum(factorial(n) // z_lambda(lam) for lam in partitions_of(n)) == factorial(n)


def test_multipartition_centralizers():
    assert z_multipartition(((0, (1,)), (1, (1,))), 2) == 4
    for r in (2, 3, 11, 40):  # at r = 11 and 40 most slots are empty
        for n in (1, 2, 3, 4):
            order = r**n * factorial(n)
            total = sum(order // z_multipartition(a, r) for a in multipartitions_of(n, r))
            assert total == order


def _multipartitions_by_slot(n, r):
    """The enumeration multipartitions_of replaced: one recursion level per
    slot, so as deep as r."""
    out = []

    def gen(i, remaining, acc):
        if i == r - 1:
            for lam in partitions_of(remaining):
                out.append(acc + (lam,))
            return
        for size in range(remaining, -1, -1):
            for lam in partitions_of(size):
                gen(i + 1, remaining - size, acc + (lam,))

    gen(0, n, ())
    return out


def test_multipartitions_keep_the_slot_by_slot_order_and_count():
    for r in range(1, 7):
        for n in range(7):
            listed = multipartitions_of(n, r)
            padded = _multipartitions_by_slot(n, r)
            assert listed == [tuple((i, lam) for i, lam in enumerate(a) if lam) for a in padded], (r, n)
            assert multipartition_count(n, r) == len(listed), (r, n)
    # deeper than the recursion limit in slots, n + 1 deep in calls
    assert multipartitions_of(1, 1200) == [((i, (1,)),) for i in range(1200)]
    assert multipartition_count(2, 1200) == 2 * 1200 + comb(1200, 2)
    assert multipartition_count(8, 4) == 2580
    assert multipartition_count(1, 10**12) == 10**12


def test_multinomial():
    assert multinomial(6, [2, 4]) == 15
    assert multinomial(6, [6]) == 1
    assert multinomial(12, [4, 4, 4]) == 34650
    with pytest.raises(ValueError):
        multinomial(5, [2, 2])
    for parts in compositions(6, 3):
        assert multinomial(6, parts) == factorial(6) // (
            factorial(parts[0]) * factorial(parts[1]) * factorial(parts[2])
        )


def test_even_block_partitions():
    assert even_block_partitions(1, 1) == 1
    assert even_block_partitions(2, 2) == 3
    assert even_block_partitions(2, 1) == 1
    for k in range(1, 6):  # 2k <= 10
        for s in range(1, k + 1):
            brute = sum(
                1
                for p in _set_partitions(range(2 * k), s)
                if all(len(b) % 2 == 0 and b for b in p)
            )
            assert even_block_partitions(k, s) == brute, (k, s)
        assert even_block_partitions(k, k + 1) == 0


def test_compositions():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []
    assert len(list(compositions(5, 3))) == comb(7, 2)


def test_group_ring_power_matches_one_step_products_on_both_sides_of_the_rule():
    # Z5 x Z4 has 20 elements and there are 2 distinct steps: k < 10 takes
    # one-step products, k >= 10 squares; a range is reached at its start
    # by that rule and carried on by one product per k
    radii, steps = (5, 4), [(1, 0), (1, 0), (4, 1)]
    counts = {(0, 0): 1}
    expected = []
    for k in range(16):
        assert group_ring_power(radii, steps, range(k, k + 1)) == [counts], k
        expected.append(counts)
        nxt = {}
        for (a, b), m in counts.items():
            for s, t in steps:
                key = ((a + s) % 5, (b + t) % 4)
                nxt[key] = nxt.get(key, 0) + m
        counts = nxt
    for a in (0, 1, 9, 10, 11, 15, 16):
        assert group_ring_power(radii, steps, range(a, 16)) == expected[a:], a
    # strided and descending ranges keep their order and stride
    for ks in (range(3, 16, 4), range(11, 16, 2), range(15, 0, -3), range(0, 16, 5)):
        assert group_ring_power(radii, steps, ks) == [expected[k] for k in ks], ks
    with pytest.raises(ValueError):
        group_ring_power(radii, steps, range(2, -3, -2))
