import itertools
import random

import pytest

from tensorwalks.cyclotomic import CycNum, root_of_unity
from tensorwalks.diagrams import (
    DiagramElement,
    basis_count,
    compose,
    enumerate_basis,
    is_valid,
    word_target,
)
from tensorwalks.groups import _product_spec
from tensorwalks.quiver import walk_counts_character

RADII = (2, 3, 2, 5)
GAMMA = (3, 4, 4, 1, 4, 4, 2, 4, 3, 4, 4, 2)
BETA = (2, 4, 1, 3, 1, 2, 2, 4, 1, 2, 2, 3)
ETA = (2, 3, 2, 1, 4, 2, 4, 2, 3, 3, 2, 3)


def test_validity_of_worked_example():
    assert is_valid(DiagramElement(RADII, GAMMA, BETA))
    assert is_valid(DiagramElement(RADII, BETA, ETA))
    # same words over the all-2s radii break the letter-count congruences
    assert not is_valid(DiagramElement((2, 2, 2, 2), GAMMA, BETA))
    assert is_valid(DiagramElement(RADII, (), ()))


def test_worked_composition():
    lower = DiagramElement(RADII, GAMMA, BETA)
    upper = DiagramElement(RADII, BETA, ETA)
    product = compose(upper, lower)
    assert product == DiagramElement(RADII, GAMMA, ETA)
    assert is_valid(product)


def test_compose_zero_and_identity():
    lower = DiagramElement(RADII, GAMMA, BETA)
    ident = DiagramElement(RADII, GAMMA, GAMMA)
    assert compose(lower, ident) == lower
    assert compose(ident, lower) is None  # middle rows do not match
    with pytest.raises(ValueError):
        compose(lower, DiagramElement((2, 2), (1, 2), (2, 1)))


def test_basis_sizes():
    assert basis_count((4, 2), 6, (1, 1)) == 144
    assert basis_count((4, 2), 6) == 1056
    assert len(enumerate_basis((4, 2), 6)) == 1056
    assert len(enumerate_basis((4, 2), 6, (1, 1))) == 144
    assert enumerate_basis((2,), 1) == [DiagramElement((2,), (1,), (1,))]


@pytest.mark.parametrize("radii", [(2,), (4,), (2, 2), (4, 2), (2, 3), (2, 2, 2)])
def test_basis_count_equals_squared_walk_counts(radii):
    # walk counts by the character route: basis_count itself is a group-ring power
    spec = _product_spec(radii)
    g = spec.group
    multiplicities = walk_counts_character(g, spec.module, range(7), 0, range(g.n_classes))
    for k in range(7):
        assert basis_count(radii, k) == sum(m[k] ** 2 for m in multiplicities)


def test_enumerated_elements_are_valid_and_sorted():
    basis = enumerate_basis((2, 3), 3)
    assert all(is_valid(e) for e in basis)
    keys = [(e.bottom, e.top) for e in basis]
    assert keys == sorted(keys)


@pytest.mark.parametrize("radii,k", [((2,), 2), ((4,), 3), ((2, 2), 3)])
def test_closure_and_associativity_exhaustive(radii, k):
    basis = enumerate_basis(radii, k)
    for e1 in basis:
        for e2 in basis:
            prod = compose(e1, e2)
            assert (prod is not None) == (e1.bottom == e2.top)
            if prod is not None:
                assert is_valid(prod)
    for e1 in basis:
        for e2 in basis:
            p12 = compose(e1, e2)
            for e3 in basis:
                left = compose(p12, e3) if p12 is not None else None
                p23 = compose(e2, e3)
                right = compose(e1, p23) if p23 is not None else None
                assert left == right


def test_associativity_randomized():
    rng = random.Random(99)
    basis = enumerate_basis((4, 2), 4)
    for _ in range(3000):
        e1, e2, e3 = (rng.choice(basis) for _ in range(3))
        p12 = compose(e1, e2)
        p23 = compose(e2, e3)
        left = compose(p12, e3) if p12 is not None else None
        right = compose(e1, p23) if p23 is not None else None
        assert left == right


def test_group_action_equivariance():
    # acting by a group element multiplies a basis word by the character of
    # its target: the per-letter phases multiply out to chi_target(a)
    for radii in ((2, 2), (4, 2), (2, 3), (2, 2, 2, 2)):
        conductor = 1
        for r in radii:
            conductor = conductor * r // __import__("math").gcd(conductor, r)
        for k in range(5):
            for word in itertools.product(range(1, len(radii) + 1), repeat=k):
                target = word_target(radii, word)
                for a in itertools.product(*(range(r) for r in radii)):
                    phase = CycNum.from_int(1)
                    for letter in word:
                        r = radii[letter - 1]
                        phase = phase * root_of_unity(r, a[letter - 1])
                    chi = CycNum.from_int(1)
                    for j, r in enumerate(radii):
                        chi = chi * root_of_unity(r, a[j] * target[j])
                    assert phase == chi


def test_basis_count_squares_instead_of_stepping():
    # a million letters: 2^(2k - 1) elements, from about 20 squarings
    assert basis_count((2, 2), 10**6) == 2 ** (2 * 10**6 - 1)
    assert basis_count((2, 2), 10**6, (1, 1)) == 2 ** (2 * 10**6 - 2)
