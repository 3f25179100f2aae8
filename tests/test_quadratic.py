import cmath
from fractions import Fraction

import pytest

from tensorwalks.errors import ConsistencyError
from tensorwalks.quadratic import QuadNum


def test_powers():
    assert QuadNum(13, 1, 1) ** 2 == QuadNum(13, 14, 2)
    assert QuadNum(-7, 1, 1) ** 3 == QuadNum(-7, -20, -4)
    assert QuadNum(5, 2, -3) ** 0 == QuadNum(5, 1)


def test_norm_identity():
    x = QuadNum(13, Fraction(3, 2), Fraction(-1, 4))
    norm = x * x.conj()
    assert norm.is_rational()
    assert norm.as_rational() == x.a * x.a - 13 * x.b * x.b


def test_numeric_oracle():
    x = QuadNum(-7, 1, 1)
    s = 1j * cmath.sqrt(7)
    for k in range(6):
        approx = (1 + s) ** k
        exact = x**k
        got = complex(exact.a) + complex(exact.b) * s
        assert abs(approx - got) < 1e-9


def test_arithmetic_and_division():
    a = QuadNum(5, 1, 2)
    b = QuadNum(5, -3, Fraction(1, 2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - 1 == QuadNum(5, 0, 2)
    assert 2 * a == QuadNum(5, 2, 4)
    with pytest.raises(ValueError):
        a + QuadNum(7, 1, 1)


def test_rationality_guard():
    x = QuadNum(13, 2, 1)
    with pytest.raises(ConsistencyError):
        x.as_rational()
    assert QuadNum(13, 2, 0).as_rational() == 2
