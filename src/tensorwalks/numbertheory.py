"""Small number-theoretic helpers: primality, prime powers, quadratic residues."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d <= isqrt(n):
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_base(q: int) -> int | None:
    """Return p if q = p^e for a prime p and e >= 1, else None."""
    if q < 2:
        return None
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    return q  # q itself is prime


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def unit_generators(n: int) -> tuple[int, ...]:
    """A generating set of the unit group (Z/n)^x, chosen greedily: each
    unit not yet in the subgroup generated so far joins the set."""
    reached = {1 % n}
    gens = []
    for a in range(2, n):
        if gcd(a, n) == 1 and a not in reached:
            gens.append(a)
            coset, power = set(reached), a
            while power not in reached:  # add the cosets a^j H until a^j is in H
                coset.update(power * h % n for h in reached)
                power = power * a % n
            reached = coset
    return tuple(gens)


def divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def quadratic_residues(p: int) -> list[int]:
    """Sorted nonzero quadratic residues modulo an odd prime p."""
    return sorted({x * x % p for x in range(1, (p + 1) // 2)})
