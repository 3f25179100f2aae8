"""Small number-theoretic helpers: primality, prime powers, Euler's phi and
divisors, every one read from one cached factorization; Legendre symbols,
quadratic residues and generators of (Z/n)^x."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod


@lru_cache(maxsize=None)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n >= 1 as (prime, exponent) pairs, primes
    ascending, by trial division up to the square root of what is left;
    () for n = 1.  Every other answer of this module about n reads it."""
    if n < 1:
        raise ValueError(f"only positive integers are factored, got {n}")
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def is_prime(n: int) -> bool:
    return n > 1 and factorization(n) == ((n, 1),)


def prime_power_base(q: int) -> int | None:
    """Return p if q = p^e for a prime p and e >= 1, else None."""
    factors = factorization(q) if q > 1 else ()
    return factors[0][0] if len(factors) == 1 else None


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factorization(n))


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
    """The divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorization(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


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
