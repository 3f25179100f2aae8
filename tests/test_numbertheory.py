from math import gcd, prod

from tensorwalks.numbertheory import divisors, euler_phi, factorization, is_prime, prime_power_base

N_MAX = 3000


def _divisor_scan(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorization_multiplies_back_with_primes_ascending():
    assert factorization(1) == ()
    assert factorization(360) == ((2, 3), (3, 2), (5, 1))
    for n in range(1, N_MAX + 1):
        pairs = factorization(n)
        primes = [p for p, _ in pairs]
        assert prod(p**e for p, e in pairs) == n, n
        assert primes == sorted(set(primes)), n
        assert all(e >= 1 and len(_divisor_scan(p)) == 2 for p, e in pairs), n


def test_every_answer_matches_its_brute_force_definition():
    for n in range(1, N_MAX + 1):
        scan = _divisor_scan(n)
        prime = scan == [1, n] and n > 1
        prime_divisors = [d for d in scan if len(_divisor_scan(d)) == 2]
        assert is_prime(n) == prime, n
        assert prime_power_base(n) == (prime_divisors[0] if len(prime_divisors) == 1 else None), n
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1), n
        assert divisors(n) == scan, n


def test_nothing_below_two_is_prime_or_a_prime_power():
    for n in range(-3, 2):
        assert not is_prime(n)
        assert prime_power_base(n) is None
