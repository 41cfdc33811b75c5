import math
import time

import pytest
from oracles import factorizations_naive

from sameorder.numtheory import (
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    prime_power,
    totient,
)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)


def test_factorize():
    assert factorize(168) == {2: 3, 3: 1, 7: 1}
    assert factorize(25920) == {2: 6, 3: 4, 5: 1}
    assert factorize(1) == {}


def test_divisors_sorted():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]
    assert divisors(1) == [1]


def test_totient():
    assert [totient(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    # multiplicative on coprime parts
    assert totient(168) == totient(8) * totient(3) * totient(7)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(17) == (17, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(2, 9) == 6
    # order divides totient for every unit
    for m in (7, 9, 15, 16):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert totient(m) % multiplicative_order(a, m) == 0


def test_factorize_and_is_prime_match_trial_division():
    """Every n below 10^5, against a smallest-prime-factor sieve: the same
    primes, in ascending key order, with the same multiplicities."""
    for n, want in enumerate(factorizations_naive(10**5)):
        if n:
            got = factorize(n)
            assert got == want and list(got) == sorted(want), n
            assert is_prime(n) == (want == {n: 1}), n
    assert not is_prime(0)


@pytest.mark.parametrize("n,want", [
    (10**18 + 3, {10**18 + 3: 1}),
    (999999937 * 1000000007, {999999937: 1, 1000000007: 1}),
    (999999929 * 999999937 * 2**5 * 97**2, {2: 5, 97: 2, 999999929: 1, 999999937: 1}),
])
def test_large_numbers_factor_at_once(n, want):
    """A prime near 10^18 and products of primes near 10^9, which trial
    division up to the square root would take minutes over."""
    started = time.perf_counter()
    got = factorize(n)
    elapsed = time.perf_counter() - started
    assert got == want and list(got) == sorted(want)
    assert elapsed < 0.05


def test_strong_pseudoprimes_are_composite():
    """Composites that pass Miller-Rabin to every prime base up to 2, 23 and
    37 in turn; the 13 bases used catch them all."""
    for n in (2047, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert factorize(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
    assert factorize(1000000007**2 * 999999937) == {999999937: 1, 1000000007: 2}
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)


def test_multiplicative_order_is_the_least_power():
    for m in range(1, 300):
        for a in range(1, m + 1):
            if math.gcd(a, m) == 1:
                x, d = a % m, 1
                while x != 1 % m:
                    x, d = x * a % m, d + 1
                assert multiplicative_order(a, m) == d, (a, m)
    m = 10**18 + 3  # a prime: the order divides m - 1, and no prime can be taken out of it
    d = multiplicative_order(3, m)
    assert (m - 1) % d == 0 and pow(3, d, m) == 1
    assert all(pow(3, d // p, m) != 1 for p in factorize(d))
