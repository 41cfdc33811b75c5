import math

from sameorder.numtheory import (
    divisors,
    factorize,
    is_prime,
    mobius,
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


def test_mobius():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # sums to 0 over the divisors of every n > 1
    assert all(sum(mobius(d) for d in divisors(n)) == (n == 1) for n in range(1, 200))
