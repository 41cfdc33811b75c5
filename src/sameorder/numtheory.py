"""Small integer helpers used across the engine."""

from __future__ import annotations

from math import gcd


# Trial division takes out the primes below 256; a number below the square
# of the next prime, 257, with none of them as a factor is 1 or a prime.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
                 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
                 233, 239, 241, 251)
_TRIAL_BOUND = 257 * 257
# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below 3317044064679887385961981 (Sorenson and Webster, 2015); above it the
# test is a strong probable-prime test on the same bases.
_WITNESSES = _SMALL_PRIMES[:13]


def is_prime(n: int) -> bool:
    """Trial division by the primes below 256, then deterministic Miller-Rabin."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A factor 1 < d < n of the odd composite n with no prime factor below
    256, by Brent's variant of Pollard's rho: x -> x^2 + c from x = 2, c = 1,
    2, ... until a c splits n, the differences multiplied together in runs
    of 128 per gcd.  Deterministic: the same n gives the same d."""
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += 128
            r *= 2
        if g == n:  # the run overshot: step it again one difference at a time
            g, y = 1, saved
            while g == 1:
                y = (y * y + c) % n
                g = gcd(x - y, n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}, primes ascending: trial
    division by the primes below 256, then Pollard-Brent rho splits what is
    left until each part passes is_prime."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # what is left is 1 or a prime below _TRIAL_BOUND
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < _TRIAL_BOUND or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _split(m)
            parts += [d, m // d]
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    out = [1]
    for p, m in factorize(n).items():
        out = [d * p**i for d in out for i in range(m + 1)]
    return sorted(out)


def totient(n: int) -> int:
    t = n
    for p in factorize(n):
        t -= t // p
    return t


def mobius(n: int) -> int:
    """The Möbius function: 0 if a square of a prime divides n, else -1 to
    the number of n's prime factors."""
    fac = factorize(n)
    return 0 if any(k > 1 for k in fac.values()) else (-1) ** len(fac)


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, k),) = fac.items()
    return p, k


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)*; requires gcd(a, m) == 1.  It divides the
    totient, so it is the totient with each prime taken out while a to the
    rest is still 1."""
    if m < 1 or gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = totient(m)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order
