"""Small integer helpers used across the engine."""

from __future__ import annotations

from math import gcd, isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    """Order of a in (Z/m)*; requires gcd(a, m) == 1."""
    if m < 1 or gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    if m == 1:
        return 1
    for d in divisors(totient(m)):
        if pow(a, d, m) == 1:
            return d
    raise AssertionError("unreachable: order divides the totient")
