"""Exact arithmetic for the finite fields GF(p^k), q = p^k <= 512.

Elements are integer codes in ``[0, q)``.  The base-p digits of a code are the
coefficients of a polynomial over GF(p), reduced modulo the lexicographically
smallest monic irreducible polynomial of degree k, so each q has exactly one
field and one code for each element.  Discrete exp/log tables come from a
generator of the multiplicative group, and every field carries dense q-by-q
add and mul tables built from them: scalar operations index their rows and
vectorized matrix arithmetic indexes the numpy copies.  The size limit keeps
those tables small; the smallest SL(2,q) above it has about 1.4e8 elements,
far past any enumerable group.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .numtheory import is_prime

# Largest supported field: dense q*q tables are built for every field.
MAX_FIELD_SIZE = 512


def _digits(code: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a by a monic modulus, little-endian coefficients."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return a[:dm] if len(a) >= dm else a + [0] * (dm - len(a))


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = _digits(code, p, d) + [1]
            if not any(_poly_rem(list(poly), div, p)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    for m in range(p**k):
        cand = tuple(_digits(m, p, k)) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


def field_size(p: int, k: int) -> int:
    """q = p^k, after checking that GF(q) is a field this module supports."""
    if not is_prime(p):
        raise InvalidParameterError(f"characteristic {p} is not prime")
    if k < 1:
        raise InvalidParameterError(f"extension degree {k} must be >= 1")
    q = p**k
    if q > MAX_FIELD_SIZE:
        raise InvalidParameterError(
            f"field size {p}^{k} = {q} exceeds the supported maximum "
            f"MAX_FIELD_SIZE = {MAX_FIELD_SIZE}"
        )
    return q


class FiniteField:
    """GF(p^k) on integer codes, with table-backed operations."""

    def __init__(self, p: int, k: int):
        self.q = field_size(p, k)
        self.p = p
        self.k = k
        self.modulus = _smallest_irreducible(p, k)
        self._p_pows = [p**i for i in range(k)]
        self._build_exp_log()
        self._build_dense_tables()

    # -- construction ------------------------------------------------------

    def _mul_slow(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        pa = _digits(a, self.p, self.k)
        pb = _digits(b, self.p, self.k)
        rem = _poly_rem(_poly_mul(pa, pb, self.p), list(self.modulus), self.p)
        return sum(c * w for c, w in zip(rem, self._p_pows))

    def _build_exp_log(self):
        q = self.q
        # 1 generates only GF(2)*; for larger q its walk stops at once
        for g in range(1, q):
            exp = [1]
            cur = 1
            ok = True
            for _ in range(q - 2):
                cur = self._mul_slow(cur, g)
                if cur == 1:
                    ok = False
                    break
                exp.append(cur)
            if ok:
                assert self._mul_slow(cur, g) == 1
                self.generator = g
                self._exp = exp
                log = [0] * q
                for i, c in enumerate(exp):
                    log[c] = i
                self._log = log
                return
        raise AssertionError("unreachable: GF(q)* is cyclic")

    def _build_dense_tables(self):
        q, p, k = self.q, self.p, self.k
        codes = np.arange(q)
        # digit by digit: each base-p digit of a code adds mod p
        add = np.zeros((q, q), dtype=np.int64)
        scale = 1
        for _ in range(k):
            di = (codes // scale) % p
            add += ((di[:, None] + di[None, :]) % p) * scale
            scale *= p
        exp = np.array(self._exp, dtype=np.int64)
        log = np.array(self._log, dtype=np.int64)
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        self.add_rows = add.tolist()
        self.mul_rows = mul.tolist()
        self.neg_row = (add == 0).argmax(axis=1).tolist()
        self._np_tables = (
            add.astype(np.uint16),
            mul.astype(np.uint16),
        )

    # -- scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_rows[a][b]

    def neg(self, a: int) -> int:
        return self.neg_row[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_rows[a][b]

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0; a^(q-2) is the inverse of a nonzero a."""
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def np_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(add, mul) uint16 arrays for vectorized indexing."""
        return self._np_tables

    def __repr__(self):
        return f"GF({self.q})"
