"""Permutation groups and the standard family constructors.

A permutation is the bytes of its image array, and those bytes are its key:
generators are given as such bytes, and no other form of a permutation
exists.  A PermutationGroup enumerates itself on the keys alone: right
multiplication by a kept generator h is one bytes.translate through h's
256-entry table, taken for a whole frontier in one list comprehension.

Builders: cyclic C(n), dihedral D(n), dicyclic Dic(n) (so Q8 = Dic(2)),
the semidirect products F(m,n,k) of a cyclic normal subgroup of order m by a
cyclic group of order n acting as multiplication by k, and one bespoke
order-168 construction (cex3); explicit generator lists come from the DSL.
Points are 0-indexed internally; the DSL's cycle notation is 1-indexed.

The DSL builds cex3 and Perm[...] atoms here.  It answers C, D, Dic and F
atoms from their parameters (core.Metacyclic), but their builders stay: they
are the oracle the tests check those answers against, and
counterexample_report enumerates Dic(2) and F(7,3,2) with them to read its
disputed counts.  Symmetric S(n) and alternating A(n) atoms are answered
from their cycle types (core.Symmetric) and have no builder here; their
orders and point counts are validated here with the others'.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress, count, repeat

from .core import DEFAULT_CAP, Closure, Group
from .errors import CapExceededError, InvalidParameterError
from .numtheory import divisors

# a permutation's key stores each image in one byte
MAX_DEGREE = 256


def perm_from_cycles(cycles, degree: int) -> bytes:
    """The key of the permutation with these 0-indexed disjoint cycles."""
    check_degree(degree)
    images = list(range(degree))
    seen = set()
    for cyc in cycles:
        for p in cyc:
            if p in seen:
                raise InvalidParameterError(
                    f"point {p + 1} repeated across cycles of one permutation"
                )
            if not 0 <= p < degree:
                raise InvalidParameterError(f"point {p + 1} outside degree {degree}")
            seen.add(p)
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return bytes(images)


def check_degree(degree: int):
    if degree > MAX_DEGREE:
        raise InvalidParameterError(
            f"permutations act on at most {MAX_DEGREE} points, got {degree}"
        )


# A batch of at least this many products numbers its new elements in numpy;
# below it numpy's per-call cost exceeds the Python loop's (16, 64 and 256
# measured the same on S(8) and A(8)).
_BATCH = 64


class PermutationGroup(Group):
    """Group of permutations of one point set, enumerated on bytes keys."""

    def _walk(self):
        """The Closure of the group, walked on keys.

        A new generator multiplies every element known so far once, and the
        elements it brings in then take every kept generator until nothing
        new appears (a finite group needs no inverses), so each product is
        formed once and each row of R fills in position order.  A round takes
        one batch per kept generator h: the frontier's products in one
        translate through h's table, then their positions in one pass of
        lookups in the index.  Right multiplication by h is one-to-one, so a
        batch holds no key twice, and each product the index lacks is a new
        element; the new elements take the next positions in batch order.
        A batch of _BATCH products or more finds and numbers them in numpy
        and enters them in the index with one dict.update; a smaller one, as
        in a deep tree (C(168) is 168 batches of one product), in a Python
        loop over the new elements alone.  Both give the same Closure.
        elements is the keys in position order.  Raises CapExceededError
        past the cap, checked after each batch on either path.
        """
        import numpy as np
        degree = len(self.generators[0])
        keys = [bytes(range(degree))]
        index = {keys[0]: 0}
        # C ints, not Python lists of ints: the table is |G| * kept entries
        kept, tables, rows = [], [], []
        parent, letter, layers = array("i", [0]), array("i", [0]), [1]
        for g in self.generators:
            if g in index:
                continue
            kept.append(g)
            tables.append(g + bytes(range(degree, 256)))  # points past the degree stay put
            rows.append(array("i"))
            frontier, first, mults = list(keys), 0, [len(kept) - 1]
            while frontier:
                for k in mults:
                    t = tables[k]
                    ys = [x.translate(t) for x in frontier]
                    if len(ys) < _BATCH:
                        pos = list(map(index.get, ys))
                        i = 0
                        for _ in range(pos.count(None)):
                            i = pos.index(None, i)
                            pos[i] = index[ys[i]] = len(keys)
                            keys.append(ys[i])
                            parent.append(first + i)
                            letter.append(k)
                        rows[k].extend(pos)
                    else:
                        pos = np.fromiter(map(index.get, ys, repeat(-1)), np.intc, len(ys))
                        missing = pos < 0
                        new = np.flatnonzero(missing)
                        if new.size:
                            fresh = list(compress(ys, missing.tolist()))
                            index.update(zip(fresh, count(len(keys))))
                            pos[new] = np.arange(len(keys), len(keys) + len(new), dtype=np.intc)
                            keys.extend(fresh)
                            parent.frombytes((new + first).astype(np.intc).tobytes())
                            letter.frombytes(np.full(len(new), k, dtype=np.intc).tobytes())
                        rows[k].frombytes(pos.tobytes())
                    if len(keys) > self.cap:
                        raise CapExceededError(self.cap)
                first, frontier = first + len(frontier), keys[first + len(frontier):]
                if frontier:
                    layers.append(len(keys))
                mults = range(len(kept))
        table = np.frombuffer(b"".join(rows), dtype=np.intc).reshape(len(kept), len(keys))
        return Closure(keys, kept, table, np.frombuffer(parent, dtype=np.intc),
                       np.frombuffer(letter, dtype=np.intc), layers)

    def is_simple(self) -> bool:
        """As Group.is_simple, but a group of order past 2 with an odd
        generator is not simple: its even elements are a normal subgroup of
        index 2."""
        if self._simple is None and any(map(_is_odd, self.generators)) and self.order() > 2:
            self._simple = False
        return super().is_simple()


def _is_odd(key: bytes) -> bool:
    """Whether a permutation is odd: its degree less its number of cycles is."""
    seen, cycles = bytearray(len(key)), 0
    for start in range(len(key)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = 1
                x = key[x]
    return (len(key) - cycles) % 2 == 1


def permutation_group(generators, name=None, cap=DEFAULT_CAP) -> PermutationGroup:
    if not generators:
        raise InvalidParameterError("a permutation group needs at least one generator")
    points = set(range(len(generators[0])))
    check_degree(len(points))
    # images that are no permutation make a walk whose structure passes never end
    if any(len(g) != len(points) or set(g) != points for g in generators):
        raise InvalidParameterError("generators are not permutations of one point set")
    return PermutationGroup(generators, name=name, cap=cap)


# -- family constructors --------------------------------------------------------
# The builders take parameters that family_order has validated.  A family's
# point count, family_degree, is checked for every family atom, those answered
# from parameters too.


def cyclic_generators(n: int) -> list:
    return [bytes([(i + 1) % n for i in range(n)])]


def dihedral_generators(n: int) -> list:
    """D(n) of order 2n.

    n = 1 and n = 2 get bespoke point sets: the natural action on n points
    collapses there (negation mod 1 or 2 fixes everything).
    """
    if n == 1:
        return [bytes([1, 0])]
    if n == 2:
        return [bytes([1, 0, 2, 3]), bytes([0, 1, 3, 2])]
    rot = bytes([(i + 1) % n for i in range(n)])
    ref = bytes([(-i) % n for i in range(n)])
    return [rot, ref]


def dicyclic_generators(n: int) -> list:
    """Dic(n) of order 4n via its left regular representation.

    Elements are a^i b^j with a of order 2n, b^2 = a^n, b a b^-1 = a^-1;
    the point a^i b^j gets index j*2n + i.
    """
    m = 2 * n

    def left_mul(i0, j0):
        images = []
        for j in range(2):
            for i in range(m):
                # (a^i0 b^j0) * (a^i b^j)
                if j0 == 0:
                    ii, jj = (i0 + i) % m, j
                elif j == 0:
                    ii, jj = (i0 - i) % m, 1
                else:
                    ii, jj = (i0 - i + n) % m, 0
                images.append(jj * m + ii)
        return bytes(images)

    return [left_mul(1, 0), left_mul(0, 1)]


def _check_frobenius(m: int, n: int, k: int, cap: int):
    """Raise unless F(m,n,k) is defined; see frobenius_generators.

    The cheap conditions come first.  Whether k's order is exactly n is
    asked only when m*n <= cap, from the divisors of n, so a modulus is
    never factored: a larger group is past the cap and is never built.
    """
    if m < 2:
        raise InvalidParameterError(f"F({m},{n},{k}): modulus must be >= 2")
    if n < 1 or k < 0:
        raise InvalidParameterError(f"F({m},{n},{k}): parameters out of range")
    kk = k % m
    if math.gcd(kk, m) != 1:
        raise InvalidParameterError(
            f"F({m},{n},{k}): gcd({k},{m}) = {math.gcd(kk, m)}, multiplier must be a unit"
        )
    if pow(kk, n, m) != 1:
        raise InvalidParameterError(
            f"F({m},{n},{k}): {k}^{n} = {pow(kk, n, m)} (mod {m}), need 1"
        )
    if m * n > cap:
        return
    d = next(e for e in divisors(n) if pow(kk, e, m) == 1)
    if d != n:
        raise InvalidParameterError(
            f"F({m},{n},{k}): {k} has multiplicative order {d} (mod {m}), need exactly {n}"
        )


def frobenius_generators(m: int, n: int, k: int) -> list:
    """F(m,n,k): C_m extended by C_n acting as x -> k*x mod m.

    Requires k to have multiplicative order exactly n mod m, which also
    forces gcd(k, m) = 1; the group has order m*n and acts on m points.
    """
    kk = k % m
    shift = bytes([(x + 1) % m for x in range(m)])
    mult = bytes([(kk * x) % m for x in range(m)])
    return [shift, mult]


def cex3_generators() -> list:
    """The third order-168 construction: C2 x ((C14 x C2) : C3).

    Writing C14 x C2 = C7 x (C2 x C2), the C3 acts diagonally: as squaring
    on the C7 part and as the 3-cycle on the involutions of the Klein four
    part.  This is the action pinned here; letting C3 act on only one factor
    gives five distinct class sizes no longer (the type gains a sixth size).
    Points 0-6 carry the C7, 7-10 the four-point regular action of the Klein
    group, 11-12 the outer C2.
    """
    deg = 13
    seven = perm_from_cycles([(0, 1, 2, 3, 4, 5, 6)], deg)
    t1 = perm_from_cycles([(7, 8), (9, 10)], deg)
    t2 = perm_from_cycles([(7, 9), (8, 10)], deg)
    images = list(range(deg))
    for x in range(7):
        images[x] = (2 * x) % 7
    images[8], images[9], images[10] = 9, 10, 8
    act = bytes(images)
    outer = perm_from_cycles([(11, 12)], deg)
    return [seven, t1, t2, act, outer]


FAMILY_BUILDERS = {
    "C": cyclic_generators,
    "D": dihedral_generators,
    "Dic": dicyclic_generators,
    "F": frobenius_generators,
    "cex3": cex3_generators,
}


def family_degree(family: str, params) -> int:
    """The points a family's builder acts on, from its validated parameters;
    n for S(n) and A(n), which have none."""
    if family == "cex3":
        return 13
    n = params[0]  # F(m,n,k) acts on m points
    return {"D": 2 * n if n <= 2 else n, "Dic": 4 * n}.get(family, n)


def family_order(family: str, params, cap: int = DEFAULT_CAP) -> int:
    """Order of a named family's group from its parameters, which it validates.

    The family and the parameter count are the parser's to check.  Allocates
    nothing.  The factorials of S(n) and A(n) stop once past cap, so the
    answer is exact up to cap and only known to exceed it beyond.
    """
    if family == "cex3":
        return 168
    if family == "F":
        _check_frobenius(*params, cap)
        return params[0] * params[1]
    (n,) = params
    if n < 1:
        raise InvalidParameterError(f"{family}({n}): parameter must be >= 1")
    if family in ("S", "A"):
        order = 1
        for i in range(2 if family == "S" else 3, n + 1):  # n!/2 = 3 * 4 * ... * n
            order *= i
            if order > cap:
                break
        return order
    return {"C": 1, "D": 2, "Dic": 4}[family] * n
