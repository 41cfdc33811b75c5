"""Permutation elements, permutation groups and the standard family constructors.

A permutation is the bytes of its image array, and those bytes are its key.
A PermutationGroup enumerates itself on the keys alone: right multiplication
by a kept generator h is one bytes.translate through h's 256-entry table,
taken for a whole frontier in one list comprehension, and a Permutation
object is built only when elements() asks for one.

Families: cyclic C(n), dihedral D(n), dicyclic Dic(n) (so Q8 = Dic(2)),
symmetric S(n), alternating A(n), the semidirect products F(m,n,k) of a
cyclic normal subgroup of order m by a cyclic group of order n acting as
multiplication by k, explicit generator lists, and one bespoke order-168
construction (cex3).  Points are 0-indexed internally; the DSL's cycle
notation is 1-indexed.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .core import DEFAULT_CAP, Closure, Group, GroupElement
from .errors import CapExceededError, InvalidParameterError
from .numtheory import divisors

# a permutation's key stores each image in one byte
MAX_DEGREE = 256


class Permutation(GroupElement):
    """A permutation of {0..n-1}, stored as the bytes of its image array.

    The bytes are the key, and a product is one bytes.translate of the first
    factor's images through the second's.  At most MAX_DEGREE points.
    """

    __slots__ = ("_key", "_table")

    def __init__(self, images):
        images = list(images)
        check_degree(len(images))
        self._key = bytes(images)
        self._table = None

    @classmethod
    def from_key(cls, key: bytes) -> "Permutation":
        """The permutation whose key is key, which a valid permutation produced."""
        out = cls.__new__(cls)
        out._key, out._table = key, None
        return out

    @property
    def images(self) -> tuple:
        return tuple(self._key)

    def table(self) -> bytes:
        """The 256-entry bytes.translate table: images, then the points past the degree."""
        if self._table is None:
            self._table = self._key + bytes(range(len(self._key), 256))
        return self._table

    def op(self, other: "Permutation") -> "Permutation":
        """self then other: images[i] = other(self(i))."""
        return Permutation.from_key(self._key.translate(other.table()))

    def inv(self) -> "Permutation":
        out = [0] * len(self._key)
        for i, j in enumerate(self._key):
            out[j] = i
        return Permutation(out)

    def key(self) -> bytes:
        return self._key

    def degree(self) -> int:
        return len(self._key)

    def cycles(self) -> list:
        """Nontrivial cycles, each starting at its smallest point."""
        images = self._key
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            if seen[start] or images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = images[j]
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)


def perm_identity(degree: int) -> Permutation:
    return Permutation(range(degree))


def perm_from_cycles(cycles, degree: int) -> Permutation:
    """Build a permutation from 0-indexed disjoint cycles."""
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
    return Permutation(images)


def check_degree(degree: int):
    if degree > MAX_DEGREE:
        raise InvalidParameterError(
            f"permutations act on at most {MAX_DEGREE} points, got {degree}"
        )


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
        element: only those cost more Python work, and they take the next
        positions in batch order.  elements is the keys in position order.
        Raises CapExceededError past the cap, checked after each batch.
        """
        keys = [self.identity.key()]
        index = {keys[0]: 0}
        # C ints, not Python lists of ints: the table is |G| * kept entries
        kept, rows = [], []
        parent, letter, layers = array("i", [0]), array("i", [0]), [1]
        for g in self.generators:
            if g.key() in index:
                continue
            kept.append(g)
            rows.append(array("i"))
            frontier, first, mults = list(keys), 0, [len(kept) - 1]
            while frontier:
                for k in mults:
                    t = kept[k].table()
                    ys = [x.translate(t) for x in frontier]
                    pos = list(map(index.get, ys))
                    i = 0
                    for _ in range(pos.count(None)):
                        i = pos.index(None, i)
                        pos[i] = index[ys[i]] = len(keys)
                        keys.append(ys[i])
                        parent.append(first + i)
                        letter.append(k)
                    rows[k].extend(pos)
                    if len(keys) > self.cap:
                        raise CapExceededError(self.cap)
                first, frontier = first + len(frontier), keys[first + len(frontier):]
                if frontier:
                    layers.append(len(keys))
                mults = range(len(kept))
        table = np.frombuffer(b"".join(rows), dtype=np.intc).reshape(len(kept), len(keys))
        return Closure(keys, kept, table, np.frombuffer(parent, dtype=np.intc),
                       np.frombuffer(letter, dtype=np.intc), layers)

    def elements(self) -> list:
        return [Permutation.from_key(k) for k in self._walked().elements]


def permutation_group(generators, name=None, cap=DEFAULT_CAP) -> PermutationGroup:
    if not generators:
        raise InvalidParameterError("a permutation group needs at least one generator")
    deg = generators[0].degree()
    check_degree(deg)
    for g in generators:
        if g.degree() != deg:
            raise InvalidParameterError("generators act on different point counts")
    return PermutationGroup(generators, perm_identity(deg), name=name, cap=cap)


# -- family constructors --------------------------------------------------------
# The builders take parameters that family_order has validated.


def cyclic_generators(n: int) -> list:
    return [Permutation([(i + 1) % n for i in range(n)])]


def dihedral_generators(n: int) -> list:
    """D(n) of order 2n.

    n = 1 and n = 2 get bespoke point sets: the natural action on n points
    collapses there (negation mod 1 or 2 fixes everything).
    """
    if n == 1:
        return [Permutation([1, 0])]
    if n == 2:
        return [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])]
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(-i) % n for i in range(n)])
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
        return Permutation(images)

    return [left_mul(1, 0), left_mul(0, 1)]


def symmetric_generators(n: int) -> list:
    if n == 1:
        return [Permutation([0])]
    cycle = Permutation([(i + 1) % n for i in range(n)])
    if n == 2:
        return [cycle]
    swap = perm_from_cycles([(0, 1)], n)
    return [swap, cycle]


def alternating_generators(n: int) -> list:
    if n <= 2:
        return [perm_identity(max(n, 1))]
    if n == 3:
        return [perm_from_cycles([(0, 1, 2)], 3)]
    three = perm_from_cycles([(0, 1, 2)], n)
    if n % 2 == 1:
        big = Permutation([(i + 1) % n for i in range(n)])
    else:
        # an n-cycle is odd for even n; rotate all but the first point instead
        big = Permutation([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return [three, big]


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
    shift = Permutation([(x + 1) % m for x in range(m)])
    mult = Permutation([(kk * x) % m for x in range(m)])
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
    act = Permutation(images)
    outer = perm_from_cycles([(11, 12)], deg)
    return [seven, t1, t2, act, outer]


FAMILY_BUILDERS = {
    "C": cyclic_generators,
    "D": dihedral_generators,
    "Dic": dicyclic_generators,
    "S": symmetric_generators,
    "A": alternating_generators,
    "F": frobenius_generators,
    "cex3": cex3_generators,
}


def family_degree(family: str, params) -> int:
    """The points a family's builder acts on, from its validated parameters."""
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
