"""Element-arithmetic oracles that the index-space engine is checked against.

They import nothing from sameorder, so a fault in the engine cannot pass on
both sides of a check.  A permutation is the bytes of its image array and a
matrix the tuple of its rows of field codes; a matrix oracle is handed the
field and reads its add, mul and neg arrays as lists of ints, tables that
test_fields checks against polynomial arithmetic.
"""

import itertools
import math

import numpy as np


def perm_mul(a: bytes, b: bytes) -> bytes:
    """a then b: images[i] = b[a[i]]."""
    return bytes(b[i] for i in a)


def perm_inv(a: bytes) -> bytes:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return bytes(out)


def perm_cycles(a: bytes) -> list:
    """Nontrivial cycles, each starting at its smallest point."""
    seen, out = set(), []
    for start in range(len(a)):
        if start in seen or a[start] == start:
            continue
        cyc, j = [start], a[start]
        while j != start:
            cyc.append(j)
            j = a[j]
        seen.update(cyc)
        out.append(tuple(cyc))
    return out


def perm_order(a: bytes) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(1, *map(len, perm_cycles(a)))


def mat_mul(field, a, b) -> tuple:
    n, add, mul = len(a), field.add.tolist(), field.mul.tolist()
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s = add[s][mul[a[i][k]][b[k][j]]]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _eliminate(field, rows):
    """Gauss-Jordan elimination of rows, some columns augmented to the right
    of the first len(rows): (the reduced rows, the determinant of the left
    square), or (None, 0) when that square is singular."""
    n, m, det = len(rows), [list(r) for r in rows], 1
    add, mul, neg = field.add.tolist(), field.mul.tolist(), field.neg.tolist()
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None, 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = neg[det]
        det = mul[det][m[col][col]]
        s = field.pow(m[col][col], field.q - 2)  # its inverse
        m[col] = [mul[s][x] for x in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [add[x][neg[mul[f][y]]] for x, y in zip(m[r], m[col])]
    return m, det


def mat_inv(field, rows) -> tuple:
    n = len(rows)
    m, _ = _eliminate(field, [list(r) + [int(i == j) for j in range(n)]
                              for i, r in enumerate(rows)])
    if m is None:
        raise ValueError("matrix is singular")
    return tuple(tuple(r[n:]) for r in m)


def mat_det(field, rows) -> int:
    return _eliminate(field, rows)[1]


def least_multiple(field, rows, scalars) -> tuple:
    """The least rows tuple among s * rows for s in scalars."""
    mul = field.mul.tolist()
    return min(tuple(tuple(mul[s][x] for x in r) for r in rows) for s in scalars)


def preserves_form(field, rows, q: int) -> bool:
    """Whether g* J g = J for the antidiagonal form (g* = conjugate transpose)."""
    n, add, mul = len(rows), field.add.tolist(), field.mul.tolist()
    for a in range(n):
        for b in range(n):
            s = 0
            for c in range(n):
                s = add[s][mul[field.pow(rows[c][a], q)][rows[n - 1 - c][b]]]
            if s != (1 if a + b == n - 1 else 0):
                return False
    return True


def unpack_keys(keys, q: int, n: int) -> list:
    """The rows of packed n x n keys: n*n codes of (q-1).bit_length() bits
    each, first entry highest."""
    bits = (q - 1).bit_length()
    shifts = np.arange(n * n - 1, -1, -1, dtype=np.uint64) * np.uint64(bits)
    codes = np.asarray(keys, dtype=np.uint64)[:, None] >> shifts & np.uint64((1 << bits) - 1)
    return [tuple(map(tuple, m)) for m in codes.reshape(-1, n, n).tolist()]


def elements(group) -> list:
    """The group's elements in position order: a permutation group's bytes
    keys, or a matrix group's rows, unpacked from its packed keys."""
    keys = group._walked().elements
    if hasattr(group, "field"):
        return unpack_keys(keys, group.field.q, group.n)
    return list(keys)


def arithmetic(group):
    """(product, inverse, identity) on elements as elements(group) gives
    them; a matrix group's products are taken to their least multiple over
    its scalars, as its walk keeps them."""
    if not hasattr(group, "field"):
        return perm_mul, perm_inv, bytes(range(len(group.generators[0])))
    f, z, n = group.field, group.scalars, group.n
    return (lambda a, b: least_multiple(f, mat_mul(f, a, b), z),
            lambda a: least_multiple(f, mat_inv(f, a), z),
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def element_order_naive(group, x) -> int:
    """Repeated multiplication by x until the identity returns."""
    mul, _, identity = arithmetic(group)
    cur, n = x, 1
    while cur != identity:
        cur, n = mul(cur, x), n + 1
    return n


def _generated(mul, identity, gens) -> set:
    """Elements of the subgroup the given elements generate: products of
    them from the identity until nothing new."""
    reached, frontier = {identity}, [identity]
    while frontier:
        frontier = [z for z in {mul(y, c) for y in frontier for c in gens} if z not in reached]
        reached.update(frontier)
    return reached


def normal_closure_order_naive(group, elements, x) -> int:
    """Order of the smallest normal subgroup holding x, by element arithmetic:
    every conjugate g^-1 x g, then products of those until nothing new.  A
    conjugate already generated adds nothing, so only the others are
    multiplied by."""
    mul, inv, identity = arithmetic(group)
    gens, reached = [], set()
    for g in elements:
        c = mul(mul(inv(g), x), g)
        if c not in reached:
            gens.append(c)
            reached = _generated(mul, identity, gens)
    return len(reached)


def derived_series_naive(group, elements) -> tuple:
    """Orders along the derived series and the solvable flag, by element
    arithmetic: each term is generated by the commutators a^-1 b^-1 a b of
    all pairs in the term before, until the order repeats or reaches 1."""
    mul, inv, identity = arithmetic(group)
    term, orders = list(elements), [len(elements)]
    while orders[-1] > 1 and (len(orders) < 2 or orders[-1] != orders[-2]):
        inverses = [inv(a) for a in term]
        commutators = {mul(mul(mul(a_inv, b_inv), a), b)
                       for a, a_inv in zip(term, inverses) for b, b_inv in zip(term, inverses)}
        term = _generated(mul, identity, list(commutators))
        orders.append(len(term))
    return tuple(orders), orders[-1] == 1


def cyclic_generators(n: int) -> list:
    """C(n) on n points: the n-cycle."""
    return [bytes([(i + 1) % n for i in range(n)])]


def dihedral_generators(n: int) -> list:
    """D(n) of order 2n: rotation and reflection of n points.

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


def frobenius_generators(m: int, n: int, k: int) -> list:
    """F(m,n,k): C_m extended by C_n acting as x -> k*x mod m, on m points.

    The group has order m*n when k has multiplicative order exactly n mod
    m, which the DSL checks; these generators are not checked here.
    """
    kk = k % m
    shift = bytes([(x + 1) % m for x in range(m)])
    mult = bytes([(kk * x) % m for x in range(m)])
    return [shift, mult]


def symmetric_generators(n: int) -> list:
    """Generators of S(n) on n points: the swap of the first two and the
    n-cycle."""
    cycle = bytes([(i + 1) % n for i in range(n)])
    if n <= 2:
        return [cycle]
    return [bytes([1, 0] + list(range(2, n))), cycle]


def alternating_generators(n: int) -> list:
    """Generators of A(n) on n points: the 3-cycle (0, 1, 2) and an odd
    cycle through all but at most the first point."""
    if n <= 2:
        return [bytes(range(n))]
    three = bytes([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return [three]
    if n % 2 == 1:
        big = bytes([(i + 1) % n for i in range(n)])
    else:
        # an n-cycle is odd for even n; rotate all but the first point instead
        big = bytes([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return [three, big]


# the generators of each family the DSL answers from its parameters, by name
PERMUTATION_BUILDERS = {
    "C": cyclic_generators, "D": dihedral_generators, "Dic": dicyclic_generators,
    "F": frobenius_generators, "S": symmetric_generators, "A": alternating_generators,
}


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def symmetric_spectrum_formula(n: int, alternating: bool = False) -> dict:
    """Order spectrum of S(n) or A(n) by cycle type: n! / prod(k^m_k m_k!)
    permutations of each type, of order the lcm of its parts, even when
    n minus the number of cycles is."""
    counts = {}
    for parts in _partitions(n):
        if alternating and (n - len(parts)) % 2:
            continue
        size = math.factorial(n)
        for k in set(parts):
            m = parts.count(k)
            size //= k**m * math.factorial(m)
        order = math.lcm(*parts)
        counts[order] = counts.get(order, 0) + size
    return dict(sorted(counts.items()))


def metacyclic_spectrum(m: int, n: int, k: int, s: int = 0) -> dict:
    """Order spectrum of <a, b | a^m = 1, b^n = a^s, b a b^-1 = a^k>, one
    numpy pass over c in Z_m for each e.  With u = k^e and d = n / gcd(n, e),
    (a^c b^e)^d = a^x for x = c(1 + u + ... + u^(d-1)) + s·de/n, the sum
    taken term by term, so a^c b^e has order d·m / gcd(m, x)."""
    k, s = k % m, s % m
    c, counts = np.arange(m, dtype=np.int64), {}
    for e in range(n):
        d = n // math.gcd(n, e)
        u = pow(k, e, m)
        geometric = sum(pow(u, i, m) for i in range(d)) % m
        x = (c * geometric + s * d * e // n) % m
        sizes = np.bincount(np.gcd(x, m))
        for g in np.flatnonzero(sizes).tolist():
            order = d * m // g
            counts[order] = counts.get(order, 0) + int(sizes[g])
    return dict(sorted(counts.items()))


def metacyclic_orders_naive(m: int, n: int, k: int, s: int = 0) -> dict:
    """The same spectrum by multiplying elements: a^c b^e is the pair (c, e),
    a^c b^e a^c' b^e' = a^(c + k^e c') b^(e + e'), and b^n = a^s folds an
    exponent of b past n.  For small m·n only."""
    def mul(x, y):
        (c, e), (c2, e2) = x, y
        c, e = c + pow(k, e, m) * c2, e + e2
        if e >= n:
            c, e = c + s, e - n
        return c % m, e

    counts = {}
    for x in itertools.product(range(m), range(n)):
        order, y = 1, x
        while y != (0, 0):
            order, y = order + 1, mul(y, x)
        counts[order] = counts.get(order, 0) + 1
    return dict(sorted(counts.items()))


def factorizations_naive(limit: int) -> list:
    """{prime: multiplicity} of every n below limit, at index n (index 0
    holds None): a smallest-prime-factor sieve, then each n's factorization
    is that of n / spf(n) with spf(n) counted once more."""
    spf = list(range(limit))
    for p in range(math.isqrt(limit - 1), 1, -1):
        # descending, so the last write to a multiple of p^2 is its least
        # prime factor, every composite m having spf(m)^2 <= m
        spf[p * p::p] = [p] * len(range(p * p, limit, p))
    out = [None, {}]
    for n in range(2, limit):
        p = spf[n]
        fac = dict(out[n // p])
        fac[p] = fac.get(p, 0) + 1
        out.append(fac)
    return out
