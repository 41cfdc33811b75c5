"""Element-arithmetic oracles that the index-space engine is checked against.

They import nothing from sameorder, so a fault in the engine cannot pass on
both sides of a check.  A permutation is the bytes of its image array and a
matrix the tuple of its rows of field codes; a matrix oracle is handed the
field, whose scalar operations are tested in test_fields.
"""

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
    n, add, mul = len(a), field.add_rows, field.mul_rows
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
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None, 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = field.neg(det)
        det = field.mul(det, m[col][col])
        s = field.pow(m[col][col], field.q - 2)  # its inverse
        m[col] = [field.mul(s, x) for x in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [field.add(x, field.neg(field.mul(f, y))) for x, y in zip(m[r], m[col])]
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
    return min(tuple(tuple(field.mul(s, x) for x in r) for r in rows) for s in scalars)


def preserves_form(field, rows, q: int) -> bool:
    """Whether g* J g = J for the antidiagonal form (g* = conjugate transpose)."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            s = 0
            for c in range(n):
                s = field.add(s, field.mul(field.pow(rows[c][a], q), rows[n - 1 - c][b]))
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
