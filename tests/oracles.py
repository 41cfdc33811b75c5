"""Element-arithmetic oracles that the index-space engine is checked against."""

import math


def element_order_naive(g) -> int:
    """Repeated composition until the identity returns."""
    identity = g.op(g.inv())
    ekey = identity.key()
    cur = g
    n = 1
    while cur.key() != ekey:
        cur = cur.op(g)
        n += 1
    return n


def perm_order(p) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    order = 1
    for c in p.cycles():
        order = math.lcm(order, len(c))
    return order


def normal_closure_order_naive(elements, x) -> int:
    """Order of the smallest normal subgroup holding x, by element arithmetic:
    every conjugate g^-1 x g, then products of those until nothing new."""
    conjugates = {}
    for g in elements:
        c = g.inv().op(x).op(g)
        conjugates[c.key()] = c
    identity = x.op(x.inv())
    reached, frontier = {identity.key()}, [identity]
    while frontier:
        fresh = []
        for y in frontier:
            for c in conjugates.values():
                z = y.op(c)
                if z.key() not in reached:
                    reached.add(z.key())
                    fresh.append(z)
        frontier = fresh
    return len(reached)


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
