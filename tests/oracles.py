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
