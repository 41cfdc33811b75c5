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
