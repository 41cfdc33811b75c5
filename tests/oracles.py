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


def _generated(identity, gens) -> list:
    """Elements of the subgroup the given elements generate: products of
    them from the identity until nothing new."""
    reached, frontier = {identity.key(): identity}, [identity]
    while frontier:
        fresh = []
        for y in frontier:
            for c in gens:
                z = y.op(c)
                if z.key() not in reached:
                    reached[z.key()] = z
                    fresh.append(z)
        frontier = fresh
    return list(reached.values())


def normal_closure_order_naive(elements, x) -> int:
    """Order of the smallest normal subgroup holding x, by element arithmetic:
    every conjugate g^-1 x g, then products of those until nothing new.  A
    conjugate already generated adds nothing, so only the others are
    multiplied by."""
    identity, gens, reached = x.op(x.inv()), [], set()
    for g in elements:
        c = g.inv().op(x).op(g)
        if c.key() not in reached:
            gens.append(c)
            reached = {y.key() for y in _generated(identity, gens)}
    return len(reached)


def derived_series_naive(elements) -> tuple:
    """Orders along the derived series and the solvable flag, by element
    arithmetic: each term is generated by the commutators a^-1 b^-1 a b of
    all pairs in the term before, until the order repeats or reaches 1."""
    identity = elements[0].op(elements[0].inv())
    term, orders = list(elements), [len(elements)]
    while orders[-1] > 1 and (len(orders) < 2 or orders[-1] != orders[-2]):
        inverses = [a.inv() for a in term]
        commutators = {}
        for a, a_inv in zip(term, inverses):
            for b, b_inv in zip(term, inverses):
                c = a_inv.op(b_inv).op(a).op(b)
                commutators[c.key()] = c
        term = _generated(identity, list(commutators.values()))
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
