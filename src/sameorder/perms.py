"""Permutation groups.

A permutation is the bytes of its image array, and those bytes are its key:
generators are given as such bytes, and no other form of a permutation
exists.  A PermutationGroup enumerates itself on the keys alone: right
multiplication by a kept generator h is one bytes.translate through h's
256-entry table, taken for a whole frontier in one list comprehension.
Points are 0-indexed here; the DSL's cycle notation is 1-indexed, and its
Perm[...] and cex3 atoms are built here.  The C, D, Dic and F builders that
check the DSL's parametric answers live in tests/oracles.py.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, repeat

from .core import DEFAULT_CAP, Closure, Group
from .errors import CapExceededError, InvalidParameterError

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
