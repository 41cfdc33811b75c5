"""Finite group engine.

A group is held as a generating set, each generator as its key: the bytes of
a permutation's image array, or the rows of a matrix's field codes.  A
subclass's batched walk on keys enumerates it (``perms.PermutationGroup`` on
bytes, ``matrices.MatrixGroup`` on packed ints) and keeps the table of right
multiplications by the kept generators, R[k, x] = position of x * kept[k]:
the coset table of the trivial subgroup.  An element is its key and its
position; there is no element object, and ``Group`` itself never multiplies
elements.  All structure is read off R in index space: the walk's spanning
tree writes each element as a word in the kept generators, so a pass over
the tree layers, one gather per layer, gives any element's left
multiplication map.  A group runs one such pass, for the inverse maps L_k^-1
of its kept generators k; the conjugacy classes are the orbits of the
conjugation maps R_k read through them, and an element's order is a class
function found by one power walk per class, which also gives each class's
powers.  The spectrum sums class sizes per class order.  Simplicity and
solvability are first decided from theorems.  Class data (sizes, orders and
powers, with Lagrange and Sylow) rule out orders a normal subgroup could
have: every proper one, so the group is simple, or every prime power, so it
is not solvable.  An order with at most two prime divisors (Burnside) or an
odd one (Feit-Thompson) makes a group solvable, and a permutation group with
an odd generator is not simple (``perms``).  Where none decides, and for the
derived series, normal closures walk on a bool mask over positions and queue
each kept element's conjugates by the kept generators, whose left maps L_k^-1
L_x L_k are a scatter and a gather, not a tree pass.  Left maps, class
numbering and normal-closure rounds are linear passes over |G| with no sort:
a set of positions is a mask, read in position order.  A direct product is
never enumerated: ``DirectProduct`` answers from its factors.  Nor is a
metacyclic atom, cyclic, dihedral, dicyclic or F(m,n,k): ``Metacyclic``
answers from its parameters; nor a symmetric or alternating one, which
``Symmetric`` answers from its cycle types; nor SL(2,q) or SL(3,q), which
``SpecialLinear`` answers from q, as it answers the hunt's PSL references.
``Invariants``, their one base, reads the same-order type off what each
gives, and solvability off the derived series where a subclass has no
shorter route.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from functools import partial, reduce
from itertools import combinations
from typing import NamedTuple

from .errors import CapExceededError, NoWitnessError
from .numtheory import divisors, factorize, is_prime, multiplicative_order, prime_power, totient

DEFAULT_CAP = 1_000_000


class Spectrum(NamedTuple):
    """Order spectrum: how many elements have each order.

    counts maps element order t to s_t, keys ascending; group_order rides
    along so consumers never re-sum the counts.
    """

    counts: dict
    group_order: int

    def alpha(self) -> tuple:
        """Sizes of the same-order classes, ascending and deduplicated."""
        return tuple(sorted(set(self.counts.values())))


def spectrum_direct_product(a: Spectrum, b: Spectrum) -> Spectrum:
    """Spectrum of a direct product by convolution over lcm of orders."""
    acc: dict = {}
    for u, su in a.counts.items():
        for v, sv in b.counts.items():
            t = math.lcm(u, v)
            acc[t] = acc.get(t, 0) + su * sv
    counts = {t: acc[t] for t in sorted(acc)}
    return Spectrum(counts=counts, group_order=a.group_order * b.group_order)


def spectrum_checks(spec: Spectrum) -> list:
    """Structural sanity checks on a spectrum.

    Returns (name, ok, detail) triples: counts must sum to the group order,
    the identity is alone in order 1, every realized order divides the group
    order, phi(t) divides s_t (the order-t elements split into generating
    sets of cyclic subgroups), s_2 is odd in groups of even order
    (every element other than an involution or the identity pairs off with
    its distinct inverse, so 1 + s_2 is even when the group order is), and
    d divides #{x : x^d = 1}, the sum of s_t over t dividing d, for every d
    dividing the group order (Frobenius 1895).  That sum depends on d only
    through g = gcd(d, E), for E the lcm of the orders dividing |G|, and the
    d with gcd(d, E) = g all divide the largest of them, so that one d per
    divisor g of E is tested: a large group order's divisors are never
    listed.
    """
    n = spec.group_order
    total = sum(spec.counts.values())
    checks = [
        ("counts sum to group order", total == n, f"sum {total} vs order {n}"),
        ("exactly one element of order 1", spec.counts.get(1) == 1,
         f"s_1 = {spec.counts.get(1)}"),
    ]
    bad_div = [t for t in spec.counts if n % t != 0]
    checks.append(("every element order divides the group order", not bad_div,
                   f"offenders {bad_div}" if bad_div else "all divide"))
    bad_phi = [t for t, s in spec.counts.items() if s % totient(t) != 0]
    checks.append(("phi(t) divides s_t for every order t", not bad_phi,
                   f"offenders {bad_phi}" if bad_phi else "all divide"))
    if n % 2 == 0:
        s2 = spec.counts.get(2, 0)
        checks.append(("s_2 odd in a group of even order", s2 % 2 == 1, f"s_2 = {s2}"))
    exponent = math.lcm(*(t for t in spec.counts if n % t == 0))
    spare = factorize(n // exponent)
    bad_d = []
    for g in divisors(exponent):
        d = g * math.prod(p**e for p, e in spare.items() if exponent // g % p)
        if sum(s for t, s in spec.counts.items() if g % t == 0) % d:
            bad_d.append(d)
    bad_d.sort()
    checks.append(("d divides #{x : x^d = 1} for every d dividing the group order", not bad_d,
                   f"offenders {bad_d}" if bad_d else "all divide"))
    return checks


class NonIsoCertificate(NamedTuple):
    """Witness that two groups are not isomorphic.

    reason is one of order-mismatch, spectrum-mismatch, center-size-mismatch,
    solvability-mismatch, simplicity-mismatch; left/right are the differing
    invariant values, and a spectrum mismatch also names a specific element
    order t.  Absence of a certificate does not prove isomorphism; the check
    is one-sided.
    """

    reason: str
    left: object
    right: object
    t: int | None = None

    def to_dict(self) -> dict:
        d = {"reason": self.reason}
        if self.t is not None:
            d["t"] = self.t
        d["left"] = self.left
        d["right"] = self.right
        return d


# What a group's walk found: elements, their keys in position order, kept
# (the generators not in the subgroup of those kept before them) and the
# int32 table R[k, x] = position of x * kept[k].  Its discoveries are a
# spanning tree, x = parent[x] * kept[letter[x]], found in rounds
# layers[i]:layers[i + 1] whose parents all sit before layers[i].
Closure = namedtuple("Closure", "elements kept table parent letter layers")


def _inverted(m):
    """The inverse of an int32 permutation of positions: one scatter."""
    import numpy as np
    out = np.empty_like(m)
    out[m] = np.arange(len(m), dtype=m.dtype)
    return out


def _commutator(left_a, left_a_inv, left_b, left_b_inv):
    """L_{a^-1 b^-1 a b} from the left maps of a and b and their inverses."""
    return left_a_inv[left_b_inv[left_a[left_b]]]


class Invariants:
    """The calls every kind of group answers, read off the order, spectrum
    and derived series that the subclass gives: Group by enumerating,
    DirectProduct from its factors, Metacyclic, Symmetric and SpecialLinear
    from their parameters.  Group and DirectProduct answer is_solvable
    without the derived series where they can."""

    def alpha(self) -> tuple:
        return self.spectrum().alpha()

    def is_solvable(self) -> bool:
        return self.derived_series()[1]

    def odd_prime_witness(self) -> tuple:
        """Two odd primes p < q dividing the order with s_p != s_q.

        Intended for nonabelian simple groups (caller checks that).  Also
        asserts {1, s_2, s_p, s_q} lands inside the same-order type.  Raises
        NoWitnessError when every pair of odd prime divisors ties.
        """
        spec = self.spectrum()
        n = self.order()
        odd = [p for p in sorted(factorize(n)) if p != 2]
        for p, q in combinations(odd, 2):
            sp = spec.counts.get(p, 0)
            sq = spec.counts.get(q, 0)
            if sp != sq:
                needed = {1, sp, sq}
                if n % 2 == 0:
                    needed.add(spec.counts.get(2, 0))
                missing = needed - set(spec.alpha())
                if missing:
                    raise NoWitnessError(
                        f"witness counts {sorted(missing)} missing from the same-order type"
                    )
                return (p, q, sp, sq)
        raise NoWitnessError(
            f"no pair of odd prime divisors of {n} has distinct element counts"
        )


class Group(Invariants):
    """A group in index space, enumerated on demand from its generators by a
    subclass's _walk.

    Derived data is computed lazily and cached; instances are immutable
    afterwards and safe to share read-only across threads, since racing
    recomputations are idempotent: each cache, the inverse left maps too, is
    assigned once, whole, and never cleared or written in place.  cap bounds
    the closure size, guarding against runaway input.
    """

    def __init__(self, generators, name=None, cap=DEFAULT_CAP):
        self.generators = list(generators)
        self.name = name
        self.cap = cap
        # all computed on first use
        self._closure = self._inverses = self._class_of = self._classes = None
        self._powers = self._spectrum = self._simple = self._derived = None

    # -- enumeration ---------------------------------------------------------

    def _walk(self) -> Closure:
        """The Closure of the group, walked from self.generators by the subclass
        on its own element keys (perms.PermutationGroup, matrices.MatrixGroup).

        Raises CapExceededError once the count passes the cap, checked after
        each batch.
        """
        raise NotImplementedError

    def _walked(self) -> Closure:
        if self._closure is None:
            self._closure = self._walk()
        return self._closure

    def order(self) -> int:
        return self._walked().table.shape[1]

    def reduced_generators(self) -> list:
        return self._walked().kept

    # -- index space: conjugacy classes and element orders ---------------------

    def _left_maps(self, s):
        """int32 L with L[i, x] the position of s[i] * x: one gather per tree
        layer from the flat table, so each map costs a linear pass over |G|
        with no sort."""
        import numpy as np
        c = self._walked()
        n = c.table.shape[1]
        # R[k, y] sits at k * n + y of the flat table.  Each kept generator at
        # least doubles the order walked so far, so there are at most
        # log2(n) of them (20 at the default cap) and R has fewer than 2**31
        # entries, which int32 offsets index, up to n ~ 8 * 10**7.
        flat = c.table.ravel()
        offset = c.letter.astype(np.int32 if flat.size < 2**31 else np.int64, copy=False) * n
        out = np.empty((len(s), n), dtype=np.int32)
        out[:, 0] = s
        for a, b in zip(c.layers, c.layers[1:]):  # s * x = (s * parent) * letter
            out[:, a:b] = flat[offset[a:b] + out[:, c.parent[a:b]]]
        return out

    def _inverse_maps(self):
        """int32 L_k^-1 for each kept generator k: L_k^-1 = L_{k^-1}, and k^-1
        sits where R_k takes the identity, so one tree pass gives them all.
        Kept for the group's life: conjugation maps, normal closures and the
        derived series read conjugation off them."""
        import numpy as np
        if self._inverses is None:
            table = self._walked().table
            self._inverses = self._left_maps(np.argmax(table == 0, axis=1))
        return self._inverses

    def conjugation_maps(self):
        """int32 M, M[k, x] = position of k^-1 x k for kept k: R_k read
        through L_k^-1."""
        import numpy as np
        table = self._walked().table
        return table[np.arange(len(table))[:, None], self._inverse_maps()]

    def _conjugated(self, left, k):
        """L_{k^-1 x k} = L_k^-1 L_x L_k from x's left map L_x and kept k:
        L_x L_k is a scatter through L_k^-1, out[L_k^-1[y]] = L_x[y], so L_k
        itself is never made, and L_k^-1 of that is a gather."""
        import numpy as np
        inverse = self._inverse_maps()[k]
        out = np.empty_like(left)
        out[inverse] = left
        return inverse[out]

    def conjugacy_classes(self) -> list:
        """Partition of element indices into conjugacy classes.

        The orbits of the conjugation maps: each element takes the smallest
        label of itself and its images, then the label of its label, until
        nothing changes.  The roots are numbered by a running count, a linear
        pass, and the members grouped by a stable sort on the class numbers,
        a linear radix sort up to 65536 classes.  Classes come out ordered by
        their smallest element index (the identity's singleton class first),
        each an ascending int array.
        """
        import numpy as np
        if self._classes is None:
            maps = self.conjugation_maps()
            label = new = np.arange(maps.shape[1], dtype=np.int32)
            while True:
                for m in maps:
                    new = np.minimum(new, new[m])
                new = new[new]
                if np.array_equal(new, label):
                    break
                label = new
            # the roots, label[x] == x, numbered in ascending order; int32 like
            # every other position array, which halves the peak at the cap
            rank = np.cumsum(label == np.arange(len(label), dtype=np.int32), dtype=np.int32)
            rank -= 1
            class_of = self._class_of = rank[label]
            # a stable sort of 8- or 16-bit ints is numpy's radix sort, one
            # counting pass; only a group with over 65536 classes compares
            members = np.argsort(class_of.astype(np.min_scalar_type(rank[-1])), kind="stable")
            self._classes = np.split(members, np.cumsum(np.bincount(class_of))[:-1])
        return self._classes

    def center_order(self) -> int:
        """The center is the union of the singleton conjugacy classes."""
        return sum(len(c) == 1 for c in self.conjugacy_classes())

    def _power_classes(self):
        """(orders, powers): orders[i] is the element order of class i, and
        powers[i] = (walk, j) says that a member of class i is conjugate to
        r^j for the root r of the walk, so its k-th power lies in class
        walk[j * k % len(walk)].

        An order is a class function.  Each class not met yet walks the powers
        of its first member r, one lookup in R per letter of r's word in the
        closure's tree; walk lists the classes of r^0 = 1, r, ..., r^(m-1) for
        m the order of r.  Meeting r^j fixes the order of r^j's class too,
        m / gcd(j, m), and its powers, (r^j)^k = r^(jk), so a cyclic group
        takes one walk.
        """
        if self._powers is None:
            classes, c = self.conjugacy_classes(), self._walked()
            rows, orders, powers = list(c.table), [0] * len(classes), [None] * len(classes)
            for i, members in enumerate(classes):
                if orders[i]:
                    continue
                word, x = [], members[0]
                while x:
                    word.append(rows[c.letter[x]])
                    x = c.parent[x]
                positions, x = [0], members[0]
                while x:
                    positions.append(x)
                    for row in reversed(word):
                        x = row[x]
                walk = self._class_of[positions].tolist()
                for j, cls in enumerate(walk):
                    orders[cls] = len(walk) // math.gcd(j, len(walk))
                    powers[cls] = (walk, j)
            self._powers = (orders, powers)
        return self._powers

    def element_orders(self) -> list:
        """Orders of all elements, aligned with positions: the class orders
        of _power_classes read through the class labels.  Not kept; the
        spectrum and the simplicity test read the class orders, and this
        stays because the benchmark's tracer wraps it."""
        import numpy as np
        return np.array(self._power_classes()[0])[self._class_of].tolist()

    def spectrum(self) -> Spectrum:
        """The class sizes summed per class order."""
        if self._spectrum is None:
            acc = {}
            for members, t in zip(self.conjugacy_classes(), self._power_classes()[0]):
                acc[t] = acc.get(t, 0) + len(members)
            self._spectrum = Spectrum(counts=dict(sorted(acc.items())), group_order=self.order())
        return self._spectrum

    # -- normal closures, simplicity, solvability -------------------------------

    def _normal_closure(self, indices, stop_size, known=None):
        """Normal closure of the elements at the given indices.

        Returns (order, positions of the kept generators), or None as
        _grow_normal does; a seed's left map is one tree pass, made only if
        the seed is kept.
        """
        seeds = [(i, lambda i=i: self._left_maps([i])[0]) for i in map(int, indices)]
        grown = self._grow_normal(seeds, stop_size, known)
        return grown and grown[:2]

    def _grow_normal(self, seeds, stop_size, known=None):
        """The smallest normal subgroup holding the seeds, walked on positions.

        seeds are (position, make) pairs, make() giving that element's left
        map.  An element not yet inside is kept: the walk multiplies the
        members by it, as _walk does but by left multiplication, and queues
        its conjugate k^-1 x k by each kept generator k of the group, at
        M_k[x] with left map L_k^-1 L_x L_k (_conjugated), made only if that
        conjugate is kept in turn.  Once the queue is empty every kept
        element's conjugates are inside, so the subgroup is normal.  Members
        are marks in a bool mask over positions: a round marks each map's
        image of the frontier, and its new members are the marks the round
        added, so a round is a linear pass over |G| with no sort.

        Returns (order, positions of the kept elements, their left maps), or
        None once the count passes stop_size: a subgroup with more than half
        the group's elements is the whole group, so callers pass stop_size =
        order // 2 and treat None as "everything".  So does a round that
        reaches a position marked in known: being normal, the closure then
        holds a whole class known to generate G.
        """
        import numpy as np
        table, inverses = self._walked().table, self._inverse_maps()
        inside = np.zeros(table.shape[1], dtype=bool)
        inside[0] = True
        members, count, kept, maps, queue = [np.zeros(1, dtype=np.intp)], 1, [], [], deque(seeds)
        while queue:
            x, make = queue.popleft()
            if inside[x]:
                continue
            kept.append(x)
            maps.append(make())
            queue.extend((int(table[k, inverse[x]]), partial(self._conjugated, maps[-1], k))
                         for k, inverse in enumerate(inverses))
            frontier, mults = np.concatenate(members), maps[-1:]
            while frontier.size:
                before = inside.copy()
                for m in mults:
                    inside[m[frontier]] = True
                fresh = np.flatnonzero(inside > before)
                members.append(fresh)
                count += len(fresh)
                if count > stop_size or known is not None and known[fresh].any():
                    return None
                frontier, mults = fresh, maps
        return count, kept, maps

    def is_simple(self) -> bool:
        """True iff the group is nontrivial with no proper nontrivial normal subgroup.

        Decided from class data when _simple_by_classes can; otherwise by the
        normal closures of _simple_by_closures.
        """
        if self._simple is None:
            self._simple = self.order() > 1 and (self._simple_by_classes() is True
                                                 or self._simple_by_closures())
        return self._simple

    def _simple_by_classes(self):
        """True if no d with 1 < d < |G| can be the order of a normal subgroup
        (_room_for_normal), for a nontrivial group; "undecided" otherwise."""
        proper = reversed(divisors(self.order())[1:-1])
        return "undecided" if self._room_for_normal(proper) else True

    def _room_for_normal(self, ds) -> bool:
        """Whether the classes' sizes, orders and powers alone leave room for
        a normal subgroup N of order d, for some d in ds (each 1 < d < |G|).

        Such an N is the identity's class plus whole classes whose sizes sum
        to d, each of an element order dividing d (Lagrange).  With m = |G|/d,
        N holds the class of x^m for every class x, since (xN)^m = N in G/N.
        For each prime p with p^e || |G| and p^e | d, N holds a Sylow
        p-subgroup of G, so all of them, so every class of p-power order
        (Sylow).  The classes so forced have orders dividing d already: x^m
        has order o / gcd(o, m) for o the order of x, and lcm(o, m) divides
        |G|.  For each d their sizes must sum to some need <= d, and the
        other classes of order dividing d must have sizes summing to
        d - need: one bitset pass in which bit s of reach is set iff some of
        them sum to s.
        """
        n = self.order()
        orders, powers = self._power_classes()
        sizes = [len(members) for members in self.conjugacy_classes()]
        primes = factorize(n)
        # p for a class of order p^a, a >= 1; 1 for any other class
        prime_of = [(prime_power(t) or (1,))[0] for t in orders]
        for d in ds:
            sylow = {p for p, e in primes.items() if d % p**e == 0}
            forced = {walk[j * (n // d) % len(walk)] for walk, j in powers}
            forced.update(i for i, p in enumerate(prime_of) if p in sylow)
            need = sum(sizes[i] for i in forced)
            if need > d:
                continue
            reach, mask = 1, (1 << (d - need + 1)) - 1
            for i, (s, t) in enumerate(zip(sizes, orders)):
                if d % t == 0 and i not in forced:
                    reach = (reach | reach << s) & mask
            if reach >> (d - need):
                return True
        return False

    def _simple_by_closures(self) -> bool:
        """True iff the group is nontrivial and no proper nontrivial normal
        subgroup turns up among the normal closures of its classes.

        Any such subgroup contains an element of prime order (Cauchy) whose
        whole conjugacy class sits inside it, so it is enough that the normal
        closure of every prime-order class is the full group.  After the first
        success, a walk stops where it meets a class already known to succeed.
        """
        import numpy as np
        n, known = self.order(), None
        for c, t in zip(self.conjugacy_classes(), self._power_classes()[0]):
            if not is_prime(t):
                continue
            if self._normal_closure([c[0]], n // 2, known) is not None:
                return False
            known = np.zeros(n, dtype=bool) if known is None else known
            known[c] = True
        return n > 1

    def is_solvable(self) -> bool:
        """Solvable if |G| has at most two prime divisors (Burnside 1904) or
        is odd (Feit and Thompson 1963).  Not solvable if class data leave
        no room for a normal subgroup of prime-power order p^a > 1, since a
        minimal normal subgroup of a solvable group is elementary abelian.
        Otherwise, and once the derived series or simplicity is known, read
        off derived_series."""
        n = self.order()
        primes = factorize(n)
        if len(primes) <= 2 or n % 2:
            return True
        if self._derived is None and not self._simple and not self._room_for_normal(
                p**a for p, e in primes.items() for a in range(1, e + 1)):
            return False
        return self.derived_series()[1]

    def derived_series(self) -> tuple:
        """Orders along the derived series, plus the solvable flag.

        Each term is the normal closure of the commutators a^-1 b^-1 a b of
        the previous term's kept generators.  A commutator's position and
        its left map L_a^-1 L_b^-1 L_a L_b are read off the left maps of a
        and b and their inverses, with no tree pass: for the group's kept
        generators, off the memoized L_k^-1 and their inverses L_k, one
        scatter each and held only through the first term's closure; after
        that, off the left maps the previous term's closure kept.  Every
        term is characteristic in the one before, hence normal in the group,
        so its normal closure in the group is its normal closure in the
        previous term.  Stops when the order stabilizes or hits 1.

        A group that is_simple has already proved simple, of an order that
        is not prime, is nonabelian, so it is its own commutator subgroup:
        (|G|, |G|) with no closure.  Only the memo is read; the simplicity
        test is never run from here.
        """
        if self._derived is None and self._simple and not is_prime(self.order()):
            self._derived = ((self.order(),) * 2, False)
        if self._derived is None:
            left_inv = self._inverse_maps()
            left = [_inverted(m) for m in left_inv]
            # the kept generators sit where R takes the identity
            gens, cur_order = self._walked().table[:, 0], self.order()
            orders = [cur_order]
            while cur_order > 1:
                seeds = [(int(left_inv[a][left_inv[b][left[a][gens[b]]]]),
                          partial(_commutator, left[a], left_inv[a], left[b], left_inv[b]))
                         for a, b in combinations(range(len(gens)), 2)]
                sub = self._grow_normal(seeds, cur_order // 2)
                if sub is None:
                    orders.append(cur_order)
                    break
                cur_order, gens, left = sub
                orders.append(cur_order)
                left_inv = [_inverted(m) for m in left]
            self._derived = (tuple(orders), orders[-1] == 1)
        return self._derived

    def __repr__(self):
        label = self.name or f"{len(self.generators)} generators"
        if self._closure is not None:
            return f"Group({label}, order {self.order()})"
        return f"Group({label})"


class DirectProduct(Invariants):
    """Direct product of groups, answered from its factors.

    The factors are enumerated one at a time and the product never is: it
    answers the calls that reports, verification and noniso_certificate make
    by the exact rule for a direct product.  Orders and center orders
    multiply, spectra convolve over lcm of orders, derived series multiply
    term by term, and the product is solvable iff every factor is.  cap
    bounds the product's order, as it bounds a Group's closure.
    """

    def __init__(self, factors, name=None, cap=DEFAULT_CAP):
        self.factors = list(factors)
        self.name = name
        self.cap = cap

    def order(self) -> int:
        n = math.prod(f.order() for f in self.factors)
        if n > self.cap:
            raise CapExceededError(self.cap)
        return n

    def spectrum(self) -> Spectrum:
        self.order()
        return reduce(spectrum_direct_product, [f.spectrum() for f in self.factors]
                      or [Spectrum(counts={1: 1}, group_order=1)])

    def center_order(self) -> int:
        return math.prod(f.center_order() for f in self.factors)

    def is_simple(self) -> bool:
        """True iff exactly one factor is nontrivial and that factor is simple."""
        nontrivial = [f for f in self.factors if f.order() > 1]
        return len(nontrivial) == 1 and nontrivial[0].is_simple()

    def is_solvable(self) -> bool:
        return all(f.is_solvable() for f in self.factors)

    def derived_series(self) -> tuple:
        """Orders along the derived series, plus the solvable flag.

        The factors' series multiplied term by term, a series that ends early
        padded with its last value.  As in Group.derived_series, the result
        stops at order 1 or at the first repeated order.
        """
        series = [f.derived_series()[0] for f in self.factors]
        orders = [self.order()]
        while orders[-1] > 1 and (len(orders) < 2 or orders[-1] != orders[-2]):
            i = len(orders)
            orders.append(math.prod(s[min(i, len(s) - 1)] for s in series))
        return tuple(orders), orders[-1] == 1


def _geometric_sum(u: int, d: int, m: int) -> int:
    """1 + u + ... + u^(d-1) mod m with no loop over d: (u^d - 1) / (u - 1),
    read exactly off u^d mod m(u - 1), or d when u = 1 (mod m)."""
    if (u - 1) % m == 0:
        return d % m
    return (pow(u, d, m * (u - 1)) - 1) // (u - 1) % m


def _divisor_totients(n: int, primes) -> list:
    """(δ, φ(δ)) for every divisor δ of n, whose prime factors are among
    primes."""
    out = [(1, 1)]
    if n == 1:
        return out
    for p in primes:
        powers = [(1, 1)]
        while n % p == 0:
            n //= p
            q = powers[-1][0] * p
            powers.append((q, q - q // p))
        out = [(d * q, f * t) for d, f in out for q, t in powers]
    return out


class Metacyclic(Invariants):
    """The metacyclic group <a, b | a^m = 1, b^n = a^s, b a b^-1 = a^k>,
    answered from its parameters: it is never enumerated, and nothing it
    holds or makes grows with m.

    k^n = 1 and s(k - 1) = 0 (mod m), so the elements are a^c b^e for c mod m
    and e mod n, |G| = mn, and a^c b^e a^c' b^e' = a^(c + k^e c') b^(e + e').
    F(m,n,k) is (m, n, k, 0): Z_m extended by k's multiplications.  C(m) is
    (m, 1, 1, 0), D(m) for m >= 3 is (m, 2, m - 1, 0), and Dic(m) is
    (2m, 2, 2m - 1, m).  It answers the calls that reports, verification and
    noniso_certificate make, as DirectProduct does.
    """

    def __init__(self, m: int, n: int, k: int, s: int = 0, name=None):
        self.params = (m, n, k % m, s % m)
        self.name = name
        self._spectrum = None

    def order(self) -> int:
        return self.params[0] * self.params[1]

    def spectrum(self) -> Spectrum:
        """With u = k^e and d = n / gcd(n, e), a power (a^c b^e)^j lies in
        <a> iff d divides j, and (a^c b^e)^d = a^(cG + t) for the geometric
        sum G = 1 + u + ... + u^(d-1) and t = s·de/n, so a^c b^e has order
        d·m / gcd(m, cG + t).  That gcd is counted in closed form, with no
        pass over c.  Let g = gcd(G, m): as c runs over Z_m, cG runs g times
        over the multiples of g, so at a prime p of m whose power in g
        divides t, v_p(cG + t) is v_p(g) plus the valuation of a uniform
        residue mod p^(v_p(m) - v_p(g)); at any other prime it is v_p(t).
        The primes are independent (CRT), so with D = gcd(g, t) and M the
        part of m/g on primes of the first kind, gcd(m, cG + t) = DM/δ for
        (m/M)·φ(δ) values of c, each of order dδ·m/(DM), for every δ | M.
        With t = 0 that is g·φ(δ) elements of order dδ for each δ | m/g;
        with G = 0 (Dic's odd e) all m have order dm/gcd(m, t)."""
        if self._spectrum is None:
            m, n, k, s = self.params
            cells, u = {}, 1
            for e in range(n):
                d = n // math.gcd(n, e)
                g = math.gcd(_geometric_sum(u, d, m), m)
                D, M = math.gcd(g, s * d * e // n % m), m // g
                while (q := math.gcd(M, g // D)) > 1:
                    M //= q
                key = (d * m // (D * M), M)
                cells[key] = cells.get(key, 0) + 1
                u = u * k % m
            primes, acc = list(factorize(m)), {}
            for (base, M), times in cells.items():
                for delta, phi in _divisor_totients(M, primes):
                    acc[base * delta] = acc.get(base * delta, 0) + times * (m // M) * phi
            self._spectrum = Spectrum(counts=dict(sorted(acc.items())), group_order=m * n)
        return self._spectrum

    def center_order(self) -> int:
        """a^c b^e is central iff it commutes with a, so k^e = 1, and with b,
        so (k - 1)c = 0: gcd(m, k - 1) values of c times n / ord_m(k) of e."""
        m, n, k, _ = self.params
        return math.gcd(m, k - 1) * (n // multiplicative_order(k, m))

    def is_simple(self) -> bool:
        """The group is solvable, so simple iff of prime order."""
        return is_prime(self.order())

    def derived_series(self) -> tuple:
        """Orders along the derived series, plus the solvable flag, as in
        Group.derived_series.  The commutator of b and a is a^(k - 1), and
        modulo it a is central, so G' = <a^(k - 1)>, of order
        m / gcd(m, k - 1), which is cyclic: G'' = 1."""
        m, _, k, _ = self.params
        orders = {self.order(), m // math.gcd(m, k - 1), 1}
        return tuple(sorted(orders, reverse=True)), True


def _partitions(n: int, largest: int):
    """The partitions of n into parts of at most largest, each a descending
    tuple, one at a time."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


class Symmetric(Invariants):
    """The symmetric group S(n), or the alternating group A(n), answered from
    n: it is never enumerated.

    A permutation's conjugacy class in S(n) is its cycle type, a partition
    of n with m_k parts k, which holds n! / prod(k^m_k m_k!) permutations of
    order the lcm of the parts; the even ones, n minus the number of parts
    even, make up A(n).  It answers the calls that reports, verification and
    noniso_certificate make, as DirectProduct does.
    """

    def __init__(self, n: int, alternating: bool = False, name=None):
        self.n = n
        self.alternating = alternating
        self.name = name
        self._spectrum = None

    def order(self) -> int:
        order = math.factorial(self.n)
        return order // 2 if self.alternating and self.n >= 2 else order

    def spectrum(self) -> Spectrum:
        """The cycle types, one at a time, so nothing held grows with n!."""
        if self._spectrum is None:
            n, full, acc = self.n, math.factorial(self.n), {}
            for parts in _partitions(n, n):
                if self.alternating and (n - len(parts)) % 2:
                    continue
                size = full
                for k in set(parts):
                    m = parts.count(k)
                    size //= k**m * math.factorial(m)
                t = math.lcm(*parts)
                acc[t] = acc.get(t, 0) + size
            self._spectrum = Spectrum(counts=dict(sorted(acc.items())), group_order=self.order())
        return self._spectrum

    def center_order(self) -> int:
        """Trivial once the group is nonabelian, past order 3 (S(3), A(4))."""
        return self.order() if self.order() <= 3 else 1

    def is_simple(self) -> bool:
        """Of prime order (S(2), A(3)), or A(n) for n >= 5."""
        return is_prime(self.order()) or self.alternating and self.n >= 5

    def derived_series(self) -> tuple:
        """Orders along the derived series, plus the solvable flag, as in
        Group.derived_series.  S(n)' = A(n); A(4)' is the Klein four-group,
        and A(n) is perfect for n >= 5."""
        n, half = self.n, max(math.factorial(self.n) // 2, 1)
        orders = {1: (1,), 2: (1,), 3: (3, 1), 4: (12, 4, 1)}.get(n, (half, half))
        if not self.alternating and n >= 2:
            orders = (2 * half,) + orders
        return orders, orders[-1] == 1


class SpecialLinear(Invariants):
    """SL(n,q) for n = 2 or 3 and a prime power q = p^f, or PSL(n,q), its
    quotient by the center, where projective is set, answered from n and q:
    it is never enumerated.  The center of SL(n,q) is the d = gcd(n, q - 1)
    scalars, and that of PSL(n,q) is trivial.  Both are perfect but for
    SL(2,2) = PSL(2,2) ≅ S(3), SL(2,3) and PSL(2,3) ≅ A(4), and simple where
    perfect with a trivial center.  PSL(3,q) is answered only where d = 1,
    so that it is SL(3,q).  It answers the calls that reports, verification
    and noniso_certificate make, as DirectProduct does.

    SL(2,q) (Dickson 1901; Huppert, Endliche Gruppen I, §II.8): past the
    center, an element is a central times a unipotent one, of order p, or
    2p with p odd (q² - 1 of each), or lies in a split torus of order q - 1,
    whose class holds q(q + 1) elements, or a nonsplit one of order q + 1,
    q(q - 1); a torus element of order t > gcd(2, q - 1) is conjugate only
    to itself and its inverse, so it has φ(t)/2 such classes.  Modulo the
    center the tori have orders (q ∓ 1)/d, and the classes of x and -x
    merge: PSL(2,q) holds q² - 1 elements of order p and φ(t)·q(q ± 1)/2
    of each order t > 1 dividing (q ∓ 1)/d.  For q even, d = 1 and the two
    forms agree.

    SL(3,q) (Steinberg 1951; Simpson and Frame 1973) is read off the class
    types of GL(3,q) restricted to determinant 1: see _spectrum3.
    """

    def __init__(self, n: int, q: int, projective: bool = False, name=None):
        if projective and n == 3 and math.gcd(3, q - 1) > 1:
            raise ValueError(f"PSL(3,{q}) is SL(3,{q}) modulo 3 scalars: no closed form here")
        self.n, self.q, self.projective = n, q, projective
        self.name = name
        self._spectrum = None

    def order(self) -> int:
        n, q = self.n, self.q
        order = q ** (n * (n - 1) // 2) * math.prod(q**i - 1 for i in range(2, n + 1))
        return order // math.gcd(n, q - 1) if self.projective else order

    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            acc = self._spectrum2() if self.n == 2 else self._spectrum3()
            self._spectrum = Spectrum(counts=dict(sorted(acc.items())), group_order=self.order())
        return self._spectrum

    def _spectrum2(self) -> dict:
        q, d = self.q, math.gcd(2, self.q - 1)
        p, _ = prime_power(q)
        if self.projective or p == 2:
            acc, tori, least = {1: 1, p: q * q - 1}, ((q - 1) // d, (q + 1) // d), 1
        else:
            acc, tori, least = {1: 1, 2: 1, p: q * q - 1, 2 * p: q * q - 1}, (q - 1, q + 1), 2
        for torus, size in zip(tori, (q * (q + 1), q * (q - 1))):
            for t, phi in _divisor_totients(torus, factorize(torus)):
                if t > least:
                    acc[t] = acc.get(t, 0) + phi * size // 2
        return acc

    def _spectrum3(self) -> dict:
        """Element counts by order, class type by class type, with N =
        q³(q - 1)³(q + 1)(q² + q + 1) and d = gcd(3, q - 1).  For each a of
        order t | q - 1: if a³ = 1, the scalar a, N/(q³(q - 1)²) elements a
        times a transvection, of order pt, and N/(q²(q - 1)) a times a
        regular unipotent, of order pt, or 4t for p = 2; otherwise
        diag(a, a, a⁻²), N/(q(q - 1)³(q + 1)) of order t, and the same times
        a transvection on the a-plane, N/(q(q - 1)²) of order pt.  Then
        (J₂(t) - 3φ(t) + 2φ(t)[t | d])/6 classes of diag(a, b, c) with a, b, c
        distinct, of order t | q - 1 and N/(q - 1)³ elements each (J₂ is
        Jordan's totient: the ordered pairs (a, b) of order t, less those
        with two or three equal); φ(t)/2 classes a ⊕ (β, β^q), of order t | q²
        - 1 but not q - 1 and N/((q - 1)(q² - 1)) elements each; and φ(t)/3
        classes (β, β^q, β^q²), of order t | q² + q + 1 but not d and
        N/(q³ - 1) elements each."""
        q, d = self.q, self.center_order()
        p, _ = prime_power(q)
        big = q**3 * (q - 1) ** 3 * (q + 1) * (q * q + q + 1)
        acc = {}

        def add(t, count):
            if count:
                acc[t] = acc.get(t, 0) + count

        primes = factorize(q - 1)
        for t, phi in _divisor_totients(q - 1, primes):
            cube = d % t == 0
            if cube:
                add(t, phi)
                add(p * t, phi * big // (q**3 * (q - 1) ** 2))
                add((4 if p == 2 else p) * t, phi * big // (q * q * (q - 1)))
            else:
                add(t, phi * big // (q * (q - 1) ** 3 * (q + 1)))
                add(p * t, phi * big // (q * (q - 1) ** 2))
            jordan = t * t
            for r in primes:
                if t % r == 0:
                    jordan = jordan // (r * r) * (r * r - 1)
            add(t, (jordan - 3 * phi + 2 * phi * cube) // 6 * big // (q - 1) ** 3)
        for t, phi in _divisor_totients(q * q - 1, factorize(q * q - 1)):
            if (q - 1) % t:
                add(t, phi * big // (2 * (q - 1) * (q * q - 1)))
        for t, phi in _divisor_totients(q * q + q + 1, factorize(q * q + q + 1)):
            if d % t:
                add(t, phi * big // (3 * (q**3 - 1)))
        return acc

    def center_order(self) -> int:
        return 1 if self.projective else math.gcd(self.n, self.q - 1)

    def is_simple(self) -> bool:
        """Simple iff perfect with a trivial center: PSL(2,q) from q = 4 on,
        so SL(2,q) for q even, and SL(3,q) for q ≢ 1 (mod 3)."""
        return self.center_order() == 1 and (self.n, self.q) not in ((2, 2), (2, 3))

    def derived_series(self) -> tuple:
        """Orders along the derived series, plus the solvable flag, as in
        Group.derived_series.  SL(2,2) is S(3); SL(2,3)' is Q8, whose
        derived subgroup is the center, and PSL(2,3) is A(4), whose derived
        subgroup is the Klein four-group; every other group here is
        perfect."""
        n = self.order()
        small = {(2, 2): (6, 3, 1), (2, 3): (12, 4, 1) if self.projective else (24, 8, 2, 1)}
        orders = small.get((self.n, self.q), (n, n))
        return orders, orders[-1] == 1


def _witness_order(diffs: dict) -> int:
    """Pick the element order cited by a spectrum-mismatch certificate.

    Prefers the largest differing prime-power order (those pin down cyclic
    subgroup structure); falls back to the largest differing order if the
    spectra only disagree at composite-support orders.
    """
    pps = [t for t in diffs if prime_power(t) is not None]
    return max(pps) if pps else max(diffs)


def noniso_certificate(a, b) -> NonIsoCertificate | None:
    """Cheapest available proof that two groups differ, or None.

    Invariants are tried in fixed order: group order, order spectrum, center
    size, solvability, simplicity.  None means every tested invariant agrees,
    which does not establish isomorphism.
    """
    if a.order() != b.order():
        return NonIsoCertificate("order-mismatch", a.order(), b.order())
    sa, sb = a.spectrum().counts, b.spectrum().counts
    diffs = {
        t: (sa.get(t, 0), sb.get(t, 0))
        for t in set(sa) | set(sb)
        if sa.get(t, 0) != sb.get(t, 0)
    }
    if diffs:
        t = _witness_order(diffs)
        return NonIsoCertificate("spectrum-mismatch", diffs[t][0], diffs[t][1], t=t)
    if a.center_order() != b.center_order():
        return NonIsoCertificate("center-size-mismatch", a.center_order(), b.center_order())
    if a.is_solvable() != b.is_solvable():
        return NonIsoCertificate("solvability-mismatch", a.is_solvable(), b.is_solvable())
    if a.is_simple() != b.is_simple():
        return NonIsoCertificate("simplicity-mismatch", a.is_simple(), b.is_simple())
    return None
