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
powers.  The spectrum sums class sizes per class order.  Simplicity is first
decided from class data: sizes, orders and powers, with Lagrange and Sylow,
rule out every order a proper normal subgroup could have.  Where they cannot,
and for the derived series, normal closures walk on a bool mask over
positions and queue each kept element's conjugates by the kept generators,
whose left maps L_k^-1 L_x L_k are a scatter and a gather, not a tree pass.
Left maps, class numbering and normal-closure rounds are linear passes over
|G| with no sort: a set of positions is a mask, read in position order.  A
direct product is never enumerated: ``DirectProduct`` answers from its
factors.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from functools import partial, reduce
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, NoWitnessError
from .numtheory import divisors, factorize, is_prime, prime_power, totient

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
    sets of cyclic subgroups), and s_2 is odd in groups of even order
    (every element other than an involution or the identity pairs off with
    its distinct inverse, so 1 + s_2 is even when the group order is).
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
    return checks


class NonIsoCertificate(NamedTuple):
    """Witness that two groups are not isomorphic.

    reason is one of order-mismatch, spectrum-mismatch, center-size-mismatch,
    solvability-mismatch; left/right are the differing invariant values, and
    a spectrum mismatch also names a specific element order t.  Absence of a
    certificate does not prove isomorphism; the check is one-sided.
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
    out = np.empty_like(m)
    out[m] = np.arange(len(m), dtype=m.dtype)
    return out


def _commutator(left_a, left_a_inv, left_b, left_b_inv):
    """L_{a^-1 b^-1 a b} from the left maps of a and b and their inverses."""
    return left_a_inv[left_b_inv[left_a[left_b]]]


class Group:
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
        if self._inverses is None:
            table = self._walked().table
            self._inverses = self._left_maps(np.argmax(table == 0, axis=1))
        return self._inverses

    def conjugation_maps(self):
        """int32 M, M[k, x] = position of k^-1 x k for kept k: R_k read
        through L_k^-1."""
        table = self._walked().table
        return table[np.arange(len(table))[:, None], self._inverse_maps()]

    def _conjugated(self, left, k):
        """L_{k^-1 x k} = L_k^-1 L_x L_k from x's left map L_x and kept k:
        L_x L_k is a scatter through L_k^-1, out[L_k^-1[y]] = L_x[y], so L_k
        itself is never made, and L_k^-1 of that is a gather."""
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
        return np.array(self._power_classes()[0])[self._class_of].tolist()

    def spectrum(self) -> Spectrum:
        """The class sizes summed per class order."""
        if self._spectrum is None:
            acc = {}
            for members, t in zip(self.conjugacy_classes(), self._power_classes()[0]):
                acc[t] = acc.get(t, 0) + len(members)
            self._spectrum = Spectrum(counts=dict(sorted(acc.items())), group_order=self.order())
        return self._spectrum

    def alpha(self) -> tuple:
        return self.spectrum().alpha()

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
        N, judged from the classes' sizes, orders and powers alone (for a
        nontrivial group); "undecided" otherwise.

        Such an N is the identity's class plus whole classes whose sizes sum
        to d, each of an element order dividing d (Lagrange).  With m = |G|/d,
        N holds the class of x^m for every class x, since (xN)^m = N in G/N.
        For each prime p with p^e || |G| and p^e | d, N holds a Sylow
        p-subgroup of G, so all of them, so every class of p-power order
        (Sylow).  The classes so forced have orders dividing d already: x^m
        has order o / gcd(o, m) for o the order of x, and lcm(o, m) divides
        |G|.  For each d, largest first, their sizes must sum to some
        need <= d, and the other classes of order dividing d must have sizes
        summing to d - need: one bitset pass in which bit s of reach is set
        iff some of them sum to s.
        """
        n = self.order()
        orders, powers = self._power_classes()
        sizes = [len(members) for members in self.conjugacy_classes()]
        primes = factorize(n)
        # p for a class of order p^a, a >= 1; 1 for any other class
        prime_of = [(prime_power(t) or (1,))[0] for t in orders]
        for d in reversed(divisors(n)[1:-1]):
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
                return "undecided"
        return True

    def _simple_by_closures(self) -> bool:
        """True iff the group is nontrivial and no proper nontrivial normal
        subgroup turns up among the normal closures of its classes.

        Any such subgroup contains an element of prime order (Cauchy) whose
        whole conjugacy class sits inside it, so it is enough that the normal
        closure of every prime-order class is the full group.  After the first
        success, a walk stops where it meets a class already known to succeed.
        """
        n, known = self.order(), None
        for c, t in zip(self.conjugacy_classes(), self._power_classes()[0]):
            if not is_prime(t):
                continue
            if self._normal_closure([c[0]], n // 2, known) is not None:
                return False
            known = np.zeros(n, dtype=bool) if known is None else known
            known[c] = True
        return n > 1

    def derived_series(self) -> tuple:
        """Orders along the derived series, plus the solvable flag.

        Each term is the normal closure of the commutators a^-1 b^-1 a b of
        the previous term's kept generators.  A commutator's position and
        its left map L_a^-1 L_b^-1 L_a L_b are read off maps already made,
        with no tree pass: for the group's kept generators, off their inverse
        maps alone (_kept_commutator), so that L_a is never held beside them;
        after that, off the left maps the term's closure kept and their
        inverses, one scatter each.  Every term is characteristic in the one
        before, hence normal in the group, so its normal closure in the group
        is its normal closure in the previous term.  Stops when the order
        stabilizes or hits 1.

        A group that is_simple has already proved simple, of an order that
        is not prime, is nonabelian, so it is its own commutator subgroup:
        (|G|, |G|) with no closure.  Only the memo is read; the simplicity
        test is never run from here.
        """
        if self._derived is None and self._simple and not is_prime(self.order()):
            self._derived = ((self.order(),) * 2, False)
        if self._derived is None:
            # the kept generators sit where R takes the identity
            table, inverses = self._walked().table, self._inverse_maps()
            gens, cur_order = table[:, 0], self.order()
            orders = [cur_order]
            seeds = [(int(inverses[a][inverses[b][table[b, gens[a]]]]),
                      partial(self._kept_commutator, a, b))
                     for a, b in combinations(range(len(gens)), 2)]
            while cur_order > 1:
                sub = self._grow_normal(seeds, cur_order // 2)
                if sub is None:
                    orders.append(cur_order)
                    break
                cur_order, gens, left = sub
                orders.append(cur_order)
                left_inv = [_inverted(m) for m in left]
                seeds = [(int(left_inv[a][left_inv[b][left[a][gens[b]]]]),
                          partial(_commutator, left[a], left_inv[a], left[b], left_inv[b]))
                         for a, b in combinations(range(len(gens)), 2)]
            self._derived = (tuple(orders), orders[-1] == 1)
        return self._derived

    def _kept_commutator(self, a, b):
        """L_{a^-1 b^-1 a b} for kept generators a and b: the conjugate of b^-1
        by a, then L_b, a scatter through L_b^-1."""
        inverse = self._inverse_maps()[b]
        out = np.empty_like(inverse)
        out[inverse] = self._conjugated(inverse, a)
        return out

    def is_solvable(self) -> bool:
        return self.derived_series()[1]

    # -- witnesses ---------------------------------------------------------------

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

    def __repr__(self):
        label = self.name or f"{len(self.generators)} generators"
        if self._closure is not None:
            return f"Group({label}, order {self.order()})"
        return f"Group({label})"


class DirectProduct:
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
        return reduce(spectrum_direct_product, (f.spectrum() for f in self.factors))

    def alpha(self) -> tuple:
        return self.spectrum().alpha()

    def center_order(self) -> int:
        return math.prod(f.center_order() for f in self.factors)

    def is_solvable(self) -> bool:
        return all(f.is_solvable() for f in self.factors)

    def is_simple(self) -> bool:
        """True iff exactly one factor is nontrivial and that factor is simple."""
        nontrivial = [f for f in self.factors if f.order() > 1]
        return len(nontrivial) == 1 and nontrivial[0].is_simple()

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
    size, solvability.  None means every tested invariant agrees, which does
    not establish isomorphism.
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
    return None
