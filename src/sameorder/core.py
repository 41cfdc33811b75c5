"""Finite group engine.

A group is held as a generating set of elements plus the enumerated closure.
Everything downstream (order spectrum, same-order type, center, conjugacy
classes, derived series, simplicity, non-isomorphism certificates) is computed
from the closure, so any element type satisfying the small ``GroupElement``
contract plugs in: permutations and matrices over a finite field.  A direct
product is never enumerated: ``DirectProduct`` answers what a report asks
from its factors, each enumerated on its own.

Elements compare by canonical byte keys, never by identity or repr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .errors import CapExceededError, NoWitnessError
from .numtheory import factorize, is_prime, totient

DEFAULT_CAP = 1_000_000


class GroupElement:
    """Contract for group elements.

    Subclasses supply an associative product, inverses, and a canonical
    encoding: key() bytes are equal iff the elements are equal.  known_order
    returns the element's order read off its representation (cycle structure
    of a permutation); an element type that returns None needs a group class
    that overrides Group._compute_orders, as MatrixGroup does.
    """

    __slots__ = ()

    def op(self, other: "GroupElement") -> "GroupElement":
        raise NotImplementedError

    def inv(self) -> "GroupElement":
        raise NotImplementedError

    def key(self) -> bytes:
        raise NotImplementedError

    def known_order(self) -> int | None:
        return None

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def closure_elements(identity, generators, cap, stop_size=None):
    """Breadth-first closure of the generators under the group product.

    Returns (elements, index, hit_stop) where index maps canonical keys to
    positions in the element list.  Inverses need no special handling: in a
    finite group every element's powers cycle back through its inverse.
    If stop_size is given the walk aborts once the count exceeds it, with
    hit_stop = True and a partial element list.
    """
    elems = [identity]
    index = {identity.key(): 0}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = x.op(g)
                k = y.key()
                if k not in index:
                    index[k] = len(elems)
                    elems.append(y)
                    new.append(y)
                    if stop_size is not None and len(elems) > stop_size:
                        return elems, index, True
                    if len(elems) > cap:
                        raise CapExceededError(cap)
        frontier = new
    return elems, index, False


def element_order_naive(g) -> int:
    """Repeated composition until the identity returns.  Test oracle."""
    identity = g.op(g.inv())
    ekey = identity.key()
    cur = g
    n = 1
    while cur.key() != ekey:
        cur = cur.op(g)
        n += 1
    return n


@dataclass(frozen=True)
class Spectrum:
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


@dataclass(frozen=True)
class NonIsoCertificate:
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


class Group:
    """A permutation or matrix group, enumerated on demand from its generators.

    All derived data (elements, orders, spectrum, classes, center, series)
    is computed lazily and cached; instances are immutable afterwards and
    safe to share read-only across threads, since racing recomputations are
    idempotent.  cap bounds the closure size, guarding against runaway input.
    """

    def __init__(self, generators, identity, name=None, cap=DEFAULT_CAP):
        self.generators = list(generators)
        self.identity = identity
        self.name = name
        self.cap = cap
        self._elems = None
        self._index = None
        self._reduced = None
        self._orders = None
        self._spectrum = None
        self._conj_maps = None
        self._classes = None
        self._center_idx = None
        self._simple = None
        self._derived = None

    # -- enumeration ---------------------------------------------------------

    def _closure(self, gens, stop_size=None):
        """Closure primitive; matrix groups override with a table-driven path."""
        return closure_elements(self.identity, gens, self.cap, stop_size)

    def _enumerate(self):
        # Greedy generator reduction folded into enumeration: a generator
        # already inside the closure of the ones kept so far adds nothing.
        # The last closure computed is the full group.
        sel = []
        elems = [self.identity]
        index = {self.identity.key(): 0}
        for g in self.generators:
            if g.key() in index:
                continue
            sel.append(g)
            elems, index, _ = self._closure(sel)
        self._elems = elems
        self._index = index
        self._reduced = sel

    def elements(self) -> list:
        if self._elems is None:
            self._enumerate()
        return self._elems

    def element_index(self) -> dict:
        if self._index is None:
            self._enumerate()
        return self._index

    def order(self) -> int:
        return len(self.elements())

    def reduced_generators(self) -> list:
        if self._reduced is None:
            self._enumerate()
        return self._reduced

    def __contains__(self, g):
        return g.key() in self.element_index()

    # -- orders and spectrum ---------------------------------------------------

    def _compute_orders(self) -> list:
        return [g.known_order() for g in self.elements()]

    def element_orders(self) -> list:
        """Orders of all elements, aligned with elements()."""
        if self._orders is None:
            self._orders = self._compute_orders()
        return self._orders

    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            acc: dict = {}
            for o in self.element_orders():
                acc[o] = acc.get(o, 0) + 1
            self._spectrum = Spectrum(
                counts={t: acc[t] for t in sorted(acc)},
                group_order=self.order(),
            )
        return self._spectrum

    def alpha(self) -> tuple:
        return self.spectrum().alpha()

    # -- conjugation-driven structure -----------------------------------------

    def _conjugation_maps(self) -> list:
        """One index permutation per reduced generator a: i -> index of a^-1 g_i a."""
        elems = self.elements()
        index = self.element_index()
        maps = []
        for a in self.reduced_generators():
            ainv = a.inv()
            maps.append([index[ainv.op(x).op(a).key()] for x in elems])
        return maps

    def conjugation_maps(self) -> list:
        if self._conj_maps is None:
            self._conj_maps = self._conjugation_maps()
        return self._conj_maps

    def conjugacy_classes(self) -> list:
        """Partition of element indices into conjugacy classes.

        Classes come out ordered by their smallest element index (the
        identity's singleton class first), each class sorted ascending.
        """
        if self._classes is None:
            maps = self.conjugation_maps()
            n = self.order()
            seen = bytearray(n)
            classes = []
            for i in range(n):
                if seen[i]:
                    continue
                orbit = [i]
                seen[i] = 1
                stack = [i]
                while stack:
                    j = stack.pop()
                    for m in maps:
                        k = m[j]
                        if not seen[k]:
                            seen[k] = 1
                            orbit.append(k)
                            stack.append(k)
                orbit.sort()
                classes.append(orbit)
            self._classes = classes
        return self._classes

    def center_indices(self) -> list:
        if self._center_idx is None:
            maps = self.conjugation_maps()
            self._center_idx = [
                i for i in range(self.order()) if all(m[i] == i for m in maps)
            ]
        return self._center_idx

    def center_order(self) -> int:
        return len(self.center_indices())

    def is_abelian(self) -> bool:
        gens = self.reduced_generators()
        for a, b in combinations(gens, 2):
            if a.op(b).key() != b.op(a).key():
                return False
        return True

    # -- normal closures, simplicity, solvability -------------------------------

    def _normal_closure(self, seed, conj_gens, stop_size):
        """Subgroup generated by seed and closed under conjugation.

        Returns (size, gens) for a proper subgroup, or (None, None) once the
        count passes stop_size: any subgroup with more than half the group's
        elements is the whole group, so callers pass stop_size = order // 2
        and treat the early exit as "everything".
        """
        pairs = [(a, a.inv()) for a in conj_gens]
        gens = list(seed)
        while True:
            elems, index, hit = self._closure(gens, stop_size=stop_size)
            if hit:
                return None, None
            fresh = []
            for t in gens:
                for a, ainv in pairs:
                    c = ainv.op(t).op(a)
                    if c.key() not in index:
                        fresh.append(c)
            if not fresh:
                return len(elems), gens
            gens.extend(fresh)

    def is_simple(self) -> bool:
        """True iff the group has no proper nontrivial normal subgroup.

        Any such subgroup contains an element of prime order (Cauchy) whose
        whole conjugacy class sits inside it, so it is enough that the normal
        closure of every prime-order class representative is the full group.
        """
        if self._simple is None:
            n = self.order()
            if n == 1:
                self._simple = False
            elif is_prime(n):
                self._simple = True
            elif self.is_abelian():
                self._simple = False
            else:
                elems = self.elements()
                orders = self.element_orders()
                conj = self.reduced_generators()
                half = n // 2
                verdict = True
                for cls in self.conjugacy_classes():
                    rep = cls[0]
                    if rep == 0 or not is_prime(orders[rep]):
                        continue
                    size, _ = self._normal_closure([elems[rep]], conj, half)
                    if size is not None and size < n:
                        verdict = False
                        break
                self._simple = verdict
        return self._simple

    def derived_series(self) -> tuple:
        """Orders along the derived series, plus the solvable flag.

        Repeatedly replaces the current subgroup by the normal closure of its
        generators' commutators, stopping when the order stabilizes or hits 1.
        """
        if self._derived is None:
            orders = [self.order()]
            cur_gens = self.reduced_generators()
            cur_order = self.order()
            while cur_order > 1:
                comms = []
                seen = {self.identity.key()}
                for a, b in combinations(cur_gens, 2):
                    c = a.inv().op(b.inv()).op(a).op(b)
                    k = c.key()
                    if k not in seen:
                        seen.add(k)
                        comms.append(c)
                size, gens = self._normal_closure(comms, cur_gens, cur_order // 2)
                if size is None or size == cur_order:
                    orders.append(cur_order)
                    break
                orders.append(size)
                if size == 1:
                    break
                cur_gens = gens
                cur_order = size
            self._derived = (tuple(orders), orders[-1] == 1)
        return self._derived

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
        if self._elems is not None:
            return f"Group({label}, order {len(self._elems)})"
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
    pps = [t for t in diffs if _is_prime_power(t)]
    return max(pps) if pps else max(diffs)


def _is_prime_power(t: int) -> bool:
    if t < 2:
        return False
    f = factorize(t)
    return len(f) == 1


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
