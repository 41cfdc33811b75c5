import random
from collections import Counter

import numpy as np
import pytest
from oracles import (
    arithmetic,
    derived_series_naive,
    element_order_naive,
    elements,
    normal_closure_order_naive,
    symmetric_spectrum_formula,
)

from sameorder import core, dsl, group_for, perms
from sameorder.core import (
    DEFAULT_CAP,
    DirectProduct,
    Group,
    Spectrum,
    noniso_certificate,
    spectrum_checks,
)
from sameorder.errors import CapExceededError, InvalidParameterError, NoWitnessError
from sameorder.fields import FiniteField
from sameorder.matrices import MatrixGroup, sl_generators
from sameorder.numtheory import is_prime
from sameorder.perms import family_order, permutation_group, symmetric_generators
from sameorder.verify import THREE_PRIME_SIMPLE_GROUPS, theorem_report

AXIOM_GROUPS = [
    "C(12)",
    "D(6)",
    "Dic(3)",
    "S(4)",
    "A(5)",
    "F(7,3,2)",
    "SL(2,3)",
    "PSL(2,5)",
    "cex3",
]


@pytest.mark.parametrize("expr", AXIOM_GROUPS)
def test_group_axioms_sampled(built, expr):
    """The walk's keys, the identity first, hold the generators and are
    closed under the oracle product and inverse at every pair: a subgroup,
    so the one the generators generate, of the order the walk reports."""
    g = built(expr)
    mul, inv, identity = arithmetic(g)
    elems = elements(g)
    keys = set(elems)
    assert len(keys) == g.order() and elems[0] == identity
    assert set(g.generators) <= keys
    assert all(inv(a) in keys for a in elems)
    assert all(mul(a, b) in keys for a in elems for b in elems)


def test_closure_is_generator_order_independent():
    base = symmetric_generators(4)
    reference = set(elements(permutation_group(base)))
    rng = random.Random(5)
    for _ in range(10):
        gens = base[:]
        rng.shuffle(gens)
        assert set(elements(permutation_group(gens))) == reference


def test_closure_cap(monkeypatch):
    # a Perm[...] atom's order is known only from its closure; the
    # permutation walk checks the cap on its numpy and its loop path alike
    for batch in (1, 10**9):
        monkeypatch.setattr(perms, "_BATCH", batch)
        with pytest.raises(CapExceededError) as exc:
            group_for("Perm[(1,2,3,4,5), (1,2)]", cap=100).order()
        assert exc.value.cap == 100
        # both walks add a batch at a time and check the cap after each: a
        # cap of |G| builds the group, one less refuses it
        f = FiniteField(3, 1)
        for build in (lambda cap: permutation_group(symmetric_generators(4), cap=cap),
                      lambda cap: MatrixGroup(sl_generators(2, f), f, 2, cap=cap)):
            assert build(24).order() == 24
            with pytest.raises(CapExceededError) as exc:
                build(23).order()
            assert exc.value.cap == 23


def test_cap_is_checked_before_anything_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("built an atom of an expression over the cap")

    monkeypatch.setattr(dsl, "_eval_atom", build)
    for expr, cap in [("C(3000000)", 1000), ("S(8) x S(8)", DEFAULT_CAP),
                      ("SL(4,9)", DEFAULT_CAP), ("A(7) x C(2)", 5000),
                      ("PSU(4,2)", 25919), ("Perm[(1,2)] x D(600)", 1000)]:
        with pytest.raises(CapExceededError) as exc:
            group_for(expr, cap)
        assert exc.value.cap == cap
    # invalid parameters stay usage errors, even beside an over-cap factor
    with pytest.raises(InvalidParameterError):
        group_for("S(20) x F(7,3,3)")
    with pytest.raises(InvalidParameterError):
        group_for("PSL(2,521)", cap=10)


def test_family_orders_from_parameters():
    assert [family_order("S", (n,)) for n in (1, 2, 5, 9)] == [1, 2, 120, 362880]
    assert [family_order("A", (n,)) for n in (1, 2, 3, 9)] == [1, 1, 3, 181440]
    assert family_order("S", (10,), cap=10**6) > 10**6
    assert family_order("S", (10**8,), cap=10**6) > 10**6  # stops early
    assert family_order("F", (7, 3, 2)) == 21
    assert family_order("cex3", ()) == 168


@pytest.mark.parametrize("expr", ["C(24)", "D(12)", "Dic(5)", "F(7,3,2)",
                                  "SL(2,3)", "S(4)", "A(5)", "S(5)", "PSL(2,7)"])
def test_element_order_oracles_agree(built, expr):
    """Element orders, from one power walk per class in the closure's
    table, match the naive power walk, |G| <= 200."""
    g = built(expr)
    assert g.order() <= 200
    assert g.element_orders() == [element_order_naive(g, x) for x in elements(g)]


@pytest.mark.parametrize("expr,cycle_types", [
    ("S(3)", (3, False)), ("S(5)", (5, False)), ("S(7)", (7, False)), ("A(4)", (4, True)),
    ("A(6)", (6, True)), ("A(8)", (8, True)), ("PSL(2,8)", None), ("Dic(5)", None),
    ("F(21,3,4)", None), ("cex3", None), ("PSU(3,3)", None),
])
def test_spectrum_sums_class_sizes(built, expr, cycle_types):
    """The spectrum, summed from class sizes per class order, against
    counting the element orders, and for S(n) and A(n) against their cycle
    types."""
    g = built(expr)
    counts = g.spectrum().counts
    assert list(counts) == sorted(counts)
    assert counts == Counter(g.element_orders())
    if cycle_types is not None:
        n, alternating = cycle_types
        assert counts == symmetric_spectrum_formula(n, alternating=alternating)


@pytest.mark.parametrize("expr", AXIOM_GROUPS + ["PSL(2,7)", "Dic(2) x F(7,3,2)",
                                                 "C(7) x SL(2,3)"])
def test_spectrum_structural_checks(built, expr):
    spec = built(expr).spectrum()
    for name, ok, detail in spectrum_checks(spec):
        assert ok, f"{expr}: {name} ({detail})"


def test_spectrum_checks_flag_violations():
    bad = Spectrum({1: 1, 2: 4, 5: 8}, 12)
    results = {name: ok for name, ok, _ in spectrum_checks(bad)}
    assert not results["counts sum to group order"]
    assert not results["every element order divides the group order"]
    assert not results["s_2 odd in a group of even order"]


def test_alpha_forgets_which_order_carries_which_count(built):
    spec = built("PSL(2,7)").spectrum()
    assert spec.alpha() == (1, 21, 42, 48, 56)
    assert spec.alpha() == tuple(sorted(set(spec.counts.values())))


CONVOLUTION_PAIRS = [
    ("C(6)", "C(7)"),
    ("C(6)", "D(4)"),
    ("Dic(2)", "F(7,3,2)"),
    ("S(4)", "A(4)"),
    ("SL(2,3)", "C(7)"),
    ("S(3)", "S(4)"),
    ("A(5)", "C(4)"),
    ("D(6)", "Dic(3)"),
]


@pytest.mark.parametrize("left,right", CONVOLUTION_PAIRS)
def test_product_spectrum_is_lcm_convolution(enumerated_product, left, right):
    """The composed answers match the product enumerated on disjoint points."""
    g = group_for(f"{left} x {right}")
    ref = enumerated_product(*g.factors)
    assert ref.order() <= 10_000
    assert g.order() == ref.order()
    assert list(g.spectrum().counts.items()) == list(ref.spectrum().counts.items())
    assert g.spectrum().group_order == ref.order()
    assert g.center_order() == ref.center_order()
    assert g.is_simple() == ref.is_simple()
    assert g.derived_series() == ref.derived_series()
    assert g.is_solvable() == ref.is_solvable()


def test_direct_product_edge_cases(built):
    assert group_for("C(1) x PSL(2,7)").is_simple()
    trivial = group_for("C(1) x C(1)")
    assert trivial.order() == 1
    assert trivial.spectrum().counts == {1: 1}
    assert not trivial.is_simple()
    assert trivial.derived_series() == ((1,), True)
    assert group_for("A(5) x C(2)").derived_series() == ((120, 60, 60), False)
    # orders known only after enumeration: the closure of S(5) is within the
    # cap, the product is not
    g = group_for("Perm[(1,2,3,4,5), (1,2)] x C(10)", cap=1000)
    for call in (g.order, g.spectrum, g.alpha):
        with pytest.raises(CapExceededError):
            call()
    with pytest.raises(CapExceededError):
        DirectProduct([built("S(4)"), built("S(4)")], cap=100).order()


def test_center_orders(built):
    assert built("Dic(2)").center_order() == 2
    assert built("PSL(2,7)").center_order() == 1
    assert built("C(7) x SL(2,3)").center_order() == 14
    assert built("C(12)").center_order() == 12


def test_abelian_detection(built):
    # abelian means every class is a singleton, so the center is everything
    for expr, abelian in [("C(12)", True), ("S(3)", False)]:
        g = built(expr)
        assert (g.center_order() == g.order()) is abelian


SIMPLICITY = [
    ("C(7)", True),
    ("C(6)", False),
    ("C(12)", False),
    ("A(5)", True),
    ("S(4)", False),
    ("Dic(2)", False),
    ("A(4)", False),
    ("PSL(2,7)", True),
    ("SL(2,3)", False),
    ("SL(2,5)", False),
    ("SL(3,2)", True),
    ("C(2)", True),
]


@pytest.mark.parametrize("expr,simple", SIMPLICITY)
def test_simplicity(built, expr, simple):
    assert built(expr).is_simple() is simple


M11 = "Perm[(1,2,3,4,5,6,7,8,9,10,11), (3,7,11,8)(4,10,5,6)]"
M12 = ("Perm[(1,2,3,4,5,6,7,8,9,10,11), (3,7,11,8)(4,10,5,6), "
       "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)]")


@pytest.mark.parametrize("expr", [expr for expr, _ in SIMPLICITY]
                         + ["PSU(3,3)", "PSU(4,2)", "PSL(3,4)", M11, M12])
def test_class_test_agrees_with_closures(built, expr):
    """Where the class-data test decides, the normal closures agree."""
    g = built(expr)
    decided = g._simple_by_classes()
    assert decided in (True, "undecided")
    if decided is True:
        assert g._simple_by_closures() is True


@pytest.mark.parametrize("expr,decided", [
    *((expr, True) for expr in THREE_PRIME_SIMPLE_GROUPS),
    *((expr, True) for expr in ("A(7)", "A(8)", "PSL(3,4)", "PSU(3,4)", M11)),
    *((expr, "undecided") for expr in ("A(9)", M12, "S(7)", "S(8)", "SL(2,5)", "cex3")),
])
def test_class_test_decides(built, expr, decided):
    """Which groups the class-data test settles without a normal closure.
    A(9) and M12 are simple, but class sizes alone cannot tell."""
    assert built(expr)._simple_by_classes() == decided


def test_theorem_report_walks_no_normal_closure(monkeypatch):
    calls = []
    grow = Group._grow_normal
    monkeypatch.setattr(Group, "_grow_normal", lambda *args: calls.append(args) or grow(*args))
    assert theorem_report()["verified"]
    assert calls == []


@pytest.mark.parametrize("expr", ["A(8)", "PSL(2,8)"])
def test_derived_series_of_a_proved_simple_group_walks_no_normal_closure(monkeypatch, expr):
    calls = []
    grow = Group._grow_normal
    monkeypatch.setattr(Group, "_grow_normal", lambda *args: calls.append(args) or grow(*args))
    g = group_for(expr)  # a fresh group: simplicity and the series are memoized
    assert g.is_simple()
    n = g.order()
    assert g.derived_series() == ((n, n), False)
    assert calls == []


def _prime_classes_with_masks(g):
    """Each prime-order class, with the mask _simple_by_closures hands its
    walk: the earlier prime-order classes whose normal closure is the whole
    group (None until the first), here taken from the walk with no mask."""
    n, orders, known = g.order(), g.element_orders(), None
    for c in g.conjugacy_classes():
        if not is_prime(orders[c[0]]):
            continue
        yield c, known
        if g._normal_closure([c[0]], n // 2) is None:
            known = np.zeros(n, dtype=bool) if known is None else known
            known[c] = True


@pytest.mark.parametrize("expr", ["SL(2,5)", "S(6)", "A(5)", "D(15)", "cex3",
                                  "PSL(2,8)", "SL(3,2)"])
def test_simplicity_matches_element_arithmetic(built, expr):
    """Every prime-order class's normal closure, walked with the mask of
    classes known to generate the group, against conjugating and multiplying
    elements; with stop_size = |G| only the mask can end a walk early."""
    g = built(expr)
    n, elems = g.order(), elements(g)
    exits, closures = 0, []
    for c, known in _prime_classes_with_masks(g):
        want = normal_closure_order_naive(g, elems, elems[c[0]])
        closures.append(want)
        got = g._normal_closure([c[0]], n // 2, known)
        assert (got is None) == (want == n)
        if got is not None:
            assert got[0] == want
        if known is not None and want == n:
            assert g._normal_closure([c[0]], n, known) is None
            exits += 1
    assert g.is_simple() == (n > 1 and all(w == n for w in closures))
    if expr == "SL(2,5)":
        # an order-5 class walks to SL(2,5); the other and the order-3 class
        # exit at it, and -1 gives {1, -1}
        assert exits == 2 and closures == [120, 120, 120, 2]


@pytest.mark.parametrize("expr", ["A(8)", "S(8)"])
def test_simplicity_exit_matches_full_walk(built, expr):
    g = built(expr)
    n = g.order()
    for c, known in _prime_classes_with_masks(g):
        assert g._normal_closure([c[0]], n // 2, known) == g._normal_closure([c[0]], n // 2)


@pytest.mark.parametrize("expr", ["S(5)", "PSL(2,8)", "PSU(3,3)", "cex3"])
def test_closure_maps_match_element_arithmetic(monkeypatch, expr):
    """Every left map the normal closures build from other maps, with no
    tree pass, against multiplying elements: a kept element's conjugate
    k^-1 x k by a kept generator k, a commutator a^-1 b^-1 a b of two kept
    generators, and one of a closure's kept elements.  Checked at every
    position up to order 1000 and at a seeded sample above; each kept
    position must also be its map's image of the identity."""
    g = group_for(expr)  # a fresh group: the derived series is memoized
    n, elems, (mul, inv, _) = g.order(), elements(g), arithmetic(g)
    index = {e: i for i, e in enumerate(elems)}
    gens = [elems[i] for i in g._walked().table[:, 0]]
    built, grown = [], []

    def comm(a, b):
        return mul(mul(mul(inv(a), inv(b)), a), b)

    def record(owner, name, kind, element):
        fn = getattr(owner, name)

        def wrapper(*args):
            out = fn(*args)
            built.append((kind, element(*args), out))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    record(Group, "_conjugated", "conjugate",
           lambda self, left, k: mul(mul(inv(gens[k]), elems[left[0]]), gens[k]))
    record(Group, "_kept_commutator", "kept commutator",
           lambda self, a, b: comm(gens[a], gens[b]))
    record(core, "_commutator", "commutator",
           lambda a, a_inv, b, b_inv: comm(elems[a[0]], elems[b[0]]))
    grow = Group._grow_normal
    monkeypatch.setattr(Group, "_grow_normal",
                        lambda *args: grown.append(grow(*args)) or grown[-1])
    # the series first: once is_simple has proved PSL(2,8) and PSU(3,3)
    # simple, derived_series walks no closure for them
    g.derived_series()
    g.is_simple()
    kinds = {kind for kind, _, _ in built}
    assert {"conjugate", "kept commutator"} <= kinds
    # only S(5) keeps a commutator after the first term: A(5) is perfect,
    # and cex3's second term is abelian
    assert ("commutator" in kinds) == (expr == "S(5)")
    rng = random.Random(11)
    points = range(n) if n <= 1000 else rng.sample(range(n), 300)
    for kind, want, left in built:
        want = [index[mul(want, elems[y])] for y in points]
        assert [left[y] for y in points] == want, kind
    for out in grown:
        if out is not None:
            assert [m[0] for m in out[2]] == out[1]


def test_derived_series_and_solvability(built):
    assert built("C(7)").derived_series() == ((7, 1), True)
    assert built("C(7)").is_solvable()
    assert built("PSL(2,7)").derived_series() == ((168, 168), False)
    assert not built("PSL(2,7)").is_solvable()
    assert built("Dic(2) x F(7,3,2)").derived_series() == ((168, 14, 1), True)
    assert built("Dic(2) x F(7,3,2)").is_solvable()
    assert built("S(4)").derived_series() == ((24, 12, 4, 1), True)
    assert built("SL(2,3)").derived_series() == ((24, 8, 2, 1), True)
    assert built("SL(2,5)").derived_series() == ((120, 120), False)
    assert built("D(12)").derived_series() == ((24, 6, 1), True)
    assert built("F(21,3,4)").derived_series() == ((63, 7, 1), True)


# a matrix group also built as a permutation group: its action on row vectors
# (SL), or an isomorphic permutation family (PSL(2,5) = A(5))
OTHER_ENGINE = {"SL(2,3)": None, "SL(2,5)": None, "A(5)": "PSL(2,5)"}


@pytest.mark.parametrize("expr", ["S(4)", "S(5)", "SL(2,3)", "SL(2,5)", "D(12)",
                                  "F(21,3,4)", "cex3", "A(5)"])
def test_derived_series_matches_element_arithmetic(built, enumerated_product, expr):
    """derived_series against commutator subgroups closed by element
    arithmetic, on the permutation and the matrix engine where both build
    the group; the oracle multiplies the permutations, which is fast."""
    engines = [built(expr)]
    if expr in OTHER_ENGINE:
        other = OTHER_ENGINE[expr]
        engines.append(enumerated_product(engines[0]) if other is None else built(other))
    assert len({type(g) for g in engines}) == len(engines)
    perm = next(g for g in engines if not isinstance(g, MatrixGroup))
    want = derived_series_naive(perm, elements(perm))
    assert [g.derived_series() for g in engines] == [want] * len(engines)


@pytest.mark.parametrize("expr", ["S(6)", "PSU(3,3)", "C(12)"])
def test_class_labels_number_classes_by_smallest_member(built, expr):
    """Class i holds exactly the positions numbered i, ascending, and the
    classes come in order of their smallest member, the identity's first."""
    g = built(expr)
    classes = g.conjugacy_classes()
    for i, c in enumerate(classes):
        assert (g._class_of[c] == i).all() and (np.diff(c) > 0).all()
    assert classes[0].tolist() == [0]
    firsts = [int(c[0]) for c in classes]
    assert all(a < b for a, b in zip(firsts, firsts[1:]))
    assert sum(len(c) for c in classes) == g.order() == len(g._class_of)


def test_odd_prime_witness(built):
    assert built("A(5)").odd_prime_witness() == (3, 5, 20, 24)
    assert built("C(15)").odd_prime_witness() == (3, 5, 2, 4)
    with pytest.raises(NoWitnessError):
        built("C(4)").odd_prime_witness()


def test_certificate_order_mismatch(built):
    cert = noniso_certificate(built("C(6)"), built("C(7)"))
    assert cert.reason == "order-mismatch"
    assert (cert.left, cert.right) == (6, 7)


def test_certificate_spectrum_mismatch_prefers_prime_power_order(built):
    cert = noniso_certificate(built("C(4)"), built("C(2) x C(2)"))
    assert cert.reason == "spectrum-mismatch"
    assert cert.t == 4
    assert (cert.left, cert.right) == (2, 0)

    cert = noniso_certificate(built("PSL(2,7)"), built("Dic(2) x F(7,3,2)"))
    assert cert.t == 7
    assert (cert.left, cert.right) == (48, 6)


def test_certificate_is_symmetric(built):
    a, b = built("C(4)"), built("C(2) x C(2)")
    ab = noniso_certificate(a, b)
    ba = noniso_certificate(b, a)
    assert ab.reason == ba.reason
    assert ab.t == ba.t
    assert (ab.left, ab.right) == (ba.right, ba.left)


def test_certificate_absent_for_matching_invariants(built):
    assert noniso_certificate(built("A(5)"), built("PSL(2,5)")) is None
    assert noniso_certificate(built("SL(3,2)"), built("PSL(2,7)")) is None


def test_certificate_serialization(built):
    cert = noniso_certificate(built("C(6)"), built("C(7)"))
    d = cert.to_dict()
    assert d["reason"] == "order-mismatch"
    assert "left" in d and "right" in d


@pytest.mark.parametrize("expr", ["PSU(3,3)", "S(8)"])
def test_reduced_generators_generate(built, expr):
    g = built(expr)
    reduced = g.reduced_generators()
    assert len(reduced) <= len(g.generators)
    # the reduced set alone must reproduce the group
    if isinstance(g, MatrixGroup):
        rebuilt = MatrixGroup(reduced, g.field, g.n, g.scalars)
    else:
        rebuilt = permutation_group(reduced)
    assert sorted(elements(rebuilt)) == sorted(elements(g))
