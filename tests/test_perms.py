import numpy as np
import pytest
from oracles import element_order_naive, elements, perm_inv, perm_mul, perm_order

from sameorder import group_for, perms
from sameorder.errors import InvalidParameterError
from sameorder.perms import (
    FAMILY_BUILDERS,
    cex3_generators,
    dicyclic_generators,
    family_degree,
    family_order,
    perm_from_cycles,
    permutation_group,
)


def test_perm_order_examples():
    assert perm_order(bytes(range(5))) == 1
    assert perm_order(perm_from_cycles([[0, 1, 2, 3, 4, 5, 6]], 7)) == 7
    assert perm_order(perm_from_cycles([[0, 1], [2, 3, 4]], 5)) == 6


def test_perm_order_matches_naive_on_s5(built):
    g = built("S(5)")
    for x in elements(g):
        assert perm_order(x) == element_order_naive(g, x)


def test_perm_composition_and_inverse():
    a = perm_from_cycles([[0, 1, 2]], 4)
    b = perm_from_cycles([[2, 3]], 4)
    assert perm_mul(a, perm_inv(a)) == bytes(range(4))
    # the product applies its first factor first
    assert tuple(perm_mul(a, b)) == (1, 3, 0, 2)


def test_perm_from_cycles_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        perm_from_cycles([[0, 0]], 3)
    with pytest.raises(InvalidParameterError):
        perm_from_cycles([[0, 1], [1, 2]], 3)
    with pytest.raises(InvalidParameterError):
        perm_from_cycles([[0, 5]], 3)


@pytest.mark.parametrize("expr,order", [
    ("C(1)", 1),
    ("C(7)", 7),
    ("C(12)", 12),
    ("D(3)", 6),
    ("D(7)", 14),
    ("Dic(2)", 8),
    ("Dic(5)", 20),
    ("S(3)", 6),
    ("S(5)", 120),
    ("A(4)", 12),
    ("A(5)", 60),
    ("A(6)", 360),
    ("F(7,3,2)", 21),
    ("F(5,4,2)", 20),
])
def test_family_closure_orders(built, expr, order):
    assert built(expr).order() == order


def test_frobenius_group_spectrum(built):
    g = built("F(7,3,2)")
    assert g.spectrum().counts == {1: 1, 3: 14, 7: 6}
    # fixed-point-free action: no element of the full product order
    assert 21 not in g.spectrum().counts


def test_frobenius_parameter_validation():
    # family_order validates for frobenius_generators, which takes its parameters
    with pytest.raises(InvalidParameterError, match="need 1"):
        family_order("F", (7, 3, 3))
    with pytest.raises(InvalidParameterError):
        family_order("F", (7, 3, 1))  # order of 1 is 1, not 3
    with pytest.raises(InvalidParameterError):
        family_order("F", (8, 2, 4))  # gcd(4, 8) != 1
    with pytest.raises(InvalidParameterError):
        family_order("F", (1, 2, 1))


def test_family_degree_matches_the_builders():
    """family_degree, read from parameters alone, is the degree each builder's
    permutations have, the bespoke D(1) and D(2) point sets included."""
    special = {"F": [(3, 2, 2), (7, 3, 2), (8, 2, 3)], "cex3": [()]}
    for family, builder in FAMILY_BUILDERS.items():
        for ps in special.get(family, [(n,) for n in range(1, 9)]):
            assert family_degree(family, ps) == len(builder(*ps)[0]), (family, ps)


def test_quaternion_group(built):
    g = built("Dic(2)")
    assert g.order() == 8
    assert g.spectrum().counts == {1: 1, 2: 1, 4: 6}
    assert g.center_order() == 2
    assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 1, 2, 2, 2]


def test_dicyclic_presentation_relations():
    a, b = dicyclic_generators(3)
    a3 = perm_mul(perm_mul(a, a), a)
    assert perm_mul(a3, a3) == bytes(range(12))  # a^6
    assert perm_mul(b, b) == a3  # b^2 = a^3
    assert perm_mul(perm_mul(perm_inv(b), a), b) == perm_inv(a)  # conjugation inverts a


def test_alternating_class_sizes(built):
    sizes = sorted(len(c) for c in built("A(5)").conjugacy_classes())
    assert sizes == [1, 12, 12, 15, 20]


def test_direct_product_orders_and_degrees(built):
    g = built("Dic(2) x F(7,3,2)")
    # each factor keeps its own points and is enumerated on its own
    assert [len(f.generators[0]) for f in g.factors] == [8, 7]
    assert g.order() == 168
    assert g.spectrum().counts == {
        1: 1, 2: 1, 3: 14, 4: 6, 6: 14, 7: 6, 12: 84, 14: 6, 28: 36,
    }


def test_direct_product_with_trivial_factor(built):
    a = built("S(3)")
    g = built("S(3) x C(1)")
    assert g.order() == a.order()
    assert g.spectrum() == a.spectrum()
    assert g.center_order() == a.center_order()
    assert g.derived_series() == a.derived_series()


def test_direct_product_order_multiplicative(built):
    pairs = [("C(6)", "D(4)"), ("S(3)", "A(4)"), ("Dic(2)", "C(7)")]
    for left, right in pairs:
        a, b = built(left), built(right)
        assert built(f"{left} x {right}").order() == a.order() * b.order()


def test_cex3_structure(built):
    g = built("cex3")
    assert g.order() == 168
    assert g.spectrum().counts == {1: 1, 2: 7, 3: 56, 6: 56, 7: 6, 14: 42}
    assert g.alpha() == (1, 6, 7, 42, 56)
    assert g.is_solvable()
    assert len(cex3_generators()) >= 2


def test_permutation_group_rejects_mixed_degrees():
    gens = [perm_from_cycles([[0, 1]], 2), perm_from_cycles([[0, 1]], 3)]
    with pytest.raises(InvalidParameterError):
        permutation_group(gens)
    # nor images that are no permutation: spectrum() on them never returned
    for images in ([1, 1, 0], [0, 3, 1]):
        with pytest.raises(InvalidParameterError):
            permutation_group([bytes(images)])


@pytest.mark.parametrize("expr", ["S(6)", "A(7)", "C(60)", "D(12)", "Dic(6)", "F(21,3,4)", "cex3",
                                  "Perm[(1,2,3,4,5), (1,3,5,2,4), (1,2)]"])
def test_batch_paths_give_one_closure(monkeypatch, expr):
    """The walk numbers a batch's new elements in numpy from _BATCH products
    up and in a Python loop below: forcing either path for every batch gives
    the same Closure, field by field.  The Perm[...] group's second
    generator is the square of its first, so it is not kept."""
    closures = []
    for batch in (1, 10**9):
        monkeypatch.setattr(perms, "_BATCH", batch)
        closures.append(group_for(expr)._walked())
    numpy_path, loop_path = closures
    assert numpy_path.elements == loop_path.elements
    assert numpy_path.kept == loop_path.kept
    assert numpy_path.layers == loop_path.layers
    for field in ("table", "parent", "letter"):
        assert np.array_equal(getattr(numpy_path, field), getattr(loop_path, field)), field
    if expr.startswith("Perm"):
        assert len(numpy_path.kept) == 2
