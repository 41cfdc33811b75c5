import itertools
import math
import random

import numpy as np
import pytest
from oracles import (
    arithmetic,
    element_order_naive,
    elements,
    least_multiple,
    mat_det,
    mat_inv,
    mat_mul,
    perm_order,
    preserves_form,
)

from sameorder import matrices, verify
from sameorder.dsl import print_expr
from sameorder.errors import CapExceededError, InvalidParameterError, OrderMismatchError
from sameorder.fields import FiniteField
from sameorder.matrices import (
    KEY_BITS,
    MatrixGroup,
    _bmul,
    classical_group,
    classical_order,
    classical_scalars,
    key_bits,
    pack_keys,
    row_table,
    sl_generators,
    su_generators,
)


def test_matrix_inverse_and_det():
    f = FiniteField(7, 1)
    a = [[1, 2], [3, 4]]
    inv = mat_inv(f, a)
    assert mat_mul(f, a, inv) == ((1, 0), (0, 1))
    assert mat_det(f, a) == (1 * 4 - 2 * 3) % 7
    with pytest.raises(ValueError):
        mat_inv(f, [[1, 2], [2, 4]])


@pytest.mark.parametrize("q,order", [(2, 6), (3, 24), (5, 120), (7, 336),
                                     (8, 504), (9, 720), (17, 4896)])
def test_sl2_orders(built, built_perm, q, order):
    """Answered from q, and enumerated."""
    assert built(f"SL(2,{q})").order() == built_perm(f"SL(2,{q})").order() == order
    assert classical_order("SL", 2, q) == order


def test_sl23_spectrum(built, built_perm):
    for g in (built("SL(2,3)"), built_perm("SL(2,3)")):
        assert g.spectrum().counts == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def test_sl_generators_are_transvections():
    f = FiniteField(3, 1)
    gens = sl_generators(2, f)
    for g in gens:
        assert mat_det(f, g) == 1
        offdiag = sum(1 for i in range(2) for j in range(2)
                      if i != j and g[i][j] != 0)
        assert offdiag == 1


@pytest.mark.parametrize("family,n,q,order", [
    ("SL", 3, 3, 5616),
    ("PSL", 2, 5, 60),
    ("PSL", 2, 9, 360),
    ("PSL", 3, 3, 5616),
    ("SU", 3, 3, 6048),
    ("SU", 4, 2, 25920),
    ("PSU", 3, 3, 6048),
    ("PSU", 4, 2, 25920),
])
def test_classical_order_formula(family, n, q, order):
    assert classical_order(family, n, q) == order


def test_classical_order_rejects_unknown_family():
    with pytest.raises(InvalidParameterError):
        classical_order("GL", 2, 3)


@pytest.mark.parametrize("expr,order", [
    ("PSL(2,2)", 6),
    ("PSL(2,3)", 12),
    ("PSL(2,4)", 60),
    ("PSL(2,5)", 60),
    ("PSL(2,7)", 168),
    ("PSL(2,8)", 504),
    ("PSL(2,9)", 360),
    ("PSL(2,17)", 2448),
    ("PSL(3,3)", 5616),
    ("PSU(3,3)", 6048),
    ("PSU(4,2)", 25920),
])
def test_projective_group_orders(built, expr, order):
    assert built(expr).order() == order


def test_psl28_has_trivial_center(built):
    g = built("PSL(2,8)")
    assert g.order() == 504
    assert g.center_order() == 1


def test_isomorphic_realizations_share_spectra(built):
    a5 = built("A(5)").spectrum().counts
    assert a5 == {1: 1, 2: 15, 3: 20, 5: 24}
    assert built("PSL(2,4)").spectrum().counts == a5
    assert built("PSL(2,5)").spectrum().counts == a5
    assert built("PSL(2,9)").spectrum().counts == built("A(6)").spectrum().counts


ISOMORPHIC_REALIZATIONS = [
    ("A(5)", "PSL(2,4)", "PSL(2,5)"),
    ("A(6)", "PSL(2,9)"),
    ("PSL(2,7)", "PSL(3,2)"),
    ("A(8)", "PSL(4,2)"),
    ("A(4)", "PSL(2,3)"),
    ("S(3)", "SL(2,2)", "PSL(2,2)"),
]


@pytest.mark.parametrize("exprs", ISOMORPHIC_REALIZATIONS, ids=" = ".join)
def test_permutation_and_matrix_engines_agree(built, built_perm, exprs):
    """Isomorphic groups built by different engines share every invariant:
    each S and A atom both answered from its cycle types and enumerated as
    a permutation group."""
    invariants = [
        (g.spectrum().counts, g.center_order(), g.is_simple(), g.derived_series())
        for g in [*map(built, exprs), *map(built_perm, exprs)]
    ]
    assert all(inv == invariants[0] for inv in invariants[1:]), exprs


def su_transvections_scalar(n, q):
    """The transvections of su_generators, one field operation at a time."""
    f = FiniteField(*matrices._field_params(q, double=True))
    conj = [f.pow(c, q) for c in range(f.q)]
    add, mul, neg = f.add.tolist(), f.mul.tolist(), f.neg.tolist()
    out = []
    for v in itertools.product(range(f.q), repeat=n):
        h = 0
        for a in range(n):
            h = add[h][mul[v[a]][conj[v[n - 1 - a]]]]
        if next((x for x in v if x), None) != 1 or h:
            continue
        for lam in range(1, f.q):
            if conj[lam] == neg[lam]:
                out.append(tuple(tuple(add[mul[mul[lam][v[a]]][conj[v[n - 1 - b]]]][int(a == b)]
                                       for b in range(n))
                                 for a in range(n)))
    return out


def test_su_generators_preserve_form_and_det():
    """The batched construction gives, in order, the transvections that scalar
    field arithmetic gives, and each passes the scalar form and determinant
    checks."""
    for n, q in [(3, 3), (3, 4), (3, 5), (4, 2)]:
        f = FiniteField(*matrices._field_params(q, double=True))
        gens = su_generators(n, f)
        assert gens == su_transvections_scalar(n, q)
        for g in gens:
            assert preserves_form(f, g, q)
            assert mat_det(f, g) == 1


def test_form_preserved_on_random_generator_products():
    """A 1000-step random walk through SU(3,3) stays inside the form's
    isometry group."""
    q = 3
    f = FiniteField(*matrices._field_params(q, double=True))
    gens = su_generators(3, f)
    rng = random.Random(17)
    x = gens[0]
    for _ in range(1000):
        x = mat_mul(f, x, rng.choice(gens))
        assert preserves_form(f, x, q)
        assert mat_det(f, x) == 1


def test_scalar_normalization_is_scale_invariant():
    """A MatrixGroup modulo Z takes s*M to the same generator for every s in
    Z, the least multiple, for Z the scalars of PSL(n,q) and for Z all of
    GF(q)*, where it is also the multiple whose first nonzero entry is 1."""
    rng = random.Random(23)
    for p, k, n in [(7, 1, 2), (3, 2, 2), (7, 1, 3), (2, 2, 3)]:
        f = FiniteField(p, k)
        codes = list(range(f.q))
        for z in (classical_scalars("PSL", n, f.q, f), tuple(codes[1:])):
            made = 0
            while made < 100:
                rows = [[rng.choice(codes) for _ in range(n)] for _ in range(n)]
                if mat_det(f, rows) == 0:
                    continue
                made += 1
                base = least_multiple(f, rows, z)
                for c in z:
                    scaled = [f.mul[c, row].tolist() for row in rows]
                    assert MatrixGroup([scaled], f, n, z).generators == [base]
                if len(z) == f.q - 1:
                    assert next(x for row in base for x in row if x) == 1


@pytest.mark.parametrize("expr", ["PSL(2,7)", "PSU(3,3)", "SL(3,4)"])
def test_generators_and_kept_hold_python_ints(built_perm, expr):
    """The least multiples are picked on numpy arrays, but generators and the
    kept generators are stored as tuples of rows of Python ints."""
    g = built_perm(expr)  # walks SL(3,4), which the engine answers from q
    for gens in (g.generators, g._walked().kept):
        assert all(type(c) is int for m in gens for row in m for c in row)


def test_projective_quotient_by_scalar_subgroup():
    sl, psl = classical_group("SL", 2, 7), classical_group("PSL", 2, 7)
    assert sl.order() // psl.order() == 2  # scalars {I, -I}
    assert psl.scalars == (1, 6)


@pytest.mark.parametrize("scalars", [(1, 2), (2,), (1, 4.0), (1.0,)])
def test_scalars_must_be_a_subgroup_of_the_units(scalars):
    """{1, 2} is not closed in GF(5)* (2 has order 4) and {2} lacks 1; both
    once gave a walk of a wrong order, 160 for (1, 2).  4.0 and 1.0 are no
    codes: once a bare TypeError."""
    f = FiniteField(5, 1)
    with pytest.raises(InvalidParameterError):
        MatrixGroup(sl_generators(2, f), f, 2, scalars=scalars)
    assert MatrixGroup(sl_generators(2, f), f, 2, scalars=(1, 4)).order() == 60


@pytest.mark.parametrize("gen", [
    [[1, 1], [0, 0]],  # singular: once a group of order 2 whose spectrum() never ended
    [[7, 1], [0, 1]],  # a code past GF(5): once a bare IndexError
    [[2**70, 0], [0, 1]],  # past any C integer
    [[1.5, 0], [0, 1]],  # no code at all: once a bare TypeError
    [[1, 0, 0], [0, 1, 0]],  # 2 x 3: once a ValueError from reshape in the walk
    [[-1, 0], [0, 1]],  # negative
    [[1, [0]], [0, 1]],  # a code that is a sequence
    [[1, 0], [0, 2**64 - 1]],  # past int64: numpy makes the codes floats
    [[1, 0], [0, 1.0]],  # one integral float in a later generator makes every code a float
])
def test_generators_must_be_invertible_matrices_over_the_field(gen):
    f = FiniteField(5, 1)
    with pytest.raises(InvalidParameterError):
        MatrixGroup([[[1, 1], [0, 1]], gen], f, 2)


def test_numpy_integer_codes_are_codes():
    """Codes are checked as one numpy array, so numpy integers of any width,
    mixed with Python ints or given as arrays, are codes."""
    f = FiniteField(5, 1)
    gens = [[[np.int64(1), np.uint8(1)], [np.int16(0), 1]],
            np.array([[1, 0], [1, 1]], dtype=np.uint16)]
    grp = MatrixGroup(gens, f, 2)
    assert grp.generators == [((1, 1), (0, 1)), ((1, 0), (1, 1))] and grp.order() == 120


def test_projective_group_normalizes_its_generators():
    """A walk looks generators up among least multiples, so a generator given
    as another multiple is replaced by its least one before the walk runs."""
    f = FiniteField(5, 1)
    grp = MatrixGroup([[[2, 0], [0, 3]], [[1, 1], [0, 1]]], f, 2, scalars=(1, 2, 3, 4))
    assert grp.generators == [((1, 0), (0, 4)), ((1, 1), (0, 1))]
    assert grp.order() == 10


@pytest.mark.parametrize("family,degrees,sign", [("PSL", (2, 3, 4), -1), ("PSU", (3, 4), 1),
                                                 ("SL", (2, 3, 4), -1), ("SU", (3, 4), 1)])
def test_classical_scalars_have_gcd_many_elements(family, degrees, sign):
    """PSL(n,q) is taken modulo gcd(n, q - 1) scalars and PSU(n,q) modulo
    gcd(n, q + 1), for every supported degree and prime power q <= 64 whose
    field is supported; SL and SU modulo the identity alone.  No group is
    walked."""
    checked = []
    for q, n in itertools.product(range(2, 65), degrees):
        try:
            classical_order(family, n, q)
        except InvalidParameterError:
            continue  # not a prime power, GF(q^2) past the field limit, or (P)SU(3,2)
        f = FiniteField(*matrices._field_params(q, double=family.endswith("SU")))
        z = classical_scalars(family, n, q, f)
        assert z[0] == 1 and list(z) == sorted(set(z))
        assert len(z) == (math.gcd(n, q + sign) if family[0] == "P" else 1), (n, q)
        checked.append((n, q))
    # 27 prime powers q <= 64; 12 with q^2 <= 512, less (3,2) for the unitary groups
    assert len(checked) == (27 * 3 if family.endswith("L") else 12 * 2 - 1)


def test_order_mismatch_guard():
    from sameorder.matrices import _check_order

    f = FiniteField(5, 1)
    rows = [[2, 0], [0, 3]]  # det 6 = 1, diagonal, generates a proper subgroup
    grp = MatrixGroup([rows], f, 2, name="undersized")
    with pytest.raises(OrderMismatchError, match="undersized"):
        _check_order(grp, classical_order("SL", 2, 5))


# kept generators of each theorem group and each SL atom of the 168 and 60
# hunts when classical_group gave the family's transvections alone
KEPT_FROM_TRANSVECTIONS = {
    "PSL(2,5)": 2, "PSL(2,7)": 2, "PSL(2,8)": 4, "PSL(2,9)": 3, "PSL(2,17)": 2,
    "PSL(3,3)": 4, "PSU(3,3)": 3, "PSU(4,2)": 6,
    "SL(2,2)": 2, "SL(2,3)": 2, "SL(3,2)": 4, "SL(2,4)": 3,
}


def test_word_generators_keep_no_more_generators(built_perm):
    """The two words classical_group puts in front of a family's generators
    when there are more than two keep no more generators than the
    transvections alone kept, on every theorem group and hunt SL atom, and
    PSU(4,2) keeps its two words where it kept six transvections."""
    hunt_atoms = {print_expr(atom) for n in (168, 60) for _, atom in verify._sl_atoms(n)}
    exprs = [*verify.THREE_PRIME_SIMPLE_GROUPS, *sorted(hunt_atoms)]
    assert set(exprs) == set(KEPT_FROM_TRANSVECTIONS)
    for expr in exprs:
        g = built_perm(expr)  # walks SL(2,q) and SL(3,q), which the engine answers from q
        assert len(g.reduced_generators()) <= KEPT_FROM_TRANSVECTIONS[expr], expr
    psu = built_perm("PSU(4,2)")
    assert psu.reduced_generators() == psu.generators[:2]


@pytest.mark.parametrize("p,k,n", [(2, 2, 2), (3, 1, 3), (2, 1, 4)])
def test_words_are_the_stated_products(p, k, n):
    """Letter i of word j is generator (7i + 3j + j*i^2) mod N, checked
    against mat_mul one letter at a time."""
    f = FiniteField(p, k)
    gens = sl_generators(n, f)
    for j, word in enumerate(matrices._words(f, gens)):
        want = gens[3 * j % len(gens)]
        for i in range(1, 16):
            want = mat_mul(f, want, gens[(7 * i + 3 * j + j * i * i) % len(gens)])
        assert word == want


def test_words_in_a_proper_subgroup_fall_back_to_the_transvections(built):
    """Generators in a proper subgroup put first leave the walk to keep the
    transvections that are missing from it: the order is still SL(2,4)'s.
    PSU(3,3)'s two words generate a subgroup of order 168, so its walk keeps
    them and one transvection."""
    f = FiniteField(2, 2)
    gens = sl_generators(2, f)
    grp = MatrixGroup([gens[0], gens[1]] + gens, f, 2)
    assert grp.order() == 60
    assert len(grp.reduced_generators()) >= 3
    psu = built("PSU(3,3)")
    assert MatrixGroup(psu.generators[:2], psu.field, 3, psu.scalars).order() == 168
    assert psu.reduced_generators() == psu.generators[:3]


@pytest.mark.parametrize("family,n,q", [("PSL", 2, 8), ("PSL", 2, 17), ("PSU", 3, 3),
                                        ("SL", 2, 9)])
def test_two_builds_give_identical_closures(family, n, q):
    """The words are fixed, so two builds walk the same generators to the
    same closure array for array."""
    a, b = (classical_group(family, n, q)._walked() for _ in range(2))
    assert a.kept == b.kept and a.layers == b.layers
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_cyclic_stage_checks_the_cap(monkeypatch):
    """PSL(2,17) keeps its transvection of order 17 first, so a cap of 8 is
    passed while its powers are taken, one product a round: at the Python
    speed, and at the numpy speed when every round is forced to it."""
    for small in (matrices._SMALL, 0):
        monkeypatch.setattr(matrices, "_SMALL", small)
        with pytest.raises(CapExceededError) as info:
            classical_group("PSL", 2, 17, cap=8)
        assert info.traceback[-1].name == "_walk"


@pytest.mark.parametrize("family,n,q,chunk", [
    ("SL", 2, 3, None), ("SL", 3, 2, None), ("PSU", 4, 2, None), ("PSL", 2, 7, None),
    ("PSL", 2, 9, None), ("PSL", 3, 4, None), ("PSU", 3, 3, None), ("PSL", 2, 9, 7)])
def test_both_speeds_give_one_closure(monkeypatch, family, n, q, chunk):
    """The walk runs its rounds of fewer than _SMALL products in plain Python
    and the rest in numpy: forcing either speed for every round gives the
    Closure of the default, field by field and dtype by dtype.  PSL(3,4) is
    taken modulo three scalars, PSU(3,3) keeps three generators, and a
    _CHUNK of 7 splits PSL(2,9)'s rounds into many chunks at both speeds."""
    g = classical_group(family, n, q)
    if chunk:
        monkeypatch.setattr(matrices, "_CHUNK", chunk)
    closures = []
    for small in (matrices._SMALL, 0, 10**9):
        monkeypatch.setattr(matrices, "_SMALL", small)
        closures.append(MatrixGroup(g.generators, g.field, n, g.scalars)._walked())
    want = closures[0]
    assert len(want.kept) == (3 if family == "PSU" and n == 3 else 2)
    assert len(want.elements) == classical_order(family, n, q)
    for got in closures[1:]:
        assert got.kept == want.kept
        assert got.layers == want.layers and {type(c) for c in got.layers} == {int}
        for field in ("elements", "table", "parent", "letter"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.mark.parametrize("small", [0, 10**9])
@pytest.mark.parametrize("family,n,q,chunk", [
    ("SL", 2, 3, None), ("PSL", 3, 4, None), ("PSU", 4, 2, None), ("PSL", 2, 9, 7)])
def test_walk_keeps_its_structural_laws(monkeypatch, family, n, q, chunk, small):
    """With every round at one speed, and PSL(2,9)'s rounds cut into chunks
    of 7, the walk numbers each element once: each row of R is a permutation
    of the positions, no key is stored twice, each parent sits in an earlier
    layer and each letter names a kept generator.  A batch that numbered one
    key twice would break the first two."""
    g = classical_group(family, n, q)
    if chunk:
        monkeypatch.setattr(matrices, "_CHUNK", chunk)
    monkeypatch.setattr(matrices, "_SMALL", small)
    c = MatrixGroup(g.generators, g.field, n, g.scalars)._walked()
    size = classical_order(family, n, q)
    assert len(c.elements) == len(np.unique(c.elements)) == c.layers[-1] == size
    for row in c.table:
        assert np.array_equal(np.sort(row), np.arange(size))
    layer = np.searchsorted(c.layers, np.arange(size), side="right")
    assert (layer[c.parent[1:]] < layer[1:]).all()
    assert ((0 <= c.letter[1:]) & (c.letter[1:] < len(c.kept))).all()


def positions(elems):
    """Element position by element, as the oracles hold elements."""
    return {e: i for i, e in enumerate(elems)}


# above this order the element-arithmetic checks run on a seeded sample of
# positions; the key and class checks stay whole
FULL_CHECK_ORDER = 2000


@pytest.mark.parametrize("expr", ["S(5)", "A(6)", "cex3", "PSL(2,7)", "PSU(3,3)"])
def test_left_maps_match_generic(built_perm, expr):
    """L[i, x] is the position of s_i * x, by element arithmetic, for the
    kept generators and a seeded sample of other positions s_i (at sampled
    positions x above FULL_CHECK_ORDER); inverting each map by scatter, as
    derived_series does, gives the left maps of the inverses."""
    g = built_perm(expr)
    (mul, inv, _), elems, c = arithmetic(g), elements(g), g._walked()
    index, n = positions(elems), g.order()
    rng = random.Random(n)
    s = c.table[:, 0].tolist() + rng.sample(range(n), 6)
    at = range(n) if n <= FULL_CHECK_ORDER else sorted(rng.sample(range(n), 300))
    left = g._left_maps(s)
    assert left.dtype == np.int32 and left.shape == (len(s), n)
    for i, si in enumerate(s):
        assert left[i, at].tolist() == [index[mul(elems[si], elems[x])] for x in at]
    inverse = np.empty_like(left)
    for row, row_inv in zip(left, inverse):
        row_inv[row] = np.arange(n, dtype=np.int32)
    assert (inverse == g._left_maps([index[inv(elems[si])] for si in s])).all()


@pytest.mark.parametrize("expr", ["PSL(2,7)", "SL(2,3)", "PSU(3,3)", "S(5)", "D(6)", "cex3",
                                  "SL(3,2)", "PSL(2,8)", "A(6)", "PSL(2,17)", "PSU(4,2)",
                                  "C(12)", "Perm[(1,2,3,4,5,6,7), (1,2)]"])
def test_packed_index_and_conjugation_maps_match_generic(built_perm, expr):
    """Everything read off the closure's table in index space agrees with
    element arithmetic: the keys, each element once, the table itself, the
    spanning tree and its rounds, the conjugation maps, the class partition
    and every element order (at sampled positions in a group above
    FULL_CHECK_ORDER)."""
    g = built_perm(expr)
    elems, kept, c = elements(g), g.reduced_generators(), g._walked()
    (mul, inv, _), index = arithmetic(g), positions(elems)
    assert len(index) == g.order() == len(elems) == len(c.elements)
    if isinstance(g, MatrixGroup):  # the oracle unpacks what pack_keys packs
        packed = pack_keys(np.array(elems, dtype=np.uint16), g.field.q)
        assert packed.tolist() == c.elements.tolist()
    at = range(len(elems))
    if len(elems) > FULL_CHECK_ORDER:
        at = sorted(random.Random(len(elems)).sample(at, 300))
    for x in at:
        if x:
            assert mul(elems[c.parent[x]], kept[c.letter[x]]) == elems[x]
    assert c.layers[0] == 1 and c.layers[-1] == len(elems)
    for a, b in zip(c.layers, c.layers[1:]):
        assert a < b and c.parent[a:b].max() < a
    table, maps = c.table, g.conjugation_maps()
    assert table.dtype == maps.dtype == np.int32
    assert table.shape == maps.shape == (len(kept), g.order())
    for k, h in enumerate(kept):
        hinv = inv(h)
        assert table[k, at].tolist() == [index[mul(elems[x], h)] for x in at]
        assert maps[k, at].tolist() == [index[mul(mul(hinv, elems[x]), h)] for x in at]
    # the kept generators generate the group, so their conjugation orbits
    # are the classes
    conj, orbit_of = maps.tolist(), {}
    for i in range(len(elems)):
        if i in orbit_of:
            continue
        orbit, stack = {i}, [i]
        while stack:
            j = stack.pop()
            for m in conj:
                if m[j] not in orbit:
                    orbit.add(m[j])
                    stack.append(m[j])
        orbit_of.update(dict.fromkeys(orbit, min(orbit)))
    classes = g.conjugacy_classes()
    assert [c.tolist() for c in classes] == [
        sorted(j for j in orbit_of if orbit_of[j] == i) for i in sorted(set(orbit_of.values()))
    ]
    orders = g.element_orders()
    assert [orders[x] for x in at] == [element_order_naive(g, elems[x]) for x in at]
    if not isinstance(g, MatrixGroup):
        assert orders == [perm_order(x) for x in elems]


@pytest.mark.parametrize("expr", ["PSL(2,7)", "PSL(2,9)", "PSL(3,4)", "PSL(4,2)", "PSU(3,3)"])
def test_scalar_quotient_matches_projective_closure(built, built_perm, expr):
    """A P-group walks the linear group modulo its scalars Z, which are
    central elements of the linear group, |linear| / |P| of them; its keys
    are exactly {least key of s*x for s in Z : x in the linear group}, here
    by mat_mul with the scalar matrices s*I."""
    grp, linear = built(expr), built_perm(expr[1:])  # walks SL(2,q) and SL(3,q) too
    f, n, z = linear.field, linear.n, grp.scalars
    assert len(z) == linear.order() // grp.order()
    linear_elems = elements(linear)
    scalar_mats = [tuple(tuple(s if i == j else 0 for j in range(n)) for i in range(n)) for s in z]
    assert set(scalar_mats) <= set(linear_elems)
    want, seen = set(), set()
    for x in linear_elems:
        if x not in seen:
            coset = [x] + [mat_mul(f, m, x) for m in scalar_mats[1:]]
            seen.update(coset)  # z[0] is 1, and every coset has |Z| members
            want.add(min(coset))
    assert sorted(elements(grp)) == sorted(want)


@pytest.mark.parametrize("projective", [False, True])
def test_chunked_walk_matches_one_chunk(monkeypatch, projective):
    """A frontier split over many chunks gives the same group, SL(2,9) or
    PSL(2,9), and every table entry and tree edge still matches element
    arithmetic."""
    f = FiniteField(3, 2)
    z = classical_scalars("PSL" if projective else "SL", 2, 9, f)
    gens = sl_generators(2, f)
    whole = MatrixGroup(gens, f, 2, z, cap=720)
    monkeypatch.setattr(matrices, "_CHUNK", 7)
    chunked = MatrixGroup(gens, f, 2, z, cap=720)
    assert chunked.order() == whole.order() == (360 if projective else 720)
    c, elems, mul = chunked._walked(), elements(chunked), arithmetic(chunked)[0]
    assert np.array_equal(np.sort(c.elements), np.sort(whole._walked().elements))
    index = positions(elems)
    for k, h in enumerate(c.kept):
        assert c.table[k].tolist() == [index[mul(x, h)] for x in elems]
    for x in range(1, len(elems)):
        assert mul(elems[c.parent[x]], c.kept[c.letter[x]]) == elems[x]


@pytest.mark.parametrize("size,span", [(1, 1), (2, 1), (50, 3), (5000, 40), (65536, 9000),
                                       (3000, 2**64 - 1)])
def test_merge_and_locate_match_numpy(size, span):
    """The walk's _locate and sort-free _merge against np.searchsorted,
    np.isin, np.insert and np.union1d on seeded uint64 keys: a batch of
    distinct keys in key order, as the walk sorts each batch, is located in
    the sorted keys and its misses merged in; a batch may hold one product."""
    rng = np.random.default_rng(size)
    keys = rng.integers(0, span, size, dtype=np.uint64, endpoint=True)
    batch = np.unique(keys)
    old = np.unique(rng.integers(0, span, size, dtype=np.uint64, endpoint=True))
    positions = rng.permutation(len(old)).astype(np.int32)
    at, miss = matrices._locate(old, batch)
    assert np.array_equal(at, np.searchsorted(old, batch))
    assert np.array_equal(miss, np.flatnonzero(~np.isin(batch, old)))
    new, new_positions = batch[miss], np.arange(len(old), len(old) + len(miss), dtype=np.int32)
    merged = matrices._merge(old, positions, at[miss], new, new_positions)
    assert np.array_equal(merged[0], np.insert(old, at[miss], new))
    assert np.array_equal(merged[1], np.insert(positions, at[miss], new_positions))
    assert np.array_equal(merged[0], np.union1d(old, keys))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_batched_product_matches_mat_mul(p, k):
    """_bmul agrees with mat_mul on random batches over GF(2), GF(4), GF(8)
    and GF(9)."""
    f = FiniteField(p, k)
    rng = np.random.default_rng(10 * p + k)
    for n in (2, 3, 4):
        a = rng.integers(0, f.q, (40, 1, n, n)).astype(np.uint16)
        b = rng.integers(0, f.q, (1, 3, n, n)).astype(np.uint16)
        prod = _bmul(f, a, b)
        assert prod.shape == (40, 3, n, n)
        for i in range(40):
            for j in range(3):
                want = mat_mul(f, a[i, 0].tolist(), b[0, j].tolist())
                assert prod[i, j].tolist() == [list(r) for r in want]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 2), (17, 1), (5, 2)])
def test_row_tables_match_mat_mul(p, k):
    """Over GF(2), GF(4), GF(8), GF(9), GF(17) and GF(25), for each degree the
    key width allows, the row table of a random h sends every row code to
    the packed row of mat_mul of that row by h."""
    f = FiniteField(p, k)
    rng = random.Random(10 * p + k)
    for n in range(1, 5):
        if n * n * key_bits(f.q, 1) > KEY_BITS:
            continue
        bits = key_bits(f.q, n)
        h = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        table = row_table(f, h).tolist()
        assert len(table) == 2 ** (bits * n)

        def code(row):  # first entry highest
            return sum(c << bits * (n - 1 - i) for i, c in enumerate(row))

        zero = [[0] * n] * (n - 1)
        for v in itertools.product(range(f.q), repeat=n):
            assert table[code(v)] == code(mat_mul(f, [v] + zero, h)[0])


def test_key_width_limit():
    assert key_bits(512, 2) * 4 <= KEY_BITS  # every SL(2,q) fits
    assert key_bits(16, 4) * 16 == KEY_BITS
    for n, q in [(3, 169), (4, 17), (3, 131)]:
        with pytest.raises(InvalidParameterError, match="at most 64 bits"):
            key_bits(q, n)
    with pytest.raises(InvalidParameterError, match="at most 64 bits"):
        classical_group("SL", 3, 131, cap=10**18)
    assert pack_keys(np.array([[0] * 4] * 3 + [[15] * 4], dtype=np.uint16), 16) == 2**16 - 1


def test_su_rejects_unsupported_dimension():
    # classical_order validates for the builders, which take its parameters
    with pytest.raises(InvalidParameterError):
        classical_order("SU", 2, 3)
    with pytest.raises(InvalidParameterError):
        classical_order("SL", 5, 2)
