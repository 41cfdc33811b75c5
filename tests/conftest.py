import itertools
from functools import partial

import pytest
from oracles import PERMUTATION_BUILDERS

from sameorder import DirectProduct, eval_expr, group_for, parse_expr, print_expr
from sameorder.dsl import SL_DEGREES, factors_of
from sameorder.matrices import MatrixGroup, classical_group
from sameorder.perms import permutation_group


@pytest.fixture(scope="session")
def built():
    """Shared group builder so expensive closures run once per session."""
    cache = {}

    def get(expr: str):
        if expr not in cache:
            cache[expr] = group_for(expr)
        return cache[expr]

    return get


def _builder(atom):
    """The enumerating builder of an atom the engine answers from its
    parameters, called with those parameters: for C, D, Dic, F, S and A the
    oracle's permutation builder, making a PermutationGroup, and for SL(2,q)
    and SL(3,q) classical_group's matrix walk.  None for any other atom."""
    family = getattr(atom, "family", None)  # a PermAtom has no family
    if family == "SL" and atom.params[0] in SL_DEGREES:
        return partial(classical_group, "SL")
    if family not in PERMUTATION_BUILDERS:
        return None
    gens = PERMUTATION_BUILDERS[family]
    return lambda *params: permutation_group(gens(*params), name=print_expr(atom))


def _enumerated(expr: str):
    """The group of expr with each C, D, Dic, F, S, A, SL(2,q) and SL(3,q)
    atom enumerated by its builder: the oracle for their parametric answers, with
    the closure, classes and maps that tests of Group's internals read."""
    ast = parse_expr(expr)
    groups = [_builder(a)(*a.params) if _builder(a) else eval_expr(a) for a in factors_of(ast)]
    return groups[0] if len(groups) == 1 else DirectProduct(groups, name=print_expr(ast))


@pytest.fixture(scope="session")
def fresh_perm():
    """_enumerated itself: a new group on every call, for tests that read
    what a group memoizes or time a cold walk."""
    return _enumerated


@pytest.fixture(scope="session")
def built_perm(built):
    """built, except that an expression with a C, D, Dic, F, S, A, SL(2,q) or
    SL(3,q) atom gets that atom enumerated (_enumerated).  Memoized as built is."""
    cache = {}

    def get(expr: str):
        if not any(map(_builder, factors_of(parse_expr(expr)))):
            return built(expr)
        if expr not in cache:
            cache[expr] = _enumerated(expr)
        return cache[expr]

    return get


def _point_images(group) -> list:
    """Image lists of the group's generators acting on points.

    Permutations keep their own points; a matrix acts on the row vectors of
    GF(q)^n, which is faithful for a linear group (no scalars but 1).
    """
    if not isinstance(group, MatrixGroup):
        return [list(g) for g in group.generators]
    assert group.scalars == (1,)
    f, n = group.field, group.n
    add, mul = f.add.tolist(), f.mul.tolist()
    vectors = list(itertools.product(range(f.q), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}

    def times(v, m):
        out = []
        for j in range(n):
            s = 0
            for k in range(n):
                s = add[s][mul[v[k]][m[k][j]]]
            out.append(s)
        return tuple(out)

    return [[index[times(v, m)] for v in vectors] for m in group.generators]


@pytest.fixture(scope="session")
def enumerated_product():
    """Enumerate a direct product as one permutation group on disjoint points.

    This is the reference that DirectProduct's composed answers are checked
    against: each factor acts on its own block of points.
    """

    def build(*factors):
        blocks = [_point_images(g) for g in factors]
        total = sum(len(images[0]) for images in blocks)
        gens, offset = [], 0
        for images in blocks:
            degree = len(images[0])
            for img in images:
                gens.append(bytes(list(range(offset)) + [offset + i for i in img]
                                  + list(range(offset + degree, total))))
            offset += degree
        return permutation_group(gens)

    return build
