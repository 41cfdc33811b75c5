import itertools

import pytest

from sameorder import group_for
from sameorder.matrices import MatrixGroup
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


def _point_images(group) -> list:
    """Image lists of the group's generators acting on points.

    Permutations keep their own points; a matrix acts on the row vectors of
    GF(q)^n, which is faithful for a linear group (no scalars but 1).
    """
    if not isinstance(group, MatrixGroup):
        return [list(g) for g in group.generators]
    assert group.scalars == (1,)
    f, n = group.field, group.n
    vectors = list(itertools.product(range(f.q), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}

    def times(v, m):
        out = []
        for j in range(n):
            s = 0
            for k in range(n):
                s = f.add(s, f.mul(v[k], m[k][j]))
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
