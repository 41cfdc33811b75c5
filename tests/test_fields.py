import random

import pytest

from sameorder.errors import InvalidParameterError
from sameorder.fields import FiniteField


def test_prime_field_inverse():
    f = FiniteField(7, 1)
    assert f.pow(3, 5) == 5
    for a in range(1, 7):
        assert f.mul[a, f.pow(a, 5)] == 1


def test_gf8_modulus_is_smallest_irreducible_cubic():
    f = FiniteField(2, 3)
    assert f.q == 8
    assert f.modulus == (1, 1, 0, 1)


def test_gf9_has_element_of_order_8():
    f = FiniteField(3, 2)
    orders = []
    for a in range(f.q):
        if a == 0:
            continue
        x, k = a, 1
        while x != 1:
            x = f.mul[x, a]
            k += 1
        orders.append(k)
    assert max(orders) == 8
    assert all(8 % k == 0 for k in orders)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(p, k):
    """Associativity and distributivity over every triple of a small field."""
    f = FiniteField(p, k)
    codes = list(range(f.q))
    for a in codes:
        for b in codes:
            assert f.add[a, b] == f.add[b, a]
            assert f.mul[a, b] == f.mul[b, a]
            for c in codes:
                assert f.mul[a, f.mul[b, c]] == f.mul[f.mul[a, b], c]
                assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]


def test_inverse_and_sub():
    for p, k in [(2, 3), (3, 2), (7, 1)]:
        f = FiniteField(p, k)
        for a in range(f.q):
            assert f.add[a, f.neg[a]] == 0
            if a != 0:
                assert f.mul[a, f.pow(a, f.q - 2)] == 1


def test_pow_matches_repeated_mul():
    f = FiniteField(3, 2)
    for a in range(f.q):
        acc = 1
        for e in range(6):
            assert f.pow(a, e) == acc
            acc = f.mul[acc, a]


def test_frobenius_is_additive_and_multiplicative():
    """x -> x^p is a field automorphism."""
    f = FiniteField(3, 2)
    codes = list(range(f.q))
    for a in codes:
        for b in codes:
            assert f.pow(f.add[a, b], 3) == f.add[f.pow(a, 3), f.pow(b, 3)]
            assert f.pow(f.mul[a, b], 3) == f.mul[f.pow(a, 3), f.pow(b, 3)]


def _add_digitwise(f, a: int, b: int) -> int:
    return sum(((a // f.p**i + b // f.p**i) % f.p) * f.p**i for i in range(f.k))


def test_np_tables_agree_with_scalar_ops():
    """The add, mul and neg arrays against the independent polynomial
    arithmetic: mul against _mul_slow, add against digit-wise addition mod
    p, and neg[a] against the one b with add[a, b] == 0."""
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)]:
        f = FiniteField(p, k)
        assert f.add.shape == f.mul.shape == (f.q, f.q) and f.neg.shape == (f.q,)
        for a in range(f.q):
            for b in range(f.q):
                assert f.add[a, b] == _add_digitwise(f, a, b)
                assert f.mul[a, b] == f._mul_slow(a, b)
            assert (f.add[a] == 0).nonzero()[0].tolist() == [f.neg[a]]
            if a != 0:
                assert f._mul_slow(a, f.pow(a, f.q - 2)) == 1


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        FiniteField(4, 1)
    with pytest.raises(InvalidParameterError):
        FiniteField(6, 2)
    with pytest.raises(InvalidParameterError):
        FiniteField(2, 17)
    with pytest.raises(InvalidParameterError, match="MAX_FIELD_SIZE = 512"):
        FiniteField(2, 10)
    with pytest.raises(InvalidParameterError, match="MAX_FIELD_SIZE = 512"):
        FiniteField(521, 1)
    assert FiniteField(2, 9).q == 512


def test_random_spot_checks_large_field():
    f = FiniteField(2, 8)
    rng = random.Random(11)
    codes = list(range(f.q))
    for _ in range(500):
        a, b = rng.choice(codes), rng.choice(codes)
        assert f.mul[a, b] == f.mul[b, a]
        if a != 0:
            assert f.mul[a, f.pow(a, f.q - 2)] == 1
        assert f.pow(f.add[a, b], 2) == f.add[f.pow(a, 2), f.pow(b, 2)]
