"""SL(2,q) and SL(3,q) atoms, and the hunt's PSL(2,q) references, are
answered from q (core.SpecialLinear); the same groups walked as matrix
groups by classical_group are checked against them."""

import math

import pytest
from registry import invariants, same_group

from sameorder import group_for, spectrum_checks
from sameorder.core import Group, SpecialLinear
from sameorder.errors import CapExceededError, InvalidParameterError
from sameorder.fields import MAX_FIELD_SIZE
from sameorder.matrices import MatrixGroup, classical_order
from sameorder.numtheory import factorize, prime_power
from sameorder.reports import report_for

PRIME_POWERS = [q for q in range(2, 33) if prime_power(q)]
PSL2_WALKED = [q for q in range(2, 50) if prime_power(q)]
FIELDS = [q for q in range(2, MAX_FIELD_SIZE + 1) if prime_power(q)]


@pytest.mark.parametrize("n,q", [
    *(pytest.param(2, q, id=str(q)) for q in PRIME_POWERS),
    *(pytest.param(3, q, id=f"SL(3,{q})") for q in (2, 3, 4, 5))])
def test_closed_form_matches_enumeration(built_perm, n, q):
    """order, spectrum, alpha, center order, simplicity, derived series and
    solvability from q, against the walked SL(n,q)."""
    same_group(group_for(f"SL({n},{q})"), built_perm(f"SL({n},{q})"), SpecialLinear, MatrixGroup)


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_even_q_matches_the_walked_psl(built, q):
    """For q even the center is trivial, so SL(2,q) is PSL(2,q), which is
    walked modulo its one scalar."""
    same_group(group_for(f"SL(2,{q})"), built(f"PSL(2,{q})"), SpecialLinear, MatrixGroup)


@pytest.mark.parametrize("q", PSL2_WALKED)
def test_psl2_closed_form_matches_the_walked_psl(built, q):
    """PSL(2,q) from q, against classical_group's walk modulo the scalars,
    for every prime power q < 50: q = 2 and 3, which are S(3) and A(4), and
    q odd, where the form differs from SL(2,q)'s, included."""
    g = SpecialLinear(2, q, projective=True)
    same_group(g, built(f"PSL(2,{q})"), SpecialLinear, MatrixGroup)


def test_psl3_is_answered_only_with_a_trivial_center():
    """For q = 1 (mod 3), PSL(3,q) is SL(3,q) modulo three scalars, which
    the SL(3,q) form does not give."""
    assert invariants(SpecialLinear(3, 3, projective=True)) == invariants(SpecialLinear(3, 3))
    with pytest.raises(ValueError):
        SpecialLinear(3, 4, projective=True)


@pytest.mark.parametrize("q", [2, 3])
def test_degree_3_matches_the_walked_psl_where_the_center_is_trivial(built, q):
    """For gcd(3, q - 1) = 1 the center is trivial, so SL(3,q) is PSL(3,q),
    which is walked modulo its one scalar.  q = 5 would walk the 372000
    elements test_closed_form_matches_enumeration[SL(3,5)] already walks."""
    same_group(group_for(f"SL(3,{q})"), built(f"PSL(3,{q})"), SpecialLinear, MatrixGroup)


def test_every_field_passes_the_spectrum_laws():
    """Every SL(2,q) and SL(3,q) the field limit allows, past the default cap
    too, as nothing is walked: SL(2,512) has 134217216 elements.  Likewise
    PSL(2,q), the hunt's reference, which no expression answers from q."""
    for n, family in ((2, "SL"), (3, "SL"), (2, "PSL")):
        for q in FIELDS:
            g = (SpecialLinear(2, q, projective=True) if family == "PSL"
                 else group_for(f"SL({n},{q})", cap=10**30))
            assert all(ok for _, ok, _ in spectrum_checks(g.spectrum())), (family, n, q)
            assert sum(g.spectrum().counts.values()) == g.order() == classical_order(family, n, q)
    assert FIELDS[-1] == 512


def test_report_walks_nothing(monkeypatch):
    """report_for answers SL(2,97), the largest SL(2,q) under the default
    cap, without the walk of its 912576 elements, and SL(3,5) without the
    walk of its 372000."""

    def walked(self):
        raise AssertionError(f"walked {self.name}")

    monkeypatch.setattr(Group, "_walked", walked)
    rep = report_for("SL(2,97)", 10**6)
    assert (rep["order"], rep["simple"], rep["solvable"], rep["center_order"]) == (
        912576, False, False, 2)
    assert rep["spectrum"]["97"] == rep["spectrum"]["194"] == 97**2 - 1
    rep = report_for("SL(3,5)", 10**6)
    assert (rep["order"], rep["simple"], rep["solvable"], rep["center_order"]) == (
        372000, True, False, 1)
    assert rep["spectrum"]["31"] == 120000  # φ(31)/3 classes of |GL(3,5)|/(5³ - 1)


@pytest.mark.parametrize("expr,error", [
    ("SL(2,1)", InvalidParameterError), ("SL(2,6)", InvalidParameterError),
    ("SL(2,1024)", InvalidParameterError), ("SL(2,101)", CapExceededError),
    ("SL(3,1)", InvalidParameterError), ("SL(3,6)", InvalidParameterError),
    ("SL(3,1024)", InvalidParameterError), ("SL(3,7)", CapExceededError)])
def test_parameters_are_validated_first(expr, error):
    """q must be a prime power within the field limit, and the order within
    the cap, as for the walked families."""
    with pytest.raises(error):
        group_for(expr)


def test_degree_3_answers_past_the_matrix_key_limit():
    """SL(3,256) is answered within a cap of 10^20, where its walk would need
    72-bit matrix keys."""
    g = group_for("SL(3,256)", cap=10**20)
    assert g.order() == 256**3 * (256**2 - 1) * (256**3 - 1) == sum(g.spectrum().counts.values())


def test_only_sl32_has_five_element_counts():
    """Among the SL(3,q) with a trivial center, so simple, for q up to the
    field limit, only SL(3,2), which is PSL(2,7), has a same-order type of
    five counts."""
    sizes = {q: len(group_for(f"SL(3,{q})", cap=10**30).alpha())
             for q in FIELDS if math.gcd(3, q - 1) == 1}
    assert [q for q, size in sizes.items() if size == 5] == [2]
    assert sizes[2] == 5 and min(size for q, size in sizes.items() if q > 2) == 7


def test_psl2_five_element_counts():
    """Over the prime powers 4 <= q <= 4096, PSL(2,q) has a same-order type
    of five counts exactly at q = 7, 8, 9, 11, 13, 27 and 2187; of these only
    PSL(2,7), PSL(2,8) and PSL(2,9) have three prime divisors, the paper's
    K3 statement."""
    five = [q for q in range(4, 4097)
            if prime_power(q) and len(SpecialLinear(2, q, projective=True).alpha()) == 5]
    assert five == [7, 8, 9, 11, 13, 27, 2187]
    three = [q for q in five if len(factorize(SpecialLinear(2, q, projective=True).order())) == 3]
    assert three == [7, 8, 9]
