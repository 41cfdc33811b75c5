"""SL(2,q) atoms are answered from q (core.SL2); the same groups walked as
matrix groups by classical_group are checked against them."""

import pytest

from sameorder import group_for, spectrum_checks
from sameorder.core import SL2, Group
from sameorder.errors import CapExceededError, InvalidParameterError
from sameorder.fields import MAX_FIELD_SIZE
from sameorder.matrices import MatrixGroup
from sameorder.numtheory import prime_power
from sameorder.reports import report_for

PRIME_POWERS = [q for q in range(2, 33) if prime_power(q)]


def _invariants(g) -> tuple:
    return (g.order(), g.spectrum(), list(g.spectrum().counts), g.center_order(),
            g.is_simple(), g.derived_series(), g.is_solvable())


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_closed_form_matches_enumeration(built_perm, q):
    """order, spectrum, center order, simplicity, derived series and
    solvability from q, against the walked SL(2,q)."""
    g, ref = group_for(f"SL(2,{q})"), built_perm(f"SL(2,{q})")
    assert isinstance(g, SL2) and isinstance(ref, MatrixGroup)
    assert _invariants(g) == _invariants(ref)


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_even_q_matches_the_walked_psl(built, q):
    """For q even the center is trivial, so SL(2,q) is PSL(2,q), which is
    walked modulo its one scalar."""
    assert _invariants(group_for(f"SL(2,{q})")) == _invariants(built(f"PSL(2,{q})"))


def test_every_field_passes_the_spectrum_laws():
    """Every SL(2,q) the field limit allows, past the default cap too, as
    nothing is walked: SL(2,512) has 134217216 elements."""
    qs = [q for q in range(2, MAX_FIELD_SIZE + 1) if prime_power(q)]
    for q in qs:
        g = group_for(f"SL(2,{q})", cap=10**9)
        assert all(ok for _, ok, _ in spectrum_checks(g.spectrum())), q
        assert sum(g.spectrum().counts.values()) == g.order() == q * (q * q - 1)
    assert qs[-1] == 512


def test_report_walks_nothing(monkeypatch):
    """report_for answers SL(2,97), the largest SL(2,q) under the default
    cap, without the walk of its 912576 elements."""

    def walked(self):
        raise AssertionError(f"walked {self.name}")

    monkeypatch.setattr(Group, "_walked", walked)
    rep = report_for("SL(2,97)", 10**6)
    assert (rep["order"], rep["simple"], rep["solvable"], rep["center_order"]) == (
        912576, False, False, 2)
    assert rep["spectrum"]["97"] == rep["spectrum"]["194"] == 97**2 - 1


@pytest.mark.parametrize("expr,error", [
    ("SL(2,1)", InvalidParameterError), ("SL(2,6)", InvalidParameterError),
    ("SL(2,1024)", InvalidParameterError), ("SL(2,101)", CapExceededError)])
def test_parameters_are_validated_first(expr, error):
    """q must be a prime power within the field limit, and the order within
    the cap, as for the walked families."""
    with pytest.raises(error):
        group_for(expr)
