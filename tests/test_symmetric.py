"""S and A atoms are answered from their cycle types (core.Symmetric); the
same groups enumerated from the oracle's generators are checked against
them."""

import pytest
from oracles import symmetric_spectrum_formula
from registry import same_group

from sameorder import group_for, perms
from sameorder.core import Group, Symmetric
from sameorder.reports import report_for

ATOMS = [f"{family}({n})" for family in ("S", "A") for n in range(1, 9)]


@pytest.mark.parametrize("expr", ATOMS)
def test_cycle_type_answers_match_enumeration(built_perm, expr):
    """order, spectrum, alpha, center order, simplicity, derived series and
    solvability from n, against the atom's permutation group."""
    same_group(group_for(expr), built_perm(expr), Symmetric, perms.PermutationGroup)


@pytest.mark.parametrize("expr", ["S(9)", "A(9)"])
def test_report_walks_nothing(monkeypatch, expr):
    """report_for answers S(9) and A(9) without a walk, the closure that
    would hold their 362880 and 181440 elements."""

    def walked(self):
        raise AssertionError(f"walked {self.name}")

    monkeypatch.setattr(Group, "_walked", walked)
    rep = report_for(expr, 10**6)
    n, alternating = 9, expr.startswith("A")
    assert rep["order"] == 362880 // (2 if alternating else 1)
    spectrum = {int(t): c for t, c in rep["spectrum"].items()}
    assert spectrum == symmetric_spectrum_formula(n, alternating=alternating)
    assert (rep["simple"], rep["solvable"], rep["center_order"]) == (alternating, False, 1)
