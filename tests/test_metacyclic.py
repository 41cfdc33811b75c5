"""C, D, Dic and F atoms are answered from their parameters (core.Metacyclic);
the permutation builders of perms are their oracle."""

import pytest

from sameorder import group_for, perms
from sameorder.core import Metacyclic, Spectrum, noniso_certificate
from sameorder.dsl import METACYCLIC, print_expr
from sameorder.errors import VerificationError
from sameorder.verify import _candidate_atoms, counterexample_report


def _hunt_atoms() -> list:
    """Every C, D, Dic and F atom the hunts at 60 and 168 search, and those
    at 360 and 504 that act on at most 256 points."""
    texts = set()
    for order in (60, 168, 360, 504):
        for _, atom in _candidate_atoms(order):
            if atom.family not in METACYCLIC:
                continue
            if order < 360 or perms.family_degree(atom.family, atom.params) <= perms.MAX_DEGREE:
                texts.add(print_expr(atom))
    return sorted(texts)


EDGE_CASES = ["C(1)", "D(1)", "D(2)", "Dic(1)", "Q(8)"]


def test_hunt_atoms_cover_every_family():
    atoms = _hunt_atoms()
    assert len(atoms) > 150
    assert {text.split("(")[0] for text in atoms} == set(METACYCLIC)


@pytest.mark.parametrize("expr", EDGE_CASES + _hunt_atoms())
def test_parametric_answers_match_enumeration(built_perm, expr):
    """order, spectrum, center order, simplicity, derived series and
    solvability from parameters, against the atom's permutation group."""
    g, ref = group_for(expr), built_perm(expr)
    assert isinstance(g, Metacyclic) and isinstance(ref, perms.PermutationGroup)
    assert g.order() == ref.order()
    assert g.spectrum() == ref.spectrum()
    assert list(g.spectrum().counts) == list(ref.spectrum().counts)
    assert g.alpha() == ref.alpha()
    assert g.center_order() == ref.center_order()
    assert g.is_simple() == ref.is_simple()
    assert g.derived_series() == ref.derived_series()
    assert g.is_solvable() == ref.is_solvable()


def test_counterexample_checks_the_enumerated_spectrum(monkeypatch):
    """The disputed counts are read off Dic(2) x F(7,3,2) enumerated; an
    enumeration that disagrees with the parametric spectrum is an error."""
    monkeypatch.setitem(perms.FAMILY_BUILDERS, "F",
                        lambda m, n, k: perms.cyclic_generators(m * n))
    with pytest.raises(VerificationError, match="enumerated spectrum"):
        counterexample_report()


class _Stub:
    """Answers what noniso_certificate asks, and nothing else."""

    def __init__(self, simple):
        self.simple = simple

    def order(self):
        return 60

    def spectrum(self):
        return Spectrum(counts={1: 1, 2: 15, 3: 20, 5: 24}, group_order=60)

    def center_order(self):
        return 1

    def is_solvable(self):
        return False

    def is_simple(self):
        return self.simple


def test_certificate_simplicity_mismatch():
    """Groups that agree on every earlier invariant and differ in simplicity
    get a certificate; none was given before simplicity was compared."""
    cert = noniso_certificate(_Stub(True), _Stub(False))
    assert cert is not None and cert.reason == "simplicity-mismatch"
    assert (cert.left, cert.right) == (True, False)
    assert cert.to_dict() == {"reason": "simplicity-mismatch", "left": True, "right": False}
    assert noniso_certificate(_Stub(True), _Stub(True)) is None
