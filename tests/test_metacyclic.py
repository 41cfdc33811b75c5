"""C, D, Dic and F atoms are answered from their parameters (core.Metacyclic);
the permutation builders of tests/oracles.py are their oracle, and past 256
points its per-e passes and element multiplication are."""

import math
import random
import time
import tracemalloc

import pytest
from oracles import metacyclic_orders_naive, metacyclic_spectrum

from sameorder import eval_expr, group_for, perms, verify
from sameorder.core import Metacyclic, Spectrum, noniso_certificate
from sameorder.dsl import parse_expr, print_expr
from sameorder.errors import InvalidParameterError, VerificationError
from sameorder.numtheory import divisors, multiplicative_order, totient
from sameorder.verify import _candidate_atoms, counterexample_report

CATALOG_ORDERS = (60, 168, 360, 504, 2448, 5616, 6048, 25920)
METACYCLIC = ("C", "D", "Dic", "F")


def _accepted(atom) -> bool:
    """Whether the DSL accepts the atom: it refuses a C, D, Dic or F atom
    whose permutation builder would act on more than 256 points."""
    try:
        eval_expr(atom)
    except InvalidParameterError:
        return False
    return True


def _hunt_atoms() -> list:
    """Every C, D, Dic and F atom the hunts at 60 and 168 search, and those
    at 360 and 504 that act on at most 256 points."""
    texts = set()
    for order in (60, 168, 360, 504):
        for _, atom in _candidate_atoms(order):
            if atom.family in METACYCLIC and (order < 360 or _accepted(atom)):
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
    enumeration that disagrees with the parametric spectrum is an error.
    Here F(7,3,2)'s spelling is swapped for C(21)'s."""
    spelling = print_expr(verify.DISPUTED_PERMS)
    monkeypatch.setattr(verify, "DISPUTED_PERMS", parse_expr(spelling.replace(
        "(1,2,3,4,5,6,7), (2,3,5)(4,7,6)", "(1,2,3,4,5,6,7)(8,9,10)")))
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


def _accepted_atoms(order: int) -> list:
    """The C, D, Dic and F atoms of the hunt at order that the DSL accepts:
    those on at most MAX_DEGREE points."""
    return [print_expr(atom) for _, atom in _candidate_atoms(order)
            if atom.family in METACYCLIC and _accepted(atom)]


@pytest.mark.parametrize("order", CATALOG_ORDERS)
def test_closed_form_matches_per_e_passes_on_catalog_atoms(order):
    """The closed divisor form against one numpy pass over Z_m per e, on
    every accepted C, D, Dic and F atom of the eight catalog hunts."""
    texts = _accepted_atoms(order)
    assert texts
    for text in texts:
        g = group_for(text)
        assert g.spectrum().counts == metacyclic_spectrum(*g.params), text
        assert list(g.spectrum().counts) == sorted(g.spectrum().counts), text


def _valid_params(rng: random.Random, largest: int, widest: int) -> tuple:
    """A random (m, n, k, s) with k^n = 1 and s(k - 1) = 0 (mod m), m at
    most largest and k's order at most widest: a metacyclic group of order
    mn."""
    m = rng.randint(2, largest)
    r = next(x for x in iter(lambda: rng.randrange(1, m), None) if math.gcd(x, m) == 1)
    t = multiplicative_order(r, m)
    j = rng.choice([x for x in divisors(t) if 1 < x <= widest] or [1])
    k = pow(r, t // j, m)
    step = m // math.gcd(m, k - 1)  # s(k - 1) = 0 (mod m) iff step divides s
    return m, j * rng.randint(1, 3), k, step * rng.randrange(m // step)


_RNG = random.Random(2323)
SAMPLE = [_valid_params(_RNG, 10_000, 12) for _ in range(60)]
SMALL_SAMPLE = [_valid_params(_RNG, 40, 6) for _ in range(40)]


def test_samples_reach_past_256_points_with_s_nonzero():
    assert sum(m > 256 and s for m, _, _, s in SAMPLE) >= 20
    assert sum(k != 1 and s for _, _, k, s in SAMPLE) >= 10
    assert sum(k != 1 and s for _, _, k, s in SMALL_SAMPLE) >= 5


@pytest.mark.parametrize("params", SAMPLE, ids=str)
def test_closed_form_matches_per_e_passes_on_a_sample(params):
    assert Metacyclic(*params).spectrum().counts == metacyclic_spectrum(*params)


@pytest.mark.parametrize("params", SMALL_SAMPLE, ids=str)
def test_closed_form_matches_multiplication(params):
    """Both the closed form and the per-e passes against element orders
    found by multiplying, which rests on the presentation alone."""
    naive = metacyclic_orders_naive(*params)
    assert Metacyclic(*params).spectrum().counts == naive
    assert metacyclic_spectrum(*params) == naive


@pytest.mark.parametrize("params,expected", [
    # C(10^12): phi(t) elements of each order t dividing 10^12
    ((10**12, 1, 1), {t: totient(t) for t in divisors(10**12)}),
    # Dic(5·10^11): the cyclic part of order 2·10^12, and 2·10^12 more
    # elements of order 4
    ((2 * 10**12, 2, 2 * 10**12 - 1, 10**12),
     {t: totient(t) + (2 * 10**12 if t == 4 else 0) for t in divisors(2 * 10**12)}),
])
def test_hostile_sizes_answer_at_once(params, expected):
    """Nothing is allocated per element of Z_m: at m = 10^12 a pass over c
    could not be made at all."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        counts = Metacyclic(*params).spectrum().counts
        elapsed, peak = time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == expected
    assert elapsed < 0.1
    assert peak < 256 * 1024
