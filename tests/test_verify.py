import json
import math
import re
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sameorder import verify
from sameorder.core import DEFAULT_CAP, spectrum_direct_product
from sameorder.dsl import FAMILIES, Atom, eval_expr
from sameorder.errors import InvalidParameterError, VerificationError
from sameorder.lattice import DivisorLattice, type_cardinalities
from sameorder.numtheory import divisors, multiplicative_order
from sameorder.reports import render_json, report_for
from sameorder.verify import (
    _candidate_expressions,
    counterexample_report,
    hunt_report,
    theorem_report,
)


@pytest.fixture(scope="module")
def theorem():
    return theorem_report()


@pytest.fixture(scope="module")
def counterexample():
    return counterexample_report()


@pytest.fixture(scope="module")
def hunt168():
    return hunt_report(168, 2)


GOLDEN = Path(__file__).parent / "golden"

GOLDEN_EXPRESSIONS = ["PSL(2,7)", "SL(2,3)", "PSU(3,3)", "C(7) x SL(2,3)",
                      "PSL(2,8) x C(2)", "S(4) x S(4)", "Q(8)",
                      # permutation groups beyond S(4) x S(4); the last is
                      # PSL(3,2) acting on the seven points of the Fano plane
                      "S(8)", "A(8)", "Perm[(1,2,3,4,5,6,7), (1,2)(3,6)]",
                      # P-groups modulo scalars of order 2 over GF(9), of
                      # order 3 in degree 3, and the unitary PSU(3,5) (order 3)
                      "PSL(2,9)", "PSL(3,4)", "PSU(3,5)"]


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_claim_reports(theorem, counterexample, hunt168):
    """Reports stay byte-identical to the capture in tests/golden/."""
    assert render_json(theorem) == _golden("theorem.json")
    assert render_json(counterexample) == _golden("counterexample.json")
    assert render_json(hunt168) == _golden("hunt_168_2.json")
    # the two hunts of the benchmark's collisions workload
    assert render_json(hunt_report(168, 3)) == _golden("hunt_168_3.json")
    assert render_json(hunt_report(60, 3)) == _golden("hunt_60_3.json")


@pytest.mark.parametrize("expr", GOLDEN_EXPRESSIONS)
def test_golden_expression_reports(expr):
    slug = re.sub(r"[^A-Za-z0-9]+", "_", expr).strip("_")
    assert render_json(report_for(expr, DEFAULT_CAP)) == _golden(f"report_{slug}.json")


EXPECTED_TABLE = {
    "PSL(2,5)": (60, 4),
    "PSL(2,7)": (168, 5),
    "PSL(2,8)": (504, 5),
    "PSL(2,9)": (360, 5),
    "PSL(2,17)": (2448, 7),
    "PSL(3,3)": (5616, 7),
    "PSU(3,3)": (6048, 7),
    "PSU(4,2)": (25920, 7),
}

EXPECTED_WITNESSES = {
    "PSL(2,5)": {"p": 3, "q": 5, "s_p": 20, "s_q": 24},
    "PSL(2,7)": {"p": 3, "q": 7, "s_p": 56, "s_q": 48},
    "PSL(2,8)": {"p": 3, "q": 7, "s_p": 56, "s_q": 216},
    "PSL(2,9)": {"p": 3, "q": 5, "s_p": 80, "s_q": 144},
    "PSL(2,17)": {"p": 3, "q": 17, "s_p": 272, "s_q": 288},
    "PSL(3,3)": {"p": 3, "q": 13, "s_p": 728, "s_q": 1728},
    "PSU(3,3)": {"p": 3, "q": 7, "s_p": 728, "s_q": 1728},
    "PSU(4,2)": {"p": 3, "q": 5, "s_p": 800, "s_q": 5184},
}


def test_theorem_table(theorem):
    rows = {r["expression"]: r for r in theorem["groups"]}
    assert set(rows) == set(EXPECTED_TABLE)
    for expr, (order, card) in EXPECTED_TABLE.items():
        assert rows[expr]["order"] == order, expr
        assert rows[expr]["alpha_cardinality"] == card, expr
        assert rows[expr]["simple"] is True, expr
        assert len(rows[expr]["prime_divisors"]) == 3, expr
    assert theorem["alpha_cardinality_five"] == ["PSL(2,7)", "PSL(2,8)", "PSL(2,9)"]
    assert theorem["verified"] is True


def test_theorem_witnesses(theorem):
    rows = {r["expression"]: r for r in theorem["groups"]}
    for expr, witness in EXPECTED_WITNESSES.items():
        assert rows[expr]["odd_prime_witness"] == witness, expr


def test_theorem_alpha_values(theorem):
    rows = {r["expression"]: r for r in theorem["groups"]}
    assert rows["PSL(2,7)"]["alpha"] == [1, 21, 42, 48, 56]
    assert rows["PSL(2,5)"]["alpha"] == [1, 15, 20, 24]
    assert rows["PSU(3,3)"]["alpha"] == [1, 63, 504, 728, 1008, 1512, 1728]


def test_theorem_deterministic_across_thread_counts(theorem):
    rerun = theorem_report(threads=4)
    assert json.dumps(rerun, sort_keys=True) == json.dumps(theorem, sort_keys=True)


EXPECTED_168_SPECTRA = {
    "PSL(2,7)": {"1": 1, "2": 21, "3": 56, "4": 42, "7": 48},
    "Dic(2) x F(7,3,2)": {"1": 1, "2": 1, "3": 14, "4": 6, "6": 14,
                          "7": 6, "12": 84, "14": 6, "28": 36},
    "C(7) x SL(2,3)": {"1": 1, "2": 1, "3": 8, "4": 6, "6": 8, "7": 6,
                       "14": 6, "21": 48, "28": 36, "42": 48},
    "cex3": {"1": 1, "2": 7, "3": 56, "6": 56, "7": 6, "14": 42},
}


def test_counterexample_groups(counterexample):
    rows = {r["expression"]: r for r in counterexample["groups"]}
    assert set(rows) == set(EXPECTED_168_SPECTRA)
    for expr, spectrum in EXPECTED_168_SPECTRA.items():
        assert rows[expr]["order"] == 168, expr
        assert rows[expr]["spectrum"] == spectrum, expr
        assert rows[expr]["alpha_cardinality"] == 5, expr
    assert rows["PSL(2,7)"]["simple"] and not rows["PSL(2,7)"]["solvable"]
    for expr in EXPECTED_168_SPECTRA:
        if expr != "PSL(2,7)":
            assert rows[expr]["solvable"], expr


def test_counterexample_certificates(counterexample):
    certs = {c["against"]: c["certificate"] for c in counterexample["certificates"]}
    assert set(certs) == {"Dic(2) x F(7,3,2)", "C(7) x SL(2,3)", "cex3"}
    for cert in certs.values():
        assert cert["reason"] == "spectrum-mismatch"
        assert cert["t"] == 7
        assert (cert["left"], cert["right"]) == (48, 6)


def test_counterexample_disputed_counts(counterexample):
    d = counterexample["disputed_counts"]
    assert d["expression"] == "Dic(2) x F(7,3,2)"
    assert d["entries"] == [
        {"order": 2, "claimed": 8, "enumerated": 1},
        {"order": 7, "claimed": 56, "enumerated": 6},
    ]
    assert "Sylow" in d["note"]


def test_counterexample_deterministic(counterexample):
    for threads in (1, 2, 4):
        rerun = counterexample_report(threads=threads)
        assert json.dumps(rerun, sort_keys=True) == json.dumps(
            counterexample, sort_keys=True)


def test_hunt_finds_both_order_168_collisions(hunt168):
    rep = hunt168
    found = [c["expression"] for c in rep["collisions"]]
    assert found == ["C(7) x SL(2,3)", "Dic(2) x F(7,3,2)"]
    assert rep["simple"] == "PSL(2,7)"
    assert rep["simple_alpha"] == [1, 21, 42, 48, 56]
    assert rep["candidates_searched"] >= 50
    for c in rep["collisions"]:
        assert c["alpha_cardinality"] == 5
        assert c["certificate"]["reason"] == "spectrum-mismatch"


def test_hunt_excludes_isomorphic_realizations(hunt168):
    """SL(3,2) is a candidate of order 168 but yields no certificate, so it
    must not be reported as a collision."""
    exprs = _candidate_expressions(168, 2)
    assert "SL(3,2)" in exprs
    assert all(c["expression"] != "SL(3,2)" for c in hunt168["collisions"])


def test_hunt_is_deterministic(hunt168):
    a = hunt168
    b = hunt_report(168, 2, threads=4)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_hunt_empty_at_order_60():
    rep = hunt_report(60, 2)
    assert rep["simple"] == "PSL(2,5)"
    assert rep["collisions"] == []
    assert rep["candidates_searched"] > 0


def test_hunt_unaffected_by_cache_lifecycle(tmp_path):
    import shutil

    from sameorder.reports import report_for

    before = hunt_report(60, 2)
    report_for("PSL(2,5)", 1_000_000, str(tmp_path))
    shutil.rmtree(tmp_path)
    after = hunt_report(60, 2)
    assert json.dumps(before, sort_keys=True) == json.dumps(after, sort_keys=True)


def test_hunt_builds_each_atom_once(monkeypatch):
    """C, D, Dic, F, S, A, SL(2,q) and SL(3,q) atoms are answered from their
    parameters and never walked, and so is a PSL(2,q) reference, so at 60
    and 168 a hunt walks nothing."""
    from collections import Counter

    from sameorder import verify
    from sameorder.core import Group
    from sameorder.dsl import print_expr

    built, enumerated = Counter(), Counter()
    walked, evaluate = Group._walked, verify.eval_expr

    def counting(self):
        if self._closure is None:
            enumerated[self.name] += 1
        return walked(self)

    def building(ast, cap):
        built[print_expr(ast)] += 1
        return evaluate(ast, cap)

    monkeypatch.setattr(Group, "_walked", counting)
    monkeypatch.setattr(verify, "eval_expr", building)
    for order, candidates, sl_atoms in [
            (60, 53, {"SL(2,2)", "SL(2,4)"}),
            (168, 149, {"SL(2,2)", "SL(2,3)", "SL(3,2)"})]:
        built.clear()
        enumerated.clear()
        rep = hunt_report(order, 3)
        atoms = {print_expr(a) for fs in _candidate_expressions(order, 3).values() for a in fs}
        assert rep["candidates_searched"] == candidates
        assert set(built) == atoms and max(built.values()) == 1
        assert sl_atoms < atoms  # built, not walked
        assert not enumerated


def test_claim_reports_still_walk_their_groups(monkeypatch):
    """The theorem and the counterexample keep enumerating their simple
    groups through classical_group: only the hunt answers its reference
    from q, so each claim is checked on walked groups."""
    from collections import Counter

    from sameorder import group_for
    from sameorder.core import Group
    from sameorder.matrices import MatrixGroup

    assert isinstance(group_for("PSL(2,7)"), MatrixGroup)
    enumerated, walked = Counter(), Group._walked

    def counting(self):
        if self._closure is None:
            enumerated[self.name] += 1
        return walked(self)

    monkeypatch.setattr(Group, "_walked", counting)
    theorem_report()
    assert enumerated == Counter(verify.THREE_PRIME_SIMPLE_GROUPS)
    enumerated.clear()
    counterexample_report()
    assert enumerated["PSL(2,7)"] == 1


def test_hunt_reference_over_the_cap_is_refused_first(monkeypatch):
    """The reference's order is checked against cap as eval_expr checks an
    expression's, before any atom is built or anything walked."""
    from sameorder.core import Group
    from sameorder.errors import CapExceededError

    def walked(self):
        raise AssertionError(f"walked {self.name}")

    def built(ast, cap):
        raise AssertionError(f"built {ast}")

    monkeypatch.setattr(Group, "_walked", walked)
    monkeypatch.setattr(verify, "eval_expr", built)
    for order in (60, 168, 25920):
        with pytest.raises(CapExceededError):
            hunt_report(order, 2, cap=order - 1)


@pytest.mark.parametrize("order,points", [(360, 360), (504, 504), (2448, 1224), (5616, 468)])
def test_catalog_hunts_refuse_their_first_atom_past_256_points(order, points):
    """Each of these hunts lists a C, D, Dic or F atom whose permutation
    builder acts on more than 256 points, and refuses the first one it
    builds, in candidate order, before examining any candidate."""
    with pytest.raises(InvalidParameterError, match=rf"at most 256 points, got {points}$"):
        hunt_report(order, 3)


def _assert_lattice_matches_convolution(order: int, factors: dict):
    """Every candidate's spectrum and type cardinality from one counts() and
    one products() call, against its factors' spectra convolved over lcm of
    orders (spectrum_direct_product)."""
    groups = {a: eval_expr(a) for a in dict.fromkeys(a for fs in factors.values() for a in fs)}
    row = {a: i for i, a in enumerate(groups)}
    lattice = DivisorLattice(order)
    counts = lattice.counts([g.spectrum() for g in groups.values()])
    assert counts.shape == (len(groups) + 1, len(divisors(order)))
    assert (counts[-1] == 1).all()  # the trivial group, which pads a shorter product
    spectra = lattice.products(counts, [[row[a] for a in fs] for fs in factors.values()])
    cards = type_cardinalities(spectra)
    assert spectra.shape == (len(factors), len(divisors(order)))
    for (text, atoms), got, card in zip(factors.items(), spectra.tolist(), cards.tolist()):
        want = reduce(spectrum_direct_product, [groups[a].spectrum() for a in atoms])
        assert {t: c for t, c in zip(lattice.divisors, got) if c} == want.counts, text
        assert card == len(want.alpha()), text


@pytest.mark.parametrize("order,max_factors", [(60, 2), (60, 3), (168, 2), (168, 3)])
def test_batch_spectra_match_convolution(order, max_factors):
    _assert_lattice_matches_convolution(order, _candidate_expressions(order, max_factors))


def test_batch_spectra_match_convolution_at_2448():
    """The 2448/3 hunt, PSL(2,17)'s, over the candidates whose every atom
    the DSL accepts: its cyclic, dihedral and dicyclic atoms past 256 points
    are refused, so the hunt itself exits 2."""
    factors = _candidate_expressions(2448, 3)
    accepted = set()
    for a in dict.fromkeys(a for fs in factors.values() for a in fs):
        try:
            eval_expr(a)
        except InvalidParameterError:
            continue
        accepted.add(a)
    factors = {t: fs for t, fs in factors.items() if accepted.issuperset(fs)}
    assert (len(accepted), len(factors)) == (140, 919)
    _assert_lattice_matches_convolution(2448, factors)


@pytest.mark.parametrize("order", [1, 12, 60, 168, 25920])
def test_mobius_matrix_inverts_zeta(order):
    """The Möbius transform undoes the zeta transform: each divisor's basis
    spectrum, through counts() and then single-factor products(), comes back
    as itself."""
    lattice = DivisorLattice(order)
    basis = [SimpleNamespace(counts={d: 1}) for d in lattice.divisors]
    counts = lattice.counts(basis)
    assert counts.dtype == np.int64
    spectra = lattice.products(counts, [[r] for r in range(len(basis))])
    assert (spectra == np.eye(len(basis), dtype=np.int64)).all()


def test_type_cardinalities_count_distinct_nonzero_values():
    rows = np.array([[1, 0, 3, 3, 0], [1, 1, 1, 1, 1], [1, 2, 4, 8, 16], [1, 0, 0, 0, 0]])
    assert type_cardinalities(rows).tolist() == [2, 1, 5, 1]


@pytest.mark.parametrize("block", [1, 7, 52])
def test_hunt_report_is_the_same_in_any_block_size(monkeypatch, block):
    """Block edges split candidates, and atoms they share, between batches;
    the report does not change."""
    expected = render_json(hunt_report(60, 3)), render_json(hunt_report(168, 2))
    monkeypatch.setattr(verify, "_BLOCK", block)
    assert (render_json(hunt_report(60, 3)), render_json(hunt_report(168, 2))) == expected


def _frobenius_atoms_by_subgroup(n: int) -> list:
    """The F(m,nn,k) atoms with m*nn dividing n, found one k at a time: its
    own multiplicative_order call, and the first k of each cyclic subgroup
    of units, the subgroup written out as a set."""
    out = []
    for m in divisors(n):
        if m < 2 or m > n // 2:
            continue
        for nn in divisors(n // m):
            if nn < 2:
                continue
            seen = set()
            for k in range(2, m):
                if math.gcd(k, m) != 1 or multiplicative_order(k, m) != nn:
                    continue
                sub = frozenset(pow(k, e, m) for e in range(nn))
                if sub not in seen:
                    seen.add(sub)
                    out.append((m * nn, Atom("F", (m, nn, k))))
    return out


@pytest.mark.parametrize("order", [168, 60, 504, 360, 2448, 5616, 6048, 25920])
def test_frobenius_atoms_match_one_order_per_unit(order):
    """One walk per cyclic subgroup of units, from its least generator,
    gives the same atoms in the same order at every catalog order: those of
    the eight groups of THREE_PRIME_SIMPLE_GROUPS."""
    assert FAMILIES["F"].atoms(order) == _frobenius_atoms_by_subgroup(order)


def test_frobenius_atoms_match_by_subgroup_up_to_200():
    """Every order up to 200, whose moduli include some that no catalog
    order has: the primes 11, 19 and 23, the odd prime squares 25 and 49,
    and 50."""
    for n in range(1, 201):
        assert FAMILIES["F"].atoms(n) == _frobenius_atoms_by_subgroup(n), n


def test_hunt_without_catalog_group():
    rep = hunt_report(7, 1)
    assert rep["collisions"] == []
    assert rep["note"] == "no simple catalog group of order 7 (nonabelian)"
    rep = hunt_report(24, 2)
    assert "no simple catalog group of order 24" in rep["note"]


def test_hunt_candidates_are_sorted_and_unique():
    exprs = list(_candidate_expressions(168, 2))
    assert exprs == sorted(exprs)
    assert len(exprs) == len(set(exprs))
    assert "C(7) x SL(2,3)" in exprs
    assert "Dic(2) x F(7,3,2)" in exprs


def test_hunt_respects_max_factors():
    one = _candidate_expressions(168, 1)
    assert all(" x " not in e for e in one)
    assert "SL(3,2)" in one
    three = _candidate_expressions(168, 3)
    assert "C(2) x C(2) x C(42)" in three


def test_theorem_failure_raises_verification_error(monkeypatch):
    import sameorder.verify as v

    real = v.group_for

    def tampered(expr, cap):
        g = real(expr, cap)
        if expr == "PSL(2,5)":
            class Wrapper:
                def __getattr__(self, name):
                    return getattr(g, name)

                def alpha(self):
                    return (1, 15, 20, 24, 99)
            return Wrapper()
        return g

    monkeypatch.setattr(v, "group_for", tampered)
    with pytest.raises(VerificationError):
        v.theorem_report()
