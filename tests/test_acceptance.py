"""Acceptance gate: every shipped claim, each with its stated budget.

Each test covers one criterion and prints a single summary line; the
timing asserts use generous wall-clock budgets so slow CI machines still
pass while a quadratic regression does not.
"""

import json
import random
import time

from oracles import (
    alternating_generators,
    arithmetic,
    element_order_naive,
    elements,
    least_multiple,
    mat_det,
    symmetric_spectrum_formula,
)

from sameorder import group_for, noniso_certificate, spectrum_checks
from sameorder.fields import FiniteField
from sameorder.matrices import MatrixGroup, classical_order
from sameorder.numtheory import factorize
from sameorder.perms import permutation_group
from sameorder.verify import hunt_report, theorem_report

THREE_PRIME_SIMPLE = ["PSL(2,5)", "PSL(2,7)", "PSL(2,8)", "PSL(2,9)", "PSL(2,17)",
          "PSL(3,3)", "PSU(3,3)", "PSU(4,2)"]


def _report(n: int, label: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"acceptance {n}: PASS - {label}{suffix}")


def test_criterion_1_psl27_alpha_under_1s():
    t0 = time.perf_counter()
    g = group_for("PSL(2,7)")
    spectrum = g.spectrum().counts
    alpha = g.alpha()
    dt = time.perf_counter() - t0
    assert spectrum == {1: 1, 2: 21, 3: 56, 4: 42, 7: 48}
    assert alpha == (1, 21, 42, 48, 56)
    assert dt < 1.0
    _report(1, "alpha(PSL(2,7)) = {1,21,42,48,56}", dt)


def test_criterion_2_simple_group_table_under_60s():
    t0 = time.perf_counter()
    rep = theorem_report()
    dt = time.perf_counter() - t0
    cards = {r["expression"]: r["alpha_cardinality"] for r in rep["groups"]}
    assert cards == {"PSL(2,5)": 4, "PSL(2,7)": 5, "PSL(2,8)": 5,
                     "PSL(2,9)": 5, "PSL(2,17)": 7, "PSL(3,3)": 7,
                     "PSU(3,3)": 7, "PSU(4,2)": 7}
    for r in rep["groups"]:
        assert r["simple"] is True
        if r["expression"] not in ("PSL(2,5)", "PSL(2,7)", "PSL(2,8)", "PSL(2,9)"):
            assert r["alpha_cardinality"] >= 6
    assert dt < 60.0
    _report(2, "eight-group table with exactly three at cardinality 5", dt)


def test_criterion_3_a5_spectrum_under_1s():
    t0 = time.perf_counter()
    a5 = group_for("A(5)").spectrum().counts
    psl24 = group_for("PSL(2,4)").spectrum().counts
    psl25 = group_for("PSL(2,5)").spectrum().counts
    dt = time.perf_counter() - t0
    assert a5 == {1: 1, 2: 15, 3: 20, 5: 24}
    assert a5 == psl24 == psl25
    assert dt < 1.0
    _report(3, "nse(A5) = {1,15,20,24} across three realizations", dt)


def test_criterion_4_counterexample_suite_under_5s():
    t0 = time.perf_counter()
    reference = group_for("PSL(2,7)")
    solvables = {expr: group_for(expr)
                 for expr in ("Dic(2) x F(7,3,2)", "C(7) x SL(2,3)", "cex3")}
    for expr, g in solvables.items():
        assert g.order() == 168, expr
        assert len(g.alpha()) == 5, expr
        assert g.is_solvable(), expr
        assert noniso_certificate(reference, g) is not None, expr
    qf = solvables["Dic(2) x F(7,3,2)"].spectrum().counts
    assert qf == {1: 1, 2: 1, 3: 14, 4: 6, 6: 14, 7: 6, 12: 84, 14: 6, 28: 36}
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(4, "three solvable order-168 groups collide with PSL(2,7)", dt)


def test_criterion_5_odd_prime_witness_for_all_eight(built):
    for expr in THREE_PRIME_SIMPLE:
        g = built(expr)
        p, q, sp, sq = g.odd_prime_witness()
        counts = g.spectrum().counts
        assert p != q and p % 2 == 1 and q % 2 == 1
        assert g.order() % p == 0 and g.order() % q == 0
        assert p in factorize(g.order()) and q in factorize(g.order())
        assert sp != sq
        assert {1, counts.get(2, 0), sp, sq} <= set(g.alpha())
    _report(5, "odd prime witness present in all eight groups")


def test_criterion_6_classical_orders_match_enumeration(built, fresh_perm):
    """SL(2,q) and SL(3,q) are answered from q, so their orders are checked
    on a fresh walk."""
    seen = set()
    for q in (2, 3, 5, 7, 8, 9, 17):
        assert fresh_perm(f"SL(2,{q})").order() == classical_order("SL", 2, q)
        psl = built(f"PSL(2,{q})")
        assert psl.order() == classical_order("PSL", 2, q)
        seen.add(psl.order())
    sl33 = fresh_perm("SL(3,3)")
    assert isinstance(sl33, MatrixGroup)
    assert sl33.order() == classical_order("SL", 3, 3)
    seen.add(sl33.order())
    for expr, family, n, q in [("SU(3,3)", "SU", 3, 3),
                               ("SU(4,2)", "SU", 4, 2),
                               ("PSL(3,3)", "PSL", 3, 3),
                               ("PSU(3,3)", "PSU", 3, 3),
                               ("PSU(4,2)", "PSU", 4, 2)]:
        g = built(expr)
        assert g.order() == classical_order(family, n, q)
        seen.add(g.order())
    assert {168, 504, 360, 2448, 5616, 6048, 25920} <= seen
    _report(6, "closure orders equal the classical order formulas")


def test_criterion_7_property_suites(built, built_perm, enumerated_product):
    rng = random.Random(7)

    for expr in ("S(4)", "SL(2,3)"):
        g = built_perm(expr)
        mul, inv, _ = arithmetic(g)
        keys = set(elements(g))
        assert all(inv(a) in keys and mul(a, b) in keys for a in keys for b in keys)

    for expr in ("A(5)", "Dic(2)", "F(7,3,2)", "PSL(2,7)"):
        for name, ok, detail in spectrum_checks(built(expr).spectrum()):
            assert ok, f"{expr}: {name} ({detail})"

    enumerated = enumerated_product(built_perm("Dic(2)"), built_perm("F(7,3,2)"))
    assert built("Dic(2) x F(7,3,2)").spectrum() == enumerated.spectrum()

    f = FiniteField(7, 1)
    for _ in range(20):
        rows = [[rng.randrange(7) for _ in range(2)] for _ in range(2)]
        if mat_det(f, rows) == 0:
            continue
        for z in ((1, 6), tuple(range(1, 7))):  # the scalars of PSL(2,7), all of GF(7)*
            base = least_multiple(f, rows, z)
            for c in z:
                scaled = [f.mul[c, row].tolist() for row in rows]
                assert MatrixGroup([scaled], f, 2, z).generators == [base]
            if len(z) == 6:
                assert next(x for row in base for x in row if x) == 1

    for expr in ("C(24)", "S(4)", "SL(2,3)"):
        g = built_perm(expr)
        assert g.order() <= 200
        assert g.element_orders() == [element_order_naive(g, x) for x in elements(g)]

    _report(7, "closure, spectrum laws, convolution vs enumeration, normalization, orders")


def test_criterion_8_hunt_rediscovers_collisions_under_30s():
    t0 = time.perf_counter()
    rep = hunt_report(168, 2)
    rerun = hunt_report(168, 2)
    dt = time.perf_counter() - t0
    found = [c["expression"] for c in rep["collisions"]]
    assert len(found) >= 2
    assert len(set(found)) == len(found)
    assert "C(7) x SL(2,3)" in found
    assert "Dic(2) x F(7,3,2)" in found
    assert json.dumps(rep, sort_keys=True) == json.dumps(rerun, sort_keys=True)
    assert dt < 30.0
    _report(8, f"hunt(168,2) found {len(found)} collisions, stable output", dt)


def test_criterion_9_a9_spectrum_under_10s():
    """A(9) enumerated as a permutation group has 181440 elements, more than
    any group the benchmark builds; its spectrum takes about 0.5 s on a
    2-vCPU VM.  A closure whose work per batch grows with the batch squared
    (searching each batch from its start for every new element, say) takes
    about 40 s here.  The group is built fresh, so no memo hides the walk."""
    t0 = time.perf_counter()
    spectrum = permutation_group(alternating_generators(9)).spectrum().counts
    dt = time.perf_counter() - t0
    assert spectrum == symmetric_spectrum_formula(9, alternating=True)
    assert sum(spectrum.values()) == 181440
    assert dt < 10.0
    _report(9, "spectrum of A(9) matches its cycle types", dt)


def test_criterion_10_s9_a9_answered_from_cycle_types_under_1s():
    """S(9) and A(9), the largest symmetric and alternating groups under the
    default cap, are answered from their 30 cycle types with no walk: every
    call a report makes takes milliseconds, where criterion 9's A(9) walk
    takes about 0.5 s."""
    t0 = time.perf_counter()
    for alternating in (False, True):
        g = group_for("A(9)" if alternating else "S(9)")
        order = 362880 // (2 if alternating else 1)
        spectrum = g.spectrum()
        assert spectrum.counts == symmetric_spectrum_formula(9, alternating=alternating)
        assert all(ok for _, ok, _ in spectrum_checks(spectrum))
        assert g.order() == spectrum.group_order == order
        assert (g.is_simple(), g.is_solvable(), g.center_order()) == (alternating, False, 1)
        series = (181440, 181440) if alternating else (362880, 181440, 181440)
        assert g.derived_series() == (series, False)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(10, "S(9) and A(9) from their cycle types", dt)
