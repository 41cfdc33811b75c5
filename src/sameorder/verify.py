"""End-to-end verification commands and the alpha-collision hunt.

These assemble the library's invariants into three reproducible reports:
the classification of five-size same-order types among the simple groups
with exactly three prime divisors, the order-168 counterexamples showing
a matching type cardinality does not pin down the group, and a bounded
search for further collisions at a given order.  Reports are deterministic:
fixed group lists, sorted collections, no timestamps, identical output for
any thread count.  The hunt searches the atoms that the entries of
dsl.FAMILIES list, and holds no code of its own per family.  Cyclic,
dihedral, dicyclic and F(m,n,k) atoms, most of the hunt's, are answered
from their parameters (core.Metacyclic), symmetric and alternating atoms
from their cycle types (core.Symmetric), and SL(2,q) and SL(3,q) from q
(core.SpecialLinear).  The theorem enumerates its eight
groups and the counterexample cex3 and PSL(2,7), so each claim is checked
on walked groups.  For its disputed counts the counterexample enumerates
Dic(2) x F(7,3,2) from a constant Perm[...] spelling, DISPUTED_PERMS.  The hunt
enumerates only its SL(4,q) atoms and a PSU reference: its PSL references
are answered from q (core.SpecialLinear), so the hunts at 60 and 168 walk
nothing.  The hunt builds each distinct atom once, before it examines any
candidate, and holds it to the end; it reads each atom's solution counts
c(d) = #{x : x^d = 1} on the divisors d of the order once per hunt, and gets
every candidate product's spectrum from a numpy product of those counts and
a Möbius transform, differences along each prime axis of the divisor lattice
(DivisorLattice): only the candidates whose type cardinality matches the
simple group's are built as a DirectProduct and certified.  Worker threads
share the atoms and the counts and change neither, but for the atoms' lazily
cached invariants, which are idempotent (core.Invariants, core.Group).
"""

from __future__ import annotations

import math

from .core import DEFAULT_CAP, DirectProduct, SpecialLinear, noniso_certificate
from .dsl import FAMILIES, eval_expr, group_for, parse_expr, print_expr
from .errors import CapExceededError, VerificationError
from .lattice import DivisorLattice, type_cardinalities
from .matrices import classical_order
from .numtheory import factorize

THREE_PRIME_SIMPLE_GROUPS = (
    "PSL(2,5)",
    "PSL(2,7)",
    "PSL(2,8)",
    "PSL(2,9)",
    "PSL(2,17)",
    "PSL(3,3)",
    "PSU(3,3)",
    "PSU(4,2)",
)

ALPHA_FIVE = {"PSL(2,7)", "PSL(2,8)", "PSL(2,9)"}

COUNTEREXAMPLES = ("Dic(2) x F(7,3,2)", "C(7) x SL(2,3)", "cex3")

# Dic(2) x F(7,3,2) as permutations, which counterexample_report enumerates:
# Q8 acting on itself from the left, and Z_7 extended by doubling
DISPUTED_PERMS = parse_expr("Perm[(1,2,3,4)(5,6,7,8), (1,5,3,7)(2,8,4,6)] x "
                            "Perm[(1,2,3,4,5,6,7), (2,3,5)(4,7,6)]")


def _pmap(fn, items, threads: int) -> list:
    if threads <= 1:
        return [fn(x) for x in items]
    # imported here: concurrent.futures pulls in logging and queue, which a
    # single-threaded call, the default, would pay for on every import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def theorem_report(cap: int = DEFAULT_CAP, threads: int = 1) -> dict:
    """Check which three-prime simple groups have five same-order class sizes.

    Builds all eight candidates, asserts each is simple with exactly three
    prime divisors, records same-order types and odd-prime witnesses, and
    confirms the five-size groups are exactly PSL(2,7), PSL(2,8), PSL(2,9).
    Raises VerificationError naming the group and value on any mismatch.
    """

    def row(expr: str) -> dict:
        g = group_for(expr, cap)
        alpha = list(g.alpha())
        p, q, sp, sq = g.odd_prime_witness()
        return {
            "expression": expr,
            "order": g.order(),
            "prime_divisors": sorted(factorize(g.order())),
            "alpha": alpha,
            "alpha_cardinality": len(alpha),
            "simple": g.is_simple(),
            "odd_prime_witness": {"p": p, "q": q, "s_p": sp, "s_q": sq},
        }

    rows = _pmap(row, THREE_PRIME_SIMPLE_GROUPS, threads)
    for r in rows:
        if not r["simple"]:
            raise VerificationError(f"{r['expression']}: expected simple, engine says otherwise")
        if len(r["prime_divisors"]) != 3:
            raise VerificationError(
                f"{r['expression']}: expected 3 prime divisors, got {r['prime_divisors']}"
            )
    five = sorted(r["expression"] for r in rows if r["alpha_cardinality"] == 5)
    if set(five) != ALPHA_FIVE:
        raise VerificationError(
            f"groups with five class sizes should be {sorted(ALPHA_FIVE)}, got {five}"
        )
    low = [r for r in rows if r["expression"] == "PSL(2,5)"][0]
    if low["alpha_cardinality"] != 4:
        raise VerificationError(
            f"PSL(2,5): expected 4 class sizes, got {low['alpha_cardinality']}"
        )
    for r in rows:
        if r["expression"] not in ALPHA_FIVE | {"PSL(2,5)"} and r["alpha_cardinality"] < 6:
            raise VerificationError(
                f"{r['expression']}: expected at least 6 class sizes, got {r['alpha_cardinality']}"
            )
    return {
        "claim": (
            "among nonabelian simple groups whose order has exactly three prime "
            "divisors, precisely PSL(2,7), PSL(2,8) and PSL(2,9) have a "
            "five-size same-order type"
        ),
        "groups": rows,
        "alpha_cardinality_five": five,
        "verified": True,
    }


def counterexample_report(cap: int = DEFAULT_CAP, threads: int = 1) -> dict:
    """Check the order-168 collisions with PSL(2,7).

    Three solvable groups of order 168 share the type cardinality 5 with
    PSL(2,7); certificates separate each from it.  Also records two widely
    repeated but wrong counts for Dic(2) x F(7,3,2): 8 and 56 are its Sylow
    subgroup counts at 2 and 7, not element counts.  The counts recorded are
    enumerated from DISPUTED_PERMS, whose spectrum must equal the one
    answered from parameters.
    """
    reference = "PSL(2,7)"
    exprs = (reference,) + COUNTEREXAMPLES
    groups = dict(zip(exprs, _pmap(lambda e: group_for(e, cap), exprs, threads)))

    rows = []
    for expr in exprs:
        g = groups[expr]
        if g.order() != 168:
            raise VerificationError(f"{expr}: expected order 168, got {g.order()}")
        alpha = list(g.alpha())
        if len(alpha) != 5:
            raise VerificationError(f"{expr}: expected 5 class sizes, got {len(alpha)}")
        # simplicity first: a group it proves simple reads its derived
        # series off the memo, with no normal closure
        simple = g.is_simple()
        rows.append({
            "expression": expr,
            "order": g.order(),
            "spectrum": {str(t): c for t, c in g.spectrum().counts.items()},
            "alpha": alpha,
            "alpha_cardinality": len(alpha),
            "solvable": g.is_solvable(),
            "simple": simple,
        })

    ref_alpha = list(groups[reference].alpha())
    if ref_alpha != [1, 21, 42, 48, 56]:
        raise VerificationError(f"{reference}: same-order type came out as {ref_alpha}")
    if rows[0]["solvable"] or not rows[0]["simple"]:
        raise VerificationError(f"{reference}: must be simple and not solvable")

    certificates = []
    for expr in COUNTEREXAMPLES:
        g = groups[expr]
        if not g.is_solvable():
            raise VerificationError(f"{expr}: expected a solvable group")
        cert = noniso_certificate(groups[reference], g)
        if cert is None:
            raise VerificationError(f"{expr}: no certificate against {reference}")
        certificates.append({"against": expr, "certificate": cert.to_dict()})

    disputed_expr = "Dic(2) x F(7,3,2)"
    enumerated = eval_expr(DISPUTED_PERMS, cap)
    if enumerated.spectrum() != groups[disputed_expr].spectrum():
        raise VerificationError(
            f"{disputed_expr}: enumerated spectrum {enumerated.spectrum().counts} differs "
            f"from the parametric {groups[disputed_expr].spectrum().counts}"
        )
    qf = enumerated.spectrum().counts
    if qf.get(2) != 1 or qf.get(7) != 6:
        raise VerificationError(
            f"{disputed_expr}: enumerated s_2={qf.get(2)}, s_7={qf.get(7)}; expected 1 and 6"
        )
    disputed = {
        "expression": disputed_expr,
        "entries": [
            {"order": 2, "claimed": 8, "enumerated": 1},
            {"order": 7, "claimed": 56, "enumerated": 6},
        ],
        "note": (
            "8 and 56 are the counts of Sylow 2- and 7-subgroups of this group, "
            "not element counts; enumeration is authoritative"
        ),
    }

    return {
        "claim": (
            "a five-size same-order type does not determine a group of order "
            "168: three solvable groups share cardinality 5 with PSL(2,7)"
        ),
        "reference": reference,
        "groups": rows,
        "certificates": certificates,
        "disputed_counts": disputed,
        "verified": True,
    }


# -- hunt ---------------------------------------------------------------------------


def _candidate_atoms(n: int) -> list:
    """(order, Atom) for every atom of a searched family of order dividing
    n: each entry of dsl.FAMILIES that has atoms lists its own."""
    return [a for family in FAMILIES.values() if family.atoms for a in family.atoms(n)]


def _candidate_expressions(order: int, max_factors: int) -> dict:
    """{text: atoms} for every candidate, sorted by its print_expr text."""
    # the atoms in the order of their texts
    ranked = sorted((print_expr(atom), (o, atom)) for o, atom in _candidate_atoms(order))
    texts, atoms = [text for text, _ in ranked], [pair for _, pair in ranked]
    by_order, out = {}, {}
    for idx, (o, _) in enumerate(atoms):
        by_order.setdefault(o, []).append(idx)

    def rec(start: int, remaining: int, parts: list):
        # the last factor's order is the whole remainder
        last = len(parts) + 1 == max_factors
        for idx in by_order.get(remaining, ()) if last else range(start, len(atoms)):
            o = atoms[idx][0]
            if idx < start or remaining % o:
                continue
            parts.append(idx)
            if o == remaining:
                # print_expr of the Product, from its atoms' texts
                out[" x ".join(texts[i] for i in parts)] = tuple(atoms[i][1] for i in parts)
            else:
                rec(idx, remaining // o, parts)
            parts.pop()

    rec(0, order, [])
    return dict(sorted(out.items()))


# candidates whose solution counts are multiplied in one numpy product; one
# block holds every candidate of the 168/3 and 60/3 hunts
_BLOCK = 256


def hunt_report(order: int, max_factors: int, cap: int = DEFAULT_CAP,
                threads: int = 1) -> dict:
    """Search bounded products of standard families for same-order-type
    collisions with the simple group of the given order.

    A collision is a candidate with the same type cardinality as the simple
    group plus a non-isomorphism certificate.  Empty results mean none were
    found in the searched families, not that none exist.  The simple group,
    the reference, is validated by classical_order and checked against cap
    as eval_expr checks an expression; a PSL(2,q) reference, or a PSL(3,q)
    one with gcd(3, q - 1) = 1, is then answered from q (SpecialLinear), and
    a PSU one walked.  Each distinct atom is built once per call, before
    any candidate is examined, held to the end and shared by the candidates
    that use it; its solution counts are read once per call.  Candidates
    are taken in blocks: one numpy product of those counts gives every
    candidate's type cardinality, and only those that match the simple
    group's become a DirectProduct and get a certificate.
    """
    base = {"order": order, "max_factors": max_factors}
    # the collision reference: the unique nonabelian simple group of this
    # order with three prime divisors
    by_order = {classical_order(family, *params): text
                for text in THREE_PRIME_SIMPLE_GROUPS
                for family, params in [parse_expr(text)]}
    if order not in by_order:
        return {**base, "collisions": [],
                "note": f"no simple catalog group of order {order} (nonabelian)"}
    simple_expr = by_order[order]
    if order > cap:  # as eval_expr checks it, before anything is built
        raise CapExceededError(cap)
    family, (n, q) = parse_expr(simple_expr)
    if family == "PSL" and (n == 2 or math.gcd(3, q - 1) == 1):
        # only the hunt takes these from q: the claim reports walk them
        simple = SpecialLinear(n, q, projective=True, name=simple_expr)
    else:
        simple = group_for(simple_expr, cap)
    # a walked reference is proved simple from class data, so a certificate
    # that asks solvability reads it off that memo, with no second class test
    simple.is_simple()
    target_card = len(simple.alpha())

    factors = _candidate_expressions(order, max_factors)
    # each distinct atom, built once and held to the end of the hunt
    atoms = {a: eval_expr(a, cap) for a in dict.fromkeys(a for fs in factors.values() for a in fs)}
    row = {a: i for i, a in enumerate(atoms)}
    lattice = DivisorLattice(order)
    counts = lattice.counts([g.spectrum() for g in atoms.values()])

    def examine(text: str):
        groups = [atoms[a] for a in factors[text]]
        g = groups[0] if len(groups) == 1 else DirectProduct(groups, name=text, cap=cap)
        g.is_simple()  # likewise, for a walked simple atom such as SL(4,2)
        cert = noniso_certificate(simple, g)
        if cert is None:
            return None
        alpha = list(g.alpha())
        return {
            "expression": text,
            "alpha": alpha,
            "alpha_cardinality": len(alpha),
            "certificate": cert.to_dict(),
        }

    texts, found = list(factors), []
    for start in range(0, len(texts), _BLOCK):
        block = texts[start:start + _BLOCK]
        spectra = lattice.products(counts, [[row[a] for a in factors[t]] for t in block])
        matched = [t for t, card in zip(block, type_cardinalities(spectra)) if card == target_card]
        found.extend(r for r in _pmap(examine, matched, threads) if r is not None)
    return {
        **base,
        "simple": simple_expr,
        "simple_alpha": list(simple.alpha()),
        "candidates_searched": len(factors),
        "collisions": found,
    }
