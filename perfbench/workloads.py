"""The three workloads, their seeded inputs and their correctness gate.

Each workload is one pass of work a user of ``sameorder`` waits for, driven
through the public API with ``threads=1``:

* ``theorem``: ``theorem_report()`` and its JSON rendering, the work of
  ``sameorder verify theorem --json``.
* ``collisions``: ``counterexample_report()``, then ``hunt_report(168, 3)``
  and ``hunt_report(60, 3)``, each rendered to JSON.
* ``reports``: ``report_for`` on a seeded draw of expressions through a
  fresh on-disk cache, each expression once cold (miss, then store) and
  once warm (hit), as ``sameorder spectrum --json --cache-dir`` does.

Every output is checked against expectations written down here by hand
from the paper and from textbook formulas (cycle types of S(n), the
spectra of cyclic, dihedral and dicyclic groups, products by lcm
convolution), never against the engine's own answers.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter

import sameorder
from sameorder import reports

CAP = sameorder.DEFAULT_CAP

# -- hand-written spectra ------------------------------------------------------------


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def cyclic_spectrum(n: int) -> Counter:
    return Counter({d: _phi(d) for d in range(1, n + 1) if n % d == 0})


def dihedral_spectrum(n: int) -> Counter:
    """D(n) of order 2n: the rotations, plus n reflections of order 2."""
    out = cyclic_spectrum(n)
    out[2] += n
    return out


def dicyclic_spectrum(n: int) -> Counter:
    """Dic(n) of order 4n: the cyclic part of order 2n, plus 2n elements of order 4."""
    out = cyclic_spectrum(2 * n)
    out[4] += 2 * n
    return out


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def symmetric_spectrum(n: int, even_only: bool = False) -> Counter:
    """Element orders of S(n) (or A(n)) counted by cycle type."""
    out = Counter()
    for shape in _partitions(n):
        if even_only and sum(k - 1 for k in shape) % 2:
            continue
        size = math.factorial(n)
        for k, m in Counter(shape).items():
            size //= k**m * math.factorial(m)
        out[math.lcm(*shape)] += size
    return out


def product_spectrum(*factors: Counter) -> Counter:
    acc = Counter({1: 1})
    for f in factors:
        nxt = Counter()
        for u, su in acc.items():
            for v, sv in f.items():
                nxt[math.lcm(u, v)] += su * sv
        acc = nxt
    return acc


# Standard tables (ATLAS / elementary counts) for the non-family atoms.
PSL27 = Counter({1: 1, 2: 21, 3: 56, 4: 42, 7: 48})
PSL28 = Counter({1: 1, 2: 63, 3: 56, 7: 216, 9: 168})
SL25 = Counter({1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24})
SL23 = Counter({1: 1, 2: 1, 3: 8, 4: 6, 6: 8})
F732 = Counter({1: 1, 3: 14, 7: 6})
# cex3 = C2 x ((C7 x V4) : C3) with C3 acting fixed-point-freely, so every
# element outside C7 x V4 in the Frobenius factor has order 3
CEX3 = product_spectrum(cyclic_spectrum(2), Counter({1: 1, 2: 3, 3: 56, 7: 6, 14: 18}))

S4 = symmetric_spectrum(4)

# expression -> (order, simple, solvable, center order, spectrum)
REPORT_EXPECTED = {
    # large permutation groups
    "S(7)": (5040, False, False, 1, symmetric_spectrum(7)),
    "A(8)": (20160, True, False, 1, symmetric_spectrum(8, even_only=True)),
    "S(8)": (40320, False, False, 1, symmetric_spectrum(8)),
    # mixed permutation x matrix products (PairElement path)
    "PSL(2,8) x C(2)": (1008, False, False, 2, product_spectrum(PSL28, cyclic_spectrum(2))),
    "C(2) x PSL(2,7)": (336, False, False, 2, product_spectrum(cyclic_spectrum(2), PSL27)),
    "SL(2,5) x C(3)": (360, False, False, 6, product_spectrum(SL25, cyclic_spectrum(3))),
    "C(7) x SL(2,3)": (168, False, True, 14, product_spectrum(cyclic_spectrum(7), SL23)),
    # small solvable products
    "D(12) x S(4)": (576, False, True, 2, product_spectrum(dihedral_spectrum(12), S4)),
    "S(4) x S(4)": (576, False, True, 1, product_spectrum(S4, S4)),
    "cex3": (168, False, True, 2, CEX3),
    "Dic(2) x F(7,3,2)": (168, False, True, 2, product_spectrum(dicyclic_spectrum(2), F732)),
    # degree >= 257 permutation keys; both raise ValueError at this engine version
    "C(300)": (300, False, True, 300, cyclic_spectrum(300)),
    "Dic(70)": (280, False, True, 2, dicyclic_spectrum(70)),
}


def random_perm_expressions(rng: random.Random) -> dict:
    """Seeded Perm[...] generators on at most 7 points, with known answers.

    Each draw is an n-cycle and the transposition of two points adjacent in
    it, which generate S(n), written in a random labelling of the points.
    Relabelling changes the input but not the shape of the generators, so
    the closure does the same work for every seed: a transposition drawn
    apart from the cycle made the work of these four reports differ by up to
    25% between seeds.  Two draws on 7 points and two on 5.
    """
    out = {}
    for degree in (7, 7, 5, 5):
        while True:
            cycle = rng.sample(range(1, degree + 1), degree)
            swap = sorted(cycle[:2])
            # canonical cycle text: smallest point first
            k = cycle.index(min(cycle))
            cycle = cycle[k:] + cycle[:k]
            gens = ["(" + ",".join(map(str, cycle)) + ")", "(" + ",".join(map(str, swap)) + ")"]
            text = "Perm[" + ", ".join(gens) + "]"
            if text not in out:
                break
        out[text] = (math.factorial(degree), False, False, 1, symmetric_spectrum(degree))
    return out


def reports_draw(seed: int) -> list:
    """The expressions of one reports pass: the fixed strata, then the seeded draws.

    The order is the same for every seed: a shuffled order moved the pass's
    peak RSS between two levels 3% apart, depending on which groups were
    still alive when the largest was built.
    """
    exprs = dict(REPORT_EXPECTED)
    exprs.update(random_perm_expressions(random.Random(seed)))
    return list(exprs.items())


# -- the pass ------------------------------------------------------------------------


class Pass:
    """Outcome of one workload pass: op latencies, failures, gate errors."""

    def __init__(self):
        self.ops = []  # (kind, seconds) for every op that returned: verify, cold or warm
        self.failures = []  # {"op", "expression", "error", "message"}
        self.attempted = 0
        self.gate = []  # one line per failed expectation
        self.counts = Counter()

    def call(self, kind: str, label: str, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed op is counted, never fatal to the pass
            self.failures.append({"op": kind, "expression": label,
                                  "error": type(exc).__name__, "message": str(exc)[:200]})
            return None
        self.ops.append((kind, time.perf_counter() - t0))
        return result

    def expect(self, ok: bool, what: str):
        if not ok:
            self.gate.append(what)


def _render(rep):
    return rep, reports.render_json(rep)


def run_theorem(p: Pass, seed: int, work_dir: str):
    out = p.call("verify", "theorem", lambda: _render(sameorder.theorem_report(CAP, 1)))
    return lambda: check_theorem(p, out)


def run_collisions(p: Pass, seed: int, work_dir: str):
    cex = p.call("verify", "counterexample",
                 lambda: _render(sameorder.counterexample_report(CAP, 1)))
    h168 = p.call("verify", "hunt 168 3", lambda: _render(sameorder.hunt_report(168, 3, CAP, 1)))
    h60 = p.call("verify", "hunt 60 3", lambda: _render(sameorder.hunt_report(60, 3, CAP, 1)))
    for h in (h168, h60):
        if h is not None:
            p.counts["verify.candidates"] += h[0]["candidates_searched"]
            p.counts["verify.collisions"] += len(h[0]["collisions"])
    return lambda: check_collisions(p, cex, h168, h60)


def run_reports(p: Pass, seed: int, work_dir: str):
    """Cold then warm report_for per expression, in a cache dir made for this pass."""
    cache_dir = os.path.join(work_dir, "cache")
    os.makedirs(cache_dir)
    done, raised = [], []
    for expr, expected in reports_draw(seed):
        cold = p.call("cold", expr, sameorder.report_for, expr, CAP, cache_dir)
        if cold is None:
            raised.append(expr)
            continue
        path = reports.cache_path(cache_dir, cold["expression"])
        before = os.stat(path)
        warm = p.call("warm", expr, sameorder.report_for, expr, CAP, cache_dir)
        after = os.stat(path)
        p.counts["warm_lookups"] += 1
        # a hit leaves the entry alone; a miss rewrites it through os.replace
        if (before.st_ino, before.st_mtime_ns) == (after.st_ino, after.st_mtime_ns):
            p.counts["warm_hits"] += 1
        done.append((expr, expected, cold, warm, path))
    return lambda: check_reports(p, done, raised)


RUNNERS = {"theorem": run_theorem, "collisions": run_collisions, "reports": run_reports}


# -- the gate ------------------------------------------------------------------------

THEOREM_ORDERS = {
    "PSL(2,5)": 60, "PSL(2,7)": 168, "PSL(2,8)": 504, "PSL(2,9)": 360,
    "PSL(2,17)": 2448, "PSL(3,3)": 5616, "PSU(3,3)": 6048, "PSU(4,2)": 25920,
}
PSL27_TYPE = [1, 21, 42, 48, 56]
RIVALS = {"Dic(2) x F(7,3,2)", "C(7) x SL(2,3)", "cex3"}
# products of standard families found by the bounded hunt: two of the
# paper's three rivals (cex3 is bespoke, so no product search reaches it)
HUNT168_COLLISIONS = ["C(7) x SL(2,3)", "Dic(2) x F(7,3,2)"]
# candidate products of the bounded hunts at this engine version; fewer
# would mean a hunt silently skipped candidates
HUNT_CANDIDATES = {168: 149, 60: 53}
# the known defect of degree >= 257 permutation keys; any other expression
# that raises is dropped work, not a pass that got faster
REPORTS_RAISING = {"C(300)", "Dic(70)"}


def check_theorem(p: Pass, out):
    if out is None:
        p.expect(False, "theorem: theorem_report raised")
        return
    rep, _ = out
    rows = {r["expression"]: r for r in rep["groups"]}
    p.expect(set(rows) == set(THEOREM_ORDERS), f"theorem: groups {sorted(rows)}")
    cards = sorted(r["alpha_cardinality"] for r in rep["groups"])
    p.expect(cards == [4, 5, 5, 5, 7, 7, 7, 7], f"theorem: cardinalities {cards}")
    p.expect(rep["alpha_cardinality_five"] == ["PSL(2,7)", "PSL(2,8)", "PSL(2,9)"],
             f"theorem: five-set {rep['alpha_cardinality_five']}")
    for expr, order in THEOREM_ORDERS.items():
        r = rows.get(expr)
        if r is None:
            continue
        p.expect(r["order"] == order and r["simple"] and len(r["prime_divisors"]) == 3,
                 f"theorem: {expr} order/simple/primes {r['order']} {r['simple']}")
    p.expect(rows.get("PSL(2,7)", {}).get("alpha") == PSL27_TYPE, "theorem: PSL(2,7) type")
    p.expect(rep["verified"] is True, "theorem: not verified")


def check_collisions(p: Pass, cex, h168, h60):
    if cex is None or h168 is None or h60 is None:
        p.expect(False, "collisions: a report raised")
        return
    cex, h168, h60 = cex[0], h168[0], h60[0]
    ref = {r["expression"]: r for r in cex["groups"]}.get("PSL(2,7)", {})
    p.expect(ref.get("alpha") == PSL27_TYPE, f"collisions: PSL(2,7) type {ref.get('alpha')}")
    against = {c["against"] for c in cex["certificates"]}
    p.expect(against == RIVALS and all(c["certificate"]["reason"] for c in cex["certificates"]),
             f"collisions: certificates against {sorted(against)}")
    p.expect(all(r["order"] == 168 and r["alpha_cardinality"] == 5 for r in cex["groups"]),
             "collisions: a row is not order 168 with five sizes")
    for order, h in ((168, h168), (60, h60)):
        p.expect(h["candidates_searched"] == HUNT_CANDIDATES[order],
                 f"collisions: hunt {order} searched {h['candidates_searched']} candidates")
    found = sorted(c["expression"] for c in h168["collisions"])
    p.expect(found == HUNT168_COLLISIONS, f"collisions: hunt 168 found {found}")
    p.expect(h168["simple_alpha"] == PSL27_TYPE, "collisions: hunt 168 reference type")
    p.expect(h60["collisions"] == [], f"collisions: hunt 60 found {h60['collisions']}")


def check_reports(p: Pass, done, raised):
    p.expect(set(raised) == REPORTS_RAISING, f"reports: cold report_for raised on {sorted(raised)}")
    for expr, (order, simple, solvable, center, spectrum), cold, warm, path in done:
        spec = sameorder.Spectrum(counts={int(t): c for t, c in cold["spectrum"].items()},
                                  group_order=cold["order"])
        bad = [name for name, ok, _ in sameorder.spectrum_checks(spec) if not ok]
        p.expect(not bad, f"reports: {expr}: spectrum checks failed {bad}")
        got = (cold["order"], cold["simple"], cold["solvable"], cold["center_order"])
        p.expect(got == (order, simple, solvable, center), f"reports: {expr}: {got}")
        p.expect(spec.counts == dict(spectrum), f"reports: {expr}: spectrum {spec.counts}")
        text = reports.render_json(cold)
        with open(path, encoding="utf-8") as fh:
            stored = fh.read()
        p.expect(warm is not None and reports.render_json(warm) == text == stored,
                 f"reports: {expr}: warm report differs from cold")
    p.expect(p.counts["warm_hits"] == p.counts["warm_lookups"],
             f"reports: {p.counts['warm_hits']} hits of {p.counts['warm_lookups']} warm lookups")
