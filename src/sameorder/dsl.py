"""Group-expression language.

Grammar, whitespace-insensitive:

    expr  := term ('x' term)*
    term  := atom | '(' expr ')'
    atom  := NAME '(' int-list ')' | 'Perm' '[' cycles ']' | 'cex3'

FAMILIES gives each family name its arity, its order from the parameters
and its builder: C, D, Dic, S, A take one integer and F three; SL, PSL, SU,
PSU take (degree, field size); cex3, the fixed order-168 construction, takes
none and is a constant Perm[...] spelling.  Perm lists generators in
1-indexed disjoint-cycle notation, commas separating generators.  Q(n) is
sugar for Dic(n/4).  Products flatten, so reassociation changes nothing.

Names and integers are ASCII ([A-Za-z][A-Za-z0-9]* and [0-9]+); any other
character but whitespace and ( ) [ ] , is a syntax error, and so is a '('
that opens more than MAX_NESTING levels of parentheses.  All parse errors
carry the character offset of the offending token.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from . import perms
from .core import DEFAULT_CAP, DirectProduct, Invariants, Metacyclic, SpecialLinear, Symmetric
from .errors import (
    ArityError,
    CapExceededError,
    DslSyntaxError,
    InvalidParameterError,
    UnknownFamilyError,
)
from .matrices import classical_group, classical_order
from .numtheory import divisors

# the SL(n,q) answered from q (SpecialLinear); other degrees are walked
SL_DEGREES = (2, 3)


# An expression's nodes.  A PermAtom's gens are tuples of cycles of
# 1-indexed points.
Atom = namedtuple("Atom", "family params")
PermAtom = namedtuple("PermAtom", "gens")
Product = namedtuple("Product", "factors")


# -- lexer ----------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<INT>[0-9]+) | (?P<NAME>[A-Za-z][A-Za-z0-9]*)
  | (?P<LP>\() | (?P<RP>\)) | (?P<LB>\[) | (?P<RB>\]) | (?P<COMMA>,)
  | (?P<SPACE>\s+) | (?P<BAD>.)
""", re.VERBOSE)

_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list:
    toks = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "BAD":
            raise DslSyntaxError(f"unexpected character {m.group()!r}", position=m.start())
        if m.lastgroup != "SPACE":
            toks.append(_Token(m.lastgroup, m.group(), m.start()))
    toks.append(_Token("END", "", len(text)))
    return toks


# -- parser ----------------------------------------------------------------------


# parentheses nest at most this deep; each level is two Python frames of the
# recursive descent, so a deeper text would exhaust the interpreter's stack
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            got = repr(t.text) if t.kind != "END" else "end of input"
            raise DslSyntaxError(f"expected {what}, got {got}", position=t.pos)
        return self.take()

    def expression(self):
        factors = [self.term()]
        while self.peek().kind == "NAME" and self.peek().text == "x":
            self.take()
            factors.append(self.term())
        if len(factors) == 1:
            return factors[0]
        flat = []
        for f in factors:
            flat.extend(f.factors if isinstance(f, Product) else [f])
        return Product(tuple(flat))

    def term(self):
        t = self.peek()
        if t.kind == "LP":
            if self.depth == MAX_NESTING:
                raise DslSyntaxError(
                    f"parentheses nest deeper than MAX_NESTING = {MAX_NESTING}", position=t.pos
                )
            self.take()
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            self.expect("RP", "')'")
            return inner
        if t.kind == "NAME" and t.text != "x":
            return self.atom()
        got = repr(t.text) if t.kind != "END" else "end of input"
        raise DslSyntaxError(f"expected a group name or '(', got {got}", position=t.pos)

    def atom(self):
        name = self.take()
        if name.text == "Perm":
            return self.perm_atom(name)
        family = "Dic" if name.text == "Q" else name.text
        if family not in FAMILIES:
            raise UnknownFamilyError(f"unknown family {name.text!r}", position=name.pos)
        arity = FAMILIES[family].arity
        if not arity:
            # parameter-free; a trailing empty () is tolerated
            if self.peek().kind == "LP":
                self.take()
                self.expect("RP", f"')' ({name.text} takes no parameters)")
            return Atom(family, ())
        self.expect("LP", "'('")
        params = [int(self.expect("INT", "an integer").text)]
        while self.peek().kind == "COMMA":
            self.take()
            params.append(int(self.expect("INT", "an integer").text))
        self.expect("RP", "')'")
        if len(params) != arity:
            raise ArityError(
                f"{name.text} takes {arity} parameter(s), got {len(params)}",
                position=name.pos,
            )
        if name.text == "Q":
            m = params[0]
            if m < 8 or m % 4:
                raise InvalidParameterError(
                    f"Q({m}): group order must be a multiple of 4, at least 8"
                )
            return Atom("Dic", (m // 4,))
        return Atom(family, tuple(params))

    def perm_atom(self, name_tok):
        self.expect("LB", "'['")
        gens = []
        while True:
            cycles = [self.cycle()]
            while self.peek().kind == "LP":
                cycles.append(self.cycle())
            gens.append(tuple(cycles))
            if self.peek().kind == "COMMA":
                self.take()
                continue
            self.expect("RB", "']' or ','")
            break
        return PermAtom(tuple(gens))

    def cycle(self):
        self.expect("LP", "'(' starting a cycle")
        pts = [self.point()]
        while self.peek().kind == "COMMA":
            self.take()
            pts.append(self.point())
        self.expect("RP", "')'")
        return tuple(pts)

    def point(self) -> int:
        t = self.expect("INT", "a point number")
        v = int(t.text)
        if v < 1:
            raise DslSyntaxError("points are 1-indexed, so must be >= 1", position=t.pos)
        return v


def parse_expr(text: str):
    p = _Parser(text)
    ast = p.expression()
    t = p.peek()
    if t.kind != "END":
        raise DslSyntaxError(f"unexpected trailing {t.text!r}", position=t.pos)
    return ast


def print_expr(ast) -> str:
    """Canonical text form; parsing it back yields an equal AST."""
    if isinstance(ast, Product):
        return " x ".join(print_expr(f) for f in ast.factors)
    if isinstance(ast, PermAtom):
        gens = []
        for cycles in ast.gens:
            gens.append("".join("(" + ",".join(map(str, c)) + ")" for c in cycles))
        return "Perm[" + ", ".join(gens) + "]"
    if not ast.params:
        return ast.family
    return f"{ast.family}({','.join(map(str, ast.params))})"


def normalize_expr(text: str) -> str:
    return print_expr(parse_expr(text))


# -- families ----------------------------------------------------------------------
# FAMILIES maps a name to its arity, order(params, cap) and build(params, cap,
# name).  order validates the parameters and allocates nothing; build runs
# once eval_expr has checked every atom's order against cap.  C, D, Dic, F, S
# and A are answered from their parameters (Metacyclic, Symmetric), but their
# build first refuses, from the parameters, an atom whose permutation builder
# (tests/oracles.py) would act on more than MAX_DEGREE points.

Family = namedtuple("Family", "arity order build")


def _positive(family: str, n: int) -> int:
    if n < 1:
        raise InvalidParameterError(f"{family}({n}): parameter must be >= 1")
    return n


# the largest n for which S(n) and A(n) are answered: Symmetric lists every
# partition of n, and a report's spectrum checks grow faster still.  Through
# the CLI on a 2-vCPU Xeon VM, S(38) and A(38) report in about 1.1 s and
# S(50) in 28 s; S(100) has about 1.9e8 partitions.
MAX_SYMMETRIC_DEGREE = 38


def _symmetric_order(family: str, n: int, cap: int, start: int) -> int:
    """start * (start + 1) * ... * n, S(n)'s order from start 2 and A(n)'s
    from 3, stopping once past cap: exact up to cap and only known to exceed
    it beyond.  An n past MAX_SYMMETRIC_DEGREE is refused unless the first
    factors up to MAX_SYMMETRIC_DEGREE + 1 already pass cap, so no more are
    ever multiplied."""
    order = 1
    for i in range(start, min(_positive(family, n), MAX_SYMMETRIC_DEGREE + 1) + 1):
        order *= i
        if order > cap:
            return order
    if n > MAX_SYMMETRIC_DEGREE:
        raise InvalidParameterError(
            f"{family}({n}): degree exceeds MAX_SYMMETRIC_DEGREE = {MAX_SYMMETRIC_DEGREE}"
        )
    return order


def _check_frobenius(m: int, n: int, k: int, cap: int):
    """Raise unless F(m,n,k), Z_m extended by C_n acting as x -> k*x, is
    defined: k must have multiplicative order exactly n mod m.

    The cheap conditions come first.  Whether k's order is exactly n is
    asked only when m*n <= cap, from the divisors of n, so a modulus is
    never factored: a larger group is past the cap and is never built.
    """
    if m < 2:
        raise InvalidParameterError(f"F({m},{n},{k}): modulus must be >= 2")
    if n < 1 or k < 0:
        raise InvalidParameterError(f"F({m},{n},{k}): parameters out of range")
    kk = k % m
    if math.gcd(kk, m) != 1:
        raise InvalidParameterError(
            f"F({m},{n},{k}): gcd({k},{m}) = {math.gcd(kk, m)}, multiplier must be a unit"
        )
    if pow(kk, n, m) != 1:
        raise InvalidParameterError(
            f"F({m},{n},{k}): {k}^{n} = {pow(kk, n, m)} (mod {m}), need 1"
        )
    if m * n > cap:
        return
    d = next(e for e in divisors(n) if pow(kk, e, m) == 1)
    if d != n:
        raise InvalidParameterError(
            f"F({m},{n},{k}): {k} has multiplicative order {d} (mod {m}), need exactly {n}"
        )


def _frobenius_order(params, cap):
    _check_frobenius(*params, cap)
    return params[0] * params[1]


def _answered(points, make):
    """build(params, cap, name): make(*params, name), once the points(*params)
    that the family's permutation builder acts on pass check_degree."""
    def build(params, cap, name):
        perms.check_degree(points(*params))  # before anything is constructed
        return make(*params, name)
    return build


def _classical(family: str) -> Family:
    """(degree, q), validated by classical_order.  SL(2,q) and SL(3,q) are
    answered from q; the others are walked as matrix groups."""
    def build(params, cap, name):
        if family == "SL" and params[0] in SL_DEGREES:
            return SpecialLinear(*params, name=name)
        return classical_group(family, *params, cap=cap)  # named as print_expr names it
    return Family(2, lambda params, cap: classical_order(family, *params), build)


def _permutations(ast: PermAtom, cap: int, name: str):
    degree = _perm_degree(ast)
    gens = [perms.perm_from_cycles([tuple(p - 1 for p in c) for c in cycles], degree)
            for cycles in ast.gens]
    return perms.permutation_group(gens, name=name, cap=cap)


# cex3 = C2 x ((C14 x C2) : C3), with C14 x C2 = C7 x (C2 x C2) and the C3
# acting diagonally: as squaring on the C7 (points 1-7) and as the 3-cycle on
# the involutions of the Klein four-group (points 8-11, its regular action).
# Points 12-13 carry the outer C2.  Letting C3 act on one factor only gives
# the type a sixth size.
CEX3 = parse_expr("Perm[(1,2,3,4,5,6,7), (8,9)(10,11), (8,10)(9,11), "
                  "(2,3,5)(4,7,6)(9,10,11), (12,13)]")

FAMILIES = {
    "C": Family(1, lambda p, cap: _positive("C", *p),
                _answered(lambda n: n, lambda n, name: Metacyclic(n, 1, 1, name=name))),
    # D(1) is C2 and D(2) is C2 x C2 (-1 = 1 mod 1 and mod 2), on 2n points
    "D": Family(1, lambda p, cap: 2 * _positive("D", *p), _answered(
        lambda n: 2 * n if n <= 2 else n,
        lambda n, name: Metacyclic(*((n, 2, n - 1) if n >= 3 else (2, n, 1)), name=name))),
    "Dic": Family(1, lambda p, cap: 4 * _positive("Dic", *p), _answered(
        lambda n: 4 * n, lambda n, name: Metacyclic(2 * n, 2, 2 * n - 1, n, name=name))),
    "F": Family(3, _frobenius_order, _answered(
        lambda m, n, k: m, lambda m, n, k, name: Metacyclic(m, n, k, name=name))),
    "S": Family(1, lambda p, cap: _symmetric_order("S", *p, cap, 2),
                _answered(lambda n: n, lambda n, name: Symmetric(n, name=name))),
    "A": Family(1, lambda p, cap: _symmetric_order("A", *p, cap, 3), _answered(
        lambda n: n, lambda n, name: Symmetric(n, alternating=True, name=name))),
    "SL": _classical("SL"),
    "PSL": _classical("PSL"),
    "SU": _classical("SU"),
    "PSU": _classical("PSU"),
    "cex3": Family(0, lambda p, cap: 168, lambda p, cap, name: _permutations(CEX3, cap, name)),
}


# -- evaluation --------------------------------------------------------------------


def _perm_degree(ast: PermAtom) -> int:
    return max(p for cycles in ast.gens for c in cycles for p in c)


def _atom_order(ast, cap: int) -> int:
    """An atom's order from its validated parameters, building nothing.

    A Perm[...] atom counts as 1: only its closure knows its order, and the
    closure checks the cap itself.  Its degree, the largest point it names,
    is checked here.
    """
    if isinstance(ast, PermAtom):
        perms.check_degree(_perm_degree(ast))
        return 1
    return FAMILIES[ast.family].order(ast.params, cap)


def _eval_atom(ast, cap: int) -> Invariants:
    """The group of one atom, whose parameters and order eval_expr has
    checked: a Perm[...] atom's permutation group, or its family's build."""
    name = print_expr(ast)
    if isinstance(ast, PermAtom):
        return _permutations(ast, cap, name)
    return FAMILIES[ast.family].build(ast.params, cap, name)


def factors_of(ast) -> tuple:
    """The atoms of an expression: a product's factors, or the atom itself."""
    return ast.factors if isinstance(ast, Product) else (ast,)


def eval_expr(ast, cap: int = DEFAULT_CAP) -> Invariants:
    """Build the group an expression denotes.

    Every atom's parameters are validated and the product of the atoms'
    orders is checked against cap before anything is built.  A product
    becomes a DirectProduct of its atoms, so only the atoms are enumerated,
    and C, D, Dic, F, S, A, SL(2,q) and SL(3,q) atoms are not enumerated
    either (Metacyclic, Symmetric, SpecialLinear): only PSL, PSU, SU,
    SL(4,q), cex3 and Perm[...] atoms are.
    """
    factors = factors_of(ast)
    if math.prod(_atom_order(f, cap) for f in factors) > cap:
        raise CapExceededError(cap)
    groups = [_eval_atom(f, cap) for f in factors]
    if len(groups) == 1:
        return groups[0]
    return DirectProduct(groups, name=print_expr(ast), cap=cap)


def group_for(text: str, cap: int = DEFAULT_CAP) -> Invariants:
    return eval_expr(parse_expr(text), cap)
