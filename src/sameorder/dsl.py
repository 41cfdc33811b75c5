"""Group-expression language.

Grammar, whitespace-insensitive:

    expr  := term ('x' term)*
    term  := atom | '(' expr ')'
    atom  := NAME '(' int-list ')' | 'Perm' '[' cycles ']' | 'cex3'

Families: C, D, Dic, Q, S, A, F take integers; SL, PSL, SU, PSU take
(degree, field size); Perm lists explicit generators in 1-indexed
disjoint-cycle notation, commas separating generators; cex3 is the fixed
order-168 construction and takes no parameters.  Q(n) is sugar for
Dic(n/4).  Products flatten, so reassociation changes nothing.

Names and integers are ASCII ([A-Za-z][A-Za-z0-9]* and [0-9]+); any other
character but whitespace and ( ) [ ] , is a syntax error.  All parse errors
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

ARITY = {
    "C": 1, "D": 1, "Dic": 1, "Q": 1, "S": 1, "A": 1, "F": 3,
    "SL": 2, "PSL": 2, "SU": 2, "PSU": 2, "cex3": 0,
}

# the families answered from their parameters, never enumerated (SL(n,q) is
# too, for n in SL_DEGREES)
METACYCLIC = ("C", "D", "Dic", "F")
SYMMETRIC = ("S", "A")
SL_DEGREES = (2, 3)
# the families classical_order validates; all but SL(2,q) and SL(3,q) are
# built as matrix groups, and perms validates the others
CLASSICAL = ("SL", "PSL", "SU", "PSU")


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


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

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
            self.take()
            inner = self.expression()
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
        if name.text not in ARITY:
            raise UnknownFamilyError(f"unknown family {name.text!r}", position=name.pos)
        if name.text == "cex3":
            # parameter-free; a trailing empty () is tolerated
            if self.peek().kind == "LP":
                self.take()
                self.expect("RP", "')' (cex3 takes no parameters)")
            return Atom("cex3", ())
        self.expect("LP", "'('")
        params = [int(self.expect("INT", "an integer").text)]
        while self.peek().kind == "COMMA":
            self.take()
            params.append(int(self.expect("INT", "an integer").text))
        self.expect("RP", "')'")
        arity = ARITY[name.text]
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
        return Atom(name.text, tuple(params))

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
    if ast.family == "cex3":
        return "cex3"
    return f"{ast.family}({','.join(map(str, ast.params))})"


def normalize_expr(text: str) -> str:
    return print_expr(parse_expr(text))


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
    if ast.family in CLASSICAL:
        return classical_order(ast.family, *ast.params)
    return perms.family_order(ast.family, ast.params, cap)


def _metacyclic(family: str, params) -> tuple:
    """The (m, n, k[, s]) that Metacyclic takes for a C, D, Dic or F atom."""
    if family == "F":
        return params
    (n,) = params
    if family == "C":
        return n, 1, 1
    if family == "Dic":
        return 2 * n, 2, 2 * n - 1, n
    # D(1) is C2 and D(2) is C2 x C2: -1 = 1 mod 1 and mod 2
    return (n, 2, n - 1) if n >= 3 else (2, n, 1)


def _eval_atom(ast, cap: int) -> Invariants:
    """The group of one atom, whose parameters and order eval_expr has
    checked.  SL(2,q) and SL(3,q) are answered from q (SpecialLinear).  The
    other classical atoms, PSL, PSU, SU and SL(4,q), are walked as matrix
    groups.  A family atom's point count is checked next, so C, D, Dic, F, S
    and A atoms on more than MAX_DEGREE points are refused as the other
    families are; those six are then answered from their parameters
    (Metacyclic, Symmetric), and only cex3 and Perm[...] atoms are built
    from permutations."""
    name = print_expr(ast)
    if isinstance(ast, PermAtom):
        degree = _perm_degree(ast)
        gens = [
            perms.perm_from_cycles([tuple(p - 1 for p in c) for c in cycles], degree)
            for cycles in ast.gens
        ]
    elif ast.family == "SL" and ast.params[0] in SL_DEGREES:
        return SpecialLinear(*ast.params, name=name)
    elif ast.family in CLASSICAL:
        return classical_group(ast.family, *ast.params, cap=cap)  # named as print_expr names it
    else:
        perms.check_degree(perms.family_degree(ast.family, ast.params))  # before any allocation
        if ast.family in METACYCLIC:
            return Metacyclic(*_metacyclic(ast.family, ast.params), name=name)
        if ast.family in SYMMETRIC:
            return Symmetric(*ast.params, alternating=ast.family == "A", name=name)
        gens = perms.FAMILY_BUILDERS[ast.family](*ast.params)
    return perms.permutation_group(gens, name=name, cap=cap)


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
