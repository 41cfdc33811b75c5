import math
import random

import pytest
from oracles import dicyclic_generators, frobenius_generators
from registry import same_group

from sameorder import cli, verify
from sameorder.core import DEFAULT_CAP, Group, spectrum_checks
from sameorder.dsl import (
    FAMILIES,
    MAX_NESTING,
    MAX_SYMMETRIC_DEGREE,
    Atom,
    eval_expr,
    group_for,
    normalize_expr,
    parse_expr,
    print_expr,
)
from sameorder.errors import (
    ArityError,
    CapExceededError,
    DslSyntaxError,
    EngineError,
    InvalidParameterError,
    UnknownFamilyError,
)

CORPUS = [
    "C(1)", "C(2)", "C(7)", "C(12)", "C(60)",
    "D(2)", "D(3)", "D(7)", "D(12)",
    "Dic(2)", "Dic(3)", "Dic(6)",
    "S(3)", "S(4)", "S(5)",
    "A(4)", "A(5)", "A(6)",
    "F(7,3,2)", "F(5,4,2)", "F(13,3,3)", "F(9,2,8)",
    "SL(2,2)", "SL(2,3)", "SL(2,5)", "SL(3,2)", "SL(3,3)",
    "PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(2,8)", "PSL(2,9)",
    "PSL(2,17)", "PSL(3,3)",
    "SU(3,3)", "SU(4,2)", "PSU(3,3)", "PSU(4,2)",
    "cex3",
    "Perm[(1,2)]",
    "Perm[(1,2,3)(4,5), (1,2)]",
    "Perm[(1,2,3,4,5,6,7)]",
    "C(7) x SL(2,3)",
    "Dic(2) x F(7,3,2)",
    "C(2) x C(3) x C(5)",
    "S(3) x A(4)",
    "C(4) x D(5) x Dic(2)",
    "F(7,3,2) x C(2)",
    "cex3 x C(2)",
    "Perm[(1,2)] x C(3)",
]


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("text", CORPUS)
def test_parse_print_round_trip(text):
    ast = parse_expr(text)
    printed = print_expr(ast)
    assert parse_expr(printed) == ast
    # canonical text is a fixed point
    assert print_expr(parse_expr(printed)) == printed


def test_canonical_spacing():
    assert print_expr(parse_expr("  C( 7 )x  SL( 2 , 3 )")) == "C(7) x SL(2,3)"
    assert normalize_expr("PSL( 2,7 )") == "PSL(2,7)"


def test_product_flattening_reassociates():
    flat = parse_expr("C(2) x C(3) x C(5)")
    assert parse_expr("(C(2) x C(3)) x C(5)") == flat
    assert parse_expr("C(2) x (C(3) x C(5))") == flat
    assert eval_expr(flat).order() == 30


def test_parenthesized_atom():
    assert parse_expr("(PSL(2,7))") == parse_expr("PSL(2,7)")


def test_quaternion_sugar():
    assert normalize_expr("Q(8)") == "Dic(2)"
    assert normalize_expr("Q(8) x F(7,3,2)") == "Dic(2) x F(7,3,2)"
    assert group_for("Q(8)").order() == 8
    assert group_for("Q(12)").order() == 12
    with pytest.raises(InvalidParameterError, match="multiple of 4"):
        parse_expr("Q(6)")
    with pytest.raises(InvalidParameterError):
        parse_expr("Q(4)")


def test_cex3_is_a_bare_atom():
    assert parse_expr("cex3") == parse_expr("cex3()")
    assert normalize_expr("cex3()") == "cex3"


def test_syntax_errors_carry_positions():
    with pytest.raises(DslSyntaxError) as exc:
        parse_expr("C(7) x (Q(8)")
    assert exc.value.position == 12
    assert "offset 12" in str(exc.value)

    with pytest.raises(DslSyntaxError) as exc:
        parse_expr("C(3))")
    assert exc.value.position == 4

    with pytest.raises(DslSyntaxError):
        parse_expr("")
    with pytest.raises(DslSyntaxError):
        parse_expr("C(x)")

    # names and integers are ASCII
    for text, position in [("C(²)", 2), ("C(٣)", 2), ("Ĉ(3)", 0)]:
        with pytest.raises(DslSyntaxError, match="unexpected character") as exc:
            parse_expr(text)
        assert exc.value.position == position


def test_nesting_depth_is_bounded():
    """Parentheses nest up to MAX_NESTING levels; the '(' that opens one
    more is a syntax error at its offset, before the recursive descent can
    exhaust the interpreter's stack."""
    assert parse_expr("(" * 50 + "C(2)" + ")" * 50) == Atom("C", (2,))
    assert parse_expr("(" * (MAX_NESTING - 1) + "C(2) x (C(3))" + ")" * (MAX_NESTING - 1)) \
        == parse_expr("C(2) x C(3)")
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(DslSyntaxError, match="MAX_NESTING") as exc:
            parse_expr("(" * depth + "C(2)" + ")" * depth)
        assert exc.value.position == MAX_NESTING
    # sibling groups each start again from the depth they sit at
    side = "(" * MAX_NESTING + "C(2)" + ")" * MAX_NESTING
    assert parse_expr(f"{side} x {side}") == parse_expr("C(2) x C(2)")


def test_symmetric_degree_is_bounded_before_anything_is_built(monkeypatch):
    """S(n) and A(n) past MAX_SYMMETRIC_DEGREE are refused from n before
    Symmetric lists a partition (S(100) has about 1.9e8): as usage errors
    under a cap past their orders, and as over the cap under one below."""
    from sameorder import dsl

    def build(*args, **kwargs):
        raise AssertionError("constructed a symmetric atom past the degree limit")

    huge, top = 10**600, MAX_SYMMETRIC_DEGREE
    assert FAMILIES["S"].order((top,), huge) == math.factorial(top)
    assert FAMILIES["A"].order((top,), huge) == math.factorial(top) // 2
    monkeypatch.setattr(dsl, "Symmetric", build)
    for text in (f"S({top + 1})", f"A({top + 1})", "S(100)", "A(256)", "C(2) x A(300)"):
        with pytest.raises(InvalidParameterError, match="MAX_SYMMETRIC_DEGREE"):
            group_for(text, huge)
        with pytest.raises(CapExceededError):
            group_for(text)


def test_unknown_family():
    with pytest.raises(UnknownFamilyError) as exc:
        parse_expr("X(5)")
    assert exc.value.position == 0


def test_arity_errors():
    with pytest.raises(ArityError, match="takes 1"):
        parse_expr("C(2,3)")
    with pytest.raises(ArityError):
        parse_expr("F(7,3)")
    with pytest.raises(ArityError):
        parse_expr("SL(2)")


def test_perm_atom_points_are_one_indexed():
    with pytest.raises(DslSyntaxError, match="1-indexed"):
        parse_expr("Perm[(0,2)]")
    with pytest.raises(InvalidParameterError, match="repeated"):
        group_for("Perm[(1,1)]")


def test_perm_atom_evaluates_to_its_closure(built):
    g = built("Perm[(1,2,3)(4,5), (1,2)]")
    assert g.order() == 12


def test_eval_expr_orders(built):
    assert built("C(1)").order() == 1
    assert built("C(7) x SL(2,3)").order() == 168
    assert built("S(3) x A(4)").order() == 72


def test_group_name_is_canonical_text(built):
    assert built("C(7) x SL(2,3)").name == "C(7) x SL(2,3)"
    assert group_for("Q(8)").name == "Dic(2)"


def test_mixed_kind_product_order_multiplicative(built):
    g = built("C(7) x SL(2,3)")
    assert [f.order() for f in g.factors] == [7, 24]
    assert g.order() == 7 * 24


def test_integer_parameters_only():
    with pytest.raises(DslSyntaxError):
        parse_expr("C(2.5)")
    with pytest.raises(DslSyntaxError):
        parse_expr("C(-3)")


# a fixed sample of parameters for every FAMILIES entry
FAMILY_SAMPLE = {
    "C": [(1,), (12,)], "D": [(1,), (2,), (7,)], "Dic": [(1,), (3,)],
    "F": [(7, 3, 2), (9, 2, 8)], "S": [(1,), (5,)], "A": [(2,), (6,)],
    "SL": [(2, 4), (3, 2)], "PSL": [(2, 7), (3, 2)], "SU": [(3, 3)], "PSU": [(3, 3)],
    "cex3": [()],
}


def test_family_sample_covers_the_table():
    assert set(FAMILY_SAMPLE) == set(FAMILIES)
    for family, sample in FAMILY_SAMPLE.items():
        assert all(len(ps) == FAMILIES[family].arity for ps in sample), family


@pytest.mark.parametrize("family,params", [(f, ps) for f, sample in FAMILY_SAMPLE.items()
                                           for ps in sample])
def test_family_entry_round_trips_and_orders(built_perm, family, params):
    """An entry's atom prints and parses back, and its order from the
    parameters is the order of its group, enumerated where the engine
    answers it from its parameters (built_perm).  Such a group, one that is
    not a core.Group, is the same group as its walk (registry.same_group)."""
    atom = Atom(family, params)
    text = print_expr(atom)
    assert parse_expr(text) == atom
    assert FAMILIES[family].order(params, DEFAULT_CAP) == built_perm(text).order()
    g = eval_expr(atom)
    if not isinstance(g, Group):
        same_group(g, built_perm(text), type(g), Group)


def _old_cex3_generators() -> list:
    """cex3 as its former builder made it, on points 0-12: the 7-cycle, the
    Klein four-group's two involutions, C3 acting as doubling on 0-6 and as
    the 3-cycle 8 -> 9 -> 10, and the outer involution."""
    fixed = list(range(13))
    return [bytes(images) for images in (
        [1, 2, 3, 4, 5, 6, 0] + fixed[7:],
        fixed[:7] + [8, 7, 10, 9, 11, 12],
        fixed[:7] + [9, 10, 7, 8, 11, 12],
        [0, 2, 4, 6, 1, 3, 5, 7, 9, 10, 8, 11, 12],
        fixed[:11] + [12, 11],
    )]


def test_constant_spellings_match_the_builders():
    """The Perm[...] spellings that stand for cex3 and for the enumerated
    Dic(2) x F(7,3,2) give the former builders' generators, byte for byte."""
    dic, frob = eval_expr(verify.DISPUTED_PERMS).factors
    assert dic.generators == dicyclic_generators(2)
    assert frob.generators == frobenius_generators(7, 3, 2)
    cex3 = group_for("cex3")
    assert cex3.generators == _old_cex3_generators()
    assert cex3.name == "cex3"


# hostile parameters: zero, both sides of the 256-point limit, a prime past
# the cap and the field sizes, and numbers past a machine word
_HOSTILE = (0, 256, 257, 1000003, 2**64 + 1, 10**30)


def _fuzz_text(rng: random.Random) -> str:
    """An expression of one to three atoms, of every family, Q and Perm,
    with small parameters and now and then a hostile one or a wrong count."""
    def n() -> int:
        return rng.choice(_HOSTILE) if rng.random() < 0.15 else rng.randint(0, 9)

    def atom() -> str:
        kind = rng.choice(sorted(FAMILIES) + ["Q", "Perm"])
        if kind == "Perm":
            gens = []
            for _ in range(rng.randint(1, 3)):
                points = rng.sample(range(1, 9), rng.randint(1, 8))
                if rng.random() < 0.1:
                    points.append(rng.choice([points[0], 300]))  # repeated, or past 256
                cut = rng.randint(1, len(points))  # one cycle or two disjoint ones
                gens.append("".join("(" + ",".join(map(str, c)) + ")"
                                    for c in (points[:cut], points[cut:]) if c))
            return "Perm[" + ", ".join(gens) + "]"
        arity = 1 if kind == "Q" else FAMILIES[kind].arity
        params = [n() for _ in range(arity + (rng.random() < 0.05))]
        if kind in ("SL", "PSL", "SU", "PSU") and rng.random() < 0.8:
            params[0] = rng.choice((2, 3, 4))
        return f"{kind}({','.join(map(str, params))})" if params else kind

    return " x ".join(atom() for _ in range(rng.randint(1, 3)))


def test_grammar_fuzz_builds_or_refuses(capsys):
    """300 seeded expressions, hostile parameters among them: each gives a
    group whose spectrum passes spectrum_checks and whose center,
    simplicity, solvability and derived series are computed, or raises an
    EngineError subclass, and nothing else.  The first 20 also go through
    the CLI's alpha in process, under the same cap: each exits 0 where the
    group was built and 1 or 2 where it was refused, with at most one line
    on stderr."""
    rng, cap, built = random.Random(1931), 20000, []
    texts = [_fuzz_text(rng) for _ in range(300)]
    for text in texts:
        try:
            g = group_for(text, cap)
            failed = [name for name, ok, _ in spectrum_checks(g.spectrum()) if not ok]
            assert not failed, (text, failed)
            g.center_order(), g.is_simple(), g.is_solvable(), g.derived_series()
        except EngineError:
            continue
        built.append(text)
    assert 50 <= len(built) <= len(texts) - 50, len(built)
    for text in texts[:20]:
        code = cli.main(["alpha", text, "--max-elements", str(cap)])
        err = capsys.readouterr().err
        assert (code == 0) == (text in built) and code in (0, 1, 2), (text, code, err)
        assert err.count("\n") <= 1, (text, err)
