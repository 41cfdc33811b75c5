import pytest

from sameorder.dsl import (
    eval_expr,
    group_for,
    normalize_expr,
    parse_expr,
    print_expr,
)
from sameorder.errors import (
    ArityError,
    DslSyntaxError,
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
