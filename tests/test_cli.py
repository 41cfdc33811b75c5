import json

import pytest

from sameorder.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha_text(capsys):
    code, out, err = run(capsys, "alpha", "PSL(2,7)")
    assert code == 0
    assert out == "alpha(PSL(2,7)) = {1, 21, 42, 48, 56}  cardinality 5\n"


def test_alpha_normalizes_sugar(capsys):
    code, out, _ = run(capsys, "alpha", "Q(8) x F(7,3,2)")
    assert code == 0
    assert "alpha(Dic(2) x F(7,3,2))" in out


def test_alpha_json(capsys):
    code, out, _ = run(capsys, "alpha", "A(5)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"expression": "A(5)", "order": 60,
                   "alpha": [1, 15, 20, 24], "alpha_cardinality": 4}


def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "Dic(2)")
    assert code == 0
    assert "Dic(2): order 8" in out
    assert "  elements of order 4: 6" in out
    assert "center order 2" in out


def test_spectrum_json_is_full_report(capsys):
    code, out, _ = run(capsys, "spectrum", "F(7,3,2)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spectrum"] == {"1": 1, "3": 14, "7": 6}
    assert doc["engine_version"]
    assert doc["solvable"] is True


def test_invariants_pass(capsys):
    code, out, _ = run(capsys, "invariants", "PSL(2,9)")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert lines and all(ln.lstrip().startswith("PASS") for ln in lines)


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "S(4)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_verify_counterexample_text(capsys):
    code, out, _ = run(capsys, "verify", "counterexample")
    assert code == 0
    assert "verified" in out
    assert "claimed 8, enumerated 1" in out
    assert "claimed 56, enumerated 6" in out


def test_verify_counterexample_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "counterexample", "--json")
    code2, out2, _ = run(capsys, "verify", "counterexample", "--json", "--threads", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verified"] is True


def test_verify_theorem_text(capsys):
    code, out, _ = run(capsys, "verify", "theorem")
    assert code == 0
    assert "verified" in out
    assert "PSL(2,8)" in out


def test_hunt_text(capsys):
    code, out, _ = run(capsys, "hunt", "--order", "168", "--max-factors", "2")
    assert code == 0
    assert "collision: C(7) x SL(2,3)" in out
    assert "collision: Dic(2) x F(7,3,2)" in out


def test_hunt_json(capsys):
    code, out, _ = run(capsys, "hunt", "--order", "60", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["collisions"] == []


def test_hunt_no_catalog_group(capsys):
    code, out, _ = run(capsys, "hunt", "--order", "7")
    assert code == 0
    assert "no simple catalog group of order 7" in out


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "alpha", "C(7) x (Q(8)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "offset 12" in err
    # a non-ASCII digit is not an integer of the language
    code, out, err = run(capsys, "alpha", "C(²)")
    assert (code, out, err) == (2, "", "error: unexpected character '²' (at offset 2)\n")


def test_invalid_parameter_exits_2(capsys):
    code, _, err = run(capsys, "alpha", "F(7,3,3)")
    assert code == 2
    assert "need 1" in err


def test_cap_exceeded_exits_1(capsys):
    code, _, err = run(capsys, "spectrum", "S(5)", "--max-elements", "100")
    assert code == 1
    assert err.startswith("failed:")


def test_hunt_reference_over_the_cap_exits_1(capsys):
    """The hunt's reference, answered from q, is still held to the cap."""
    code, out, err = run(capsys, "hunt", "--order", "168", "--max-factors", "2",
                         "--max-elements", "100")
    assert (code, out, err) == (1, "", "failed: group order exceeds the cap of 100 elements\n")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    # each subcommand takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "S(4)", "--threads", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["hunt", "--order", "60", "--cache-dir", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["alpha", "A(5)", "--max-elements", "0"],
    ["spectrum", "A(5)", "--max-elements", "-3"],
    ["hunt", "--order", "60", "--max-factors", "0"],
    ["hunt", "--order", "-5"],
    ["verify", "counterexample", "--threads", "0"],
    ["alpha", "A(5)", "--max-elements", "ten"],
    # only ASCII digits count: Arabic-Indic 60 and 2, a superscript 2
    ["hunt", "--order", "\u0666\u0660", "--max-factors", "\u0662"],
    ["alpha", "A(5)", "--max-elements", "\u00b2"],
])
def test_counts_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr", ["SU(3,2)", "PSU(3,2)"])
def test_unitary_3_2_is_a_usage_error(capsys, expr):
    code, out, err = run(capsys, "spectrum", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "order 54" in err


def test_cache_dir_round_trip(tmp_path, capsys):
    code1, out1, _ = run(capsys, "spectrum", "PSL(2,5)", "--json",
                         "--cache-dir", str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    code2, out2, _ = run(capsys, "spectrum", "PSL(2,5)", "--json",
                         "--cache-dir", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2


def test_corrupt_cache_warns_and_recovers(tmp_path, capsys):
    run(capsys, "alpha", "C(6)", "--cache-dir", str(tmp_path))
    entry = next(tmp_path.iterdir())
    entry.write_text("{broken")
    code, out, err = run(capsys, "alpha", "C(6)", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "corrupt" in err
    assert "alpha(C(6))" in out


def test_field_above_table_limit_exits_2_without_enumerating(capsys, monkeypatch):
    from sameorder.core import Group

    def no_enumeration(self):
        raise AssertionError("enumerated a group")

    monkeypatch.setattr(Group, "_walked", no_enumeration)
    code, out, err = run(capsys, "alpha", "PSL(2,521)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "MAX_FIELD_SIZE = 512" in err


@pytest.mark.parametrize("expr, code, message", [
    ("SL(2,1000000000000000003)", 2, "MAX_FIELD_SIZE = 512"),
    ("PSU(3,1000000000000000003)", 2, "MAX_FIELD_SIZE = 512"),
    # F's cheap conditions hold and F has more elements than the cap, so
    # whether 1 has order exactly 1 is never asked
    ("F(1000000000000000003,1,1)", 1, "exceeds the cap"),
])
def test_huge_parameters_are_refused_before_factoring(capsys, monkeypatch, expr, code, message):
    from sameorder import numtheory

    factorize = numtheory.factorize

    def small_only(n):
        # trial division of a number this size would not end
        assert n < 10**12, f"factorized {n}"
        return factorize(n)

    monkeypatch.setattr(numtheory, "factorize", small_only)
    got, out, err = run(capsys, "alpha", expr)
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and message in err


def test_permutation_degree_limit_exits_2(capsys, monkeypatch):
    from sameorder import dsl, group_for

    # 256 points is the widest a permutation's one-byte-per-image key holds
    assert group_for("Perm[(1,256)]").order() == 2
    assert group_for("C(256)").order() == 256
    code, out, err = run(capsys, "alpha", "C(300)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at most 256 points" in err

    def build(*args):
        raise AssertionError("built an atom past the degree limit")

    # a Perm[...] atom is rejected from its points, before anything is built
    monkeypatch.setattr(dsl, "_eval_atom", build)
    code, out, err = run(capsys, "alpha", "Perm[(1,3000000)]", "--max-elements", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at most 256 points" in err


@pytest.mark.parametrize("expr,cap", [("C(1000000)", "2000000"),
                                      ("F(1000003,2,1000002)", "3000000")])
def test_family_degree_limit_exits_2_before_building(capsys, monkeypatch, expr, cap):
    """A family atom under the cap given but over 256 points is refused from
    its parameters, before its group is constructed."""
    from sameorder import dsl

    def build(*args, **kwargs):
        raise AssertionError("constructed a family atom past the degree limit")

    monkeypatch.setattr(dsl, "Metacyclic", build)
    code, out, err = run(capsys, "alpha", expr, "--max-elements", cap)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at most 256 points" in err


@pytest.mark.parametrize("expr", ["S(100)", "A(256)", pytest.param(
    "(" * 3000 + "C(2)" + ")" * 3000, id="3000-nested")])
def test_hostile_sizes_exit_2_in_one_line(capsys, expr):
    """S(100) and A(256) under a cap past their orders, whose partitions
    would not be listed in a lifetime, and 3000 nested parentheses, which
    would exhaust the interpreter's stack, are usage errors."""
    code, out, err = run(capsys, "alpha", expr, "--max-elements", str(10**600))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_matrix_key_width_limit_exits_2(capsys, monkeypatch):
    from sameorder import matrices

    def build(*args):
        raise AssertionError("built generators past the key-width limit")

    # SU(3,13) is under the cap given, but a 3x3 matrix over GF(169) needs a
    # 72-bit key; it is rejected before su_generators walks GF(169)^3
    monkeypatch.setattr(matrices, "su_generators", build)
    code, out, err = run(capsys, "alpha", "SU(3,13)", "--max-elements", "1000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at most 64 bits" in err


def test_report_spectrum_breaking_a_law_exits_1(capsys, monkeypatch):
    from sameorder.core import Spectrum, Symmetric

    # phi(3) = 2 does not divide s_3 = 3: no group has this spectrum
    monkeypatch.setattr(Symmetric, "spectrum",
                        lambda self: Spectrum(counts={1: 1, 2: 2, 3: 3}, group_order=6))
    code, out, err = run(capsys, "alpha", "S(3)")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "S(3): spectrum check failed: phi(t) divides s_t for every order t" in err


def test_unexpected_exception_is_one_line_failure(capsys, monkeypatch):
    import sameorder.cli as cli

    def broken(*args):
        raise RuntimeError("engine fault\nsecond line")

    monkeypatch.setattr(cli, "report_for", broken)
    code, out, err = run(capsys, "alpha", "C(5)")
    assert code == 1
    assert out == ""
    assert err == "failed: RuntimeError: engine fault second line\n"
