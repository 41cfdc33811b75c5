import hashlib
import json
import os

import pytest

from sameorder.reports import (
    ENGINE_VERSION,
    build_report,
    cache_load,
    cache_path,
    cache_store,
    render_json,
    report_for,
    report_is_consistent,
)

KEY_ORDER = ["expression", "order", "spectrum", "alpha", "alpha_cardinality",
             "simple", "solvable", "center_order", "engine_version"]


def test_report_shape_and_key_order(built):
    rep = build_report("PSL(2,7)", built("PSL(2,7)"))
    assert list(rep) == KEY_ORDER
    assert rep["expression"] == "PSL(2,7)"
    assert rep["order"] == 168
    assert rep["spectrum"] == {"1": 1, "2": 21, "3": 56, "4": 42, "7": 48}
    assert rep["alpha"] == [1, 21, 42, 48, 56]
    assert rep["alpha_cardinality"] == 5
    assert rep["simple"] is True
    assert rep["solvable"] is False
    assert rep["center_order"] == 1
    assert rep["engine_version"] == ENGINE_VERSION


def test_spectrum_keys_sorted_numerically(built):
    rep = build_report("C(12)", built("C(12)"))
    assert list(rep["spectrum"]) == ["1", "2", "3", "4", "6", "12"]


def test_render_json_is_stable():
    text = render_json({"a": 1, "b": [1, 2]})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": [1, 2]}
    assert text == render_json({"a": 1, "b": [1, 2]})


def test_report_consistency_check(built):
    rep = build_report("A(5)", built("A(5)"))
    assert report_is_consistent(rep)
    broken = dict(rep, order=61)
    assert not report_is_consistent(broken)
    broken = dict(rep, alpha=[1, 2, 3])
    assert not report_is_consistent(broken)


def test_cache_filename_is_digest_of_normalized_text(tmp_path):
    path = cache_path(str(tmp_path), "PSL(2,7)")
    digest = hashlib.sha256(b"PSL(2,7)").hexdigest()
    assert os.path.basename(path) == digest + ".json"


def test_cache_round_trip(tmp_path, built):
    rep = build_report("Dic(2)", built("Dic(2)"))
    cache_store(str(tmp_path), "Dic(2)", rep)
    loaded = cache_load(str(tmp_path), "Dic(2)")
    assert loaded == rep
    assert render_json(loaded) == render_json(rep)


def test_cache_miss_returns_none(tmp_path):
    assert cache_load(str(tmp_path), "C(5)") is None


def test_corrupt_cache_recovers(tmp_path, capsys):
    path = cache_path(str(tmp_path), "C(6)")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    for payload in (b"{not json", b"\xff\xfe"):  # not JSON, not UTF-8
        with open(path, "wb") as fh:
            fh.write(payload)
        assert cache_load(str(tmp_path), "C(6)") is None
        assert "corrupt" in capsys.readouterr().err

        rep = report_for("C(6)", 10_000, str(tmp_path))
        assert rep["order"] == 6
        # the bad file was replaced with a loadable one
        assert cache_load(str(tmp_path), "C(6)") == rep


def test_cache_rejects_mismatched_expression(tmp_path, built, capsys):
    rep = build_report("C(4)", built("C(4)"))
    cache_store(str(tmp_path), "C(4)", rep)
    # same file, wrong content for the key under a different expression
    path_other = cache_path(str(tmp_path), "C(8)")
    with open(cache_path(str(tmp_path), "C(4)")) as fh:
        payload = fh.read()
    with open(path_other, "w") as fh:
        fh.write(payload)
    assert cache_load(str(tmp_path), "C(8)") is None
    assert "corrupt" in capsys.readouterr().err


def test_report_for_normalizes_before_caching(tmp_path):
    rep1 = report_for("Q(8)", 10_000, str(tmp_path))
    assert rep1["expression"] == "Dic(2)"
    # the sugar form and the canonical form share one cache entry
    assert os.path.exists(cache_path(str(tmp_path), "Dic(2)"))
    rep2 = report_for("Dic(2)", 10_000, str(tmp_path))
    assert rep2 == rep1
    assert len(os.listdir(tmp_path)) == 1


def test_cached_and_cold_reports_agree(tmp_path):
    cold = report_for("F(7,3,2)", 10_000)
    warm1 = report_for("F(7,3,2)", 10_000, str(tmp_path))
    warm2 = report_for("F(7,3,2)", 10_000, str(tmp_path))
    assert cold == warm1 == warm2


def test_stale_engine_version_is_recomputed(tmp_path, built, capsys):
    rep = build_report("C(6)", built("C(6)"))
    cache_store(str(tmp_path), "C(6)", dict(rep, engine_version="0.0.0"))
    assert cache_load(str(tmp_path), "C(6)") is None
    assert "stale cache entry" in capsys.readouterr().err

    assert report_for("C(6)", 10_000, str(tmp_path)) == rep
    assert "stale" in capsys.readouterr().err
    # the stale entry was overwritten by the current engine's report
    assert cache_load(str(tmp_path), "C(6)") == rep
    assert capsys.readouterr().err == ""


MISTYPED = {
    "float order": lambda rep: dict(rep, order=6.0),
    "bool center order": lambda rep: dict(rep, center_order=True),
    "string count": lambda rep: dict(rep, spectrum=dict(rep["spectrum"], **{"2": "1"})),
    "reversed spectrum": lambda rep: dict(rep, spectrum=dict(reversed(rep["spectrum"].items()))),
    "extra key": lambda rep: dict(rep, extra=1),
}


@pytest.mark.parametrize("mutate", MISTYPED.values(), ids=list(MISTYPED))
def test_mistyped_cache_entry_is_recomputed(tmp_path, capsys, mutate):
    """An entry that is not the bytes build_report writes is corrupt, though
    Python's == would take it for the report: served, it would make the
    output differ from a cold run."""
    cold = render_json(report_for("C(6)", 10_000))
    cache_store(str(tmp_path), "C(6)", mutate(json.loads(cold)))
    assert render_json(report_for("C(6)", 10_000, str(tmp_path))) == cold
    assert capsys.readouterr().err.count("corrupt") == 1
    with open(cache_path(str(tmp_path), "C(6)")) as fh:
        assert fh.read() == cold
