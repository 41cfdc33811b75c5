"""The package's outward surface: its public names, the engine hooks the
benchmark's tracer wraps, and the test oracles' independence from it."""

import ast
import importlib.util
from pathlib import Path

import sameorder
from sameorder import core, dsl, reports, report_for

ROOT = Path(__file__).resolve().parent.parent


def test_public_api_is_pinned():
    assert sameorder.__all__ == [
        "CapExceededError", "DEFAULT_CAP", "DirectProduct", "DslError", "ENGINE_VERSION",
        "EngineError", "FiniteField", "Group", "InvalidParameterError", "MatrixGroup",
        "NonIsoCertificate", "NoWitnessError", "OrderMismatchError", "PermutationGroup",
        "Spectrum", "VerificationError", "build_report", "classical_group", "classical_order",
        "counterexample_report", "eval_expr", "group_for", "hunt_report", "noniso_certificate",
        "normalize_expr", "parse_expr", "permutation_group", "print_expr", "report_for",
        "spectrum_checks", "spectrum_direct_product", "theorem_report",
    ]
    for name in sameorder.__all__:
        assert getattr(sameorder, name) is not None, name


def test_oracles_import_nothing_from_the_engine():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported if m.split(".")[0] == "sameorder"]


def test_benchmark_tracer_hooks_exist():
    """The tracer wraps engine names by attribute; one deleted fails here,
    and a traced report is counted through the wrappers.  Uninstalling
    puts every original back."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    originals = (core.Group.order, core.Group.element_orders, dsl.normalize_expr,
                 reports.cache_load)
    tracer = tracer_mod.Tracer("t")
    tracer.install()
    try:
        report_for("PSL(2,7)", sameorder.DEFAULT_CAP)
    finally:
        tracer.uninstall()
    assert (core.Group.order, core.Group.element_orders, dsl.normalize_expr,
            reports.cache_load) == originals
    assert tracer.counts["matrices.gens_kept"] > 0 and tracer.counts["dsl.parses"] > 0
    layers = set(tracer.self_times())
    assert {"dsl.parse", "matrices.build", "core.classes", "reports.build"} <= layers
