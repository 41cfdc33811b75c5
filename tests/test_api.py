"""The package's outward surface: its public names, the engine hooks the
benchmark's tracer wraps, the test oracles' independence from it, and which
commands import numpy."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sameorder
from sameorder import core, dsl, reports, report_for

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _fresh_python(code: str, *argv: str) -> bytes:
    """stdout of code run by a new interpreter that finds this sameorder
    first: the test process has numpy loaded already."""
    src = str(Path(sameorder.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


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


_NUMPY_ON_FIRST_WALK = """
import io, sys
from contextlib import redirect_stdout

def numpy_loaded():
    return [m for m in sys.modules if m.split(".")[0] == "numpy"]

import sameorder.cli
assert not numpy_loaded(), numpy_loaded()
for argv in (["spectrum", "S(8)"], ["alpha", "C(12) x D(5)"], ["spectrum", "SL(2,97)"],
             ["spectrum", "Dic(2) x F(7,3,2)"]):
    with redirect_stdout(io.StringIO()):
        assert sameorder.cli.main(argv) == 0, argv
    assert not numpy_loaded(), (argv, numpy_loaded())
assert sameorder.cli.main(["spectrum", "PSL(2,7)", "--json"]) == 0
assert "numpy" in sys.modules
"""


def test_answered_commands_import_no_numpy():
    """Importing the CLI and answering atoms from their parameters loads
    no numpy module; the first walk, PSL(2,7)'s, loads it in the same
    process and gives the golden report."""
    out = _fresh_python(_NUMPY_ON_FIRST_WALK)
    assert out == (GOLDEN / "report_PSL_2_7.json").read_bytes()


_NUMPY_IN_A_POOL_THREAD = """
import sys, threading

in_main_thread = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            in_main_thread.append(threading.current_thread() is threading.main_thread())

sys.meta_path.insert(0, Spy())
import sameorder.cli
assert sameorder.cli.main(sys.argv[2:]) == 0
assert in_main_thread and (sys.argv[1] == "any" or not in_main_thread[0]), in_main_thread
"""


@pytest.mark.parametrize("argv, golden, importer", [
    ("verify theorem", "theorem", "pool"),
    # the hunt walks its reference PSL(2,7) before the pool starts
    ("hunt --order 168 --max-factors 3", "hunt_168_3", "any"),
], ids=["theorem", "hunt_168_3"])
def test_numpy_first_imported_in_a_pool_thread(argv, golden, importer):
    """Four pool threads building the theorem's groups at once import numpy
    for the first time under the import lock; both threaded claim reports
    are the goldens' bytes."""
    out = _fresh_python(_NUMPY_IN_A_POOL_THREAD, importer, *argv.split(),
                        "--threads", "4", "--json")
    assert out == (GOLDEN / f"{golden}.json").read_bytes()
