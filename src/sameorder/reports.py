"""Spectrum reports and the on-disk report cache.

A report is a plain dict laid out by _report alone, in a fixed key order, so
serialization is stable enough for golden files and byte-identical cache
round-trips.  The cache is a pure memo: one JSON document per normalized
expression, filename the SHA-256 hex digest of the expression text.  A
missing entry is recomputed silently; a corrupt one (unreadable, or not the
bytes _report lays out from its own values: a mistyped value, an extra key,
keys out of order), or one written by another engine version, is recomputed
with a warning and overwritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from itertools import count

from .core import spectrum_checks
from .errors import VerificationError

ENGINE_VERSION = "0.1.0"
_STORES = count()  # numbers the stores of this process, for their temp names


def _report(expression, counts: dict, simple, solvable, center_order, engine_version) -> dict:
    """The report's one layout.  counts maps element order to count, ascending;
    the order is their sum, the group's order once spectrum_checks passed."""
    alpha = sorted(set(counts.values()))
    return {
        "expression": expression,
        "order": sum(counts.values()),
        "spectrum": {str(t): c for t, c in counts.items()},
        "alpha": alpha,
        "alpha_cardinality": len(alpha),
        "simple": simple,
        "solvable": solvable,
        "center_order": center_order,
        "engine_version": engine_version,
    }


def build_report(expression: str, group) -> dict:
    """The report of a built group.

    Its spectrum must pass every structural law of spectrum_checks; the
    first one it breaks raises VerificationError.
    """
    spec = group.spectrum()
    for name, ok, detail in spectrum_checks(spec):
        if not ok:
            raise VerificationError(f"{expression}: spectrum check failed: {name} ({detail})")
    return _report(expression, spec.counts, group.is_simple(), group.is_solvable(),
                   group.center_order(), ENGINE_VERSION)


def render_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def report_is_consistent(rep, text=None) -> bool:
    """Whether rep renders as the report _report lays out from its own
    spectrum, flags and center order: counts sum to the order, alpha
    matches counts, the keys come in order, and every value has its type.
    Rendered text is compared, not values: Python's == takes 6.0, True and
    6 as one value, JSON does not.  Given text, as cache_load gives the
    entry's, only the canonical report is rendered, and other bytes for the
    same values, such as another indent, are inconsistent too."""
    try:
        counts = {int(t): int(c) for t, c in rep["spectrum"].items()}
        canonical = _report(str(rep["expression"]), dict(sorted(counts.items())),
                            bool(rep["simple"]), bool(rep["solvable"]),
                            int(rep["center_order"]), str(rep["engine_version"]))
        text = render_json(rep) if text is None else text
        return min(counts.values()) > 0 and text == render_json(canonical)
    except (KeyError, TypeError, ValueError, AttributeError):
        return False


def cache_path(cache_dir: str, expression: str) -> str:
    digest = hashlib.sha256(expression.encode("utf-8")).hexdigest()
    return os.path.join(cache_dir, digest + ".json")


def cache_load(cache_dir: str, expression: str) -> dict | None:
    """Return the cached report, or None when absent, corrupt or stale."""
    try:
        with open(cache_path(cache_dir, expression), "r", encoding="utf-8") as fh:
            text = fh.read()
        rep = json.loads(text)
        if report_is_consistent(rep, text) and rep["expression"] == expression:
            if rep["engine_version"] == ENGINE_VERSION:
                return rep
            print(f"warning: stale cache entry for {expression!r} (engine version "
                  f"{rep['engine_version']!r}); recomputing", file=sys.stderr)
            return None
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        pass
    print(f"warning: corrupt cache entry for {expression!r}; recomputing", file=sys.stderr)
    return None


def cache_store(cache_dir: str, expression: str, rep: dict):
    """Write rep's entry through a temp file no other store shares, created
    exclusively and renamed over the entry, so concurrent writers never meet
    and a reader sees a whole entry; a failed store removes its temp file."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, expression)
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}-{next(_STORES)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(render_json(rep))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def report_for(expression: str, cap: int, cache_dir: str | None = None) -> dict:
    """Report for an expression, consulting the cache when one is configured."""
    from .dsl import eval_expr, parse_expr, print_expr

    ast = parse_expr(expression)
    normalized = print_expr(ast)
    if cache_dir is not None:
        cached = cache_load(cache_dir, normalized)
        if cached is not None:
            return cached
    rep = build_report(normalized, eval_expr(ast, cap))
    if cache_dir is not None:
        cache_store(cache_dir, normalized, rep)
    return rep
