"""Spectrum reports and the on-disk report cache.

A report is a plain dict with a fixed key order so serialization is stable
enough for golden files and byte-identical cache round-trips.  The cache is a
pure memo: one JSON document per normalized expression, filename the SHA-256
hex digest of the expression text.  A missing entry is recomputed silently; a
corrupt one (unreadable, or not the bytes build_report would write for its
own values: a mistyped value, an extra key, keys out of order), or one
written by another engine version, is recomputed with a warning and
overwritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from .core import spectrum_checks
from .errors import VerificationError

ENGINE_VERSION = "0.1.0"


def build_report(expression: str, group) -> dict:
    """The report of a built group.

    Its spectrum must pass every structural law of spectrum_checks; the
    first one it breaks raises VerificationError.
    """
    spec = group.spectrum()
    for name, ok, detail in spectrum_checks(spec):
        if not ok:
            raise VerificationError(f"{expression}: spectrum check failed: {name} ({detail})")
    alpha = list(spec.alpha())
    return {
        "expression": expression,
        "order": group.order(),
        "spectrum": {str(t): c for t, c in spec.counts.items()},
        "alpha": alpha,
        "alpha_cardinality": len(alpha),
        "simple": group.is_simple(),
        "solvable": group.is_solvable(),
        "center_order": group.center_order(),
        "engine_version": ENGINE_VERSION,
    }


def render_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def report_is_consistent(rep) -> bool:
    """Whether rep renders as the report build_report would make from its
    own spectrum, flags and center order: counts sum to the order, alpha
    matches counts, the keys come in order, and every value has its type.
    Rendered text is compared, not values: Python's == takes 6.0, True and
    6 as one value, JSON does not."""
    try:
        counts = {int(t): int(c) for t, c in rep["spectrum"].items()}
        alpha = sorted(set(counts.values()))
        canonical = {
            "expression": str(rep["expression"]),
            "order": sum(counts.values()),
            "spectrum": {str(t): counts[t] for t in sorted(counts)},
            "alpha": alpha,
            "alpha_cardinality": len(alpha),
            "simple": bool(rep["simple"]),
            "solvable": bool(rep["solvable"]),
            "center_order": int(rep["center_order"]),
            "engine_version": str(rep["engine_version"]),
        }
        return min(alpha) > 0 and render_json(rep) == render_json(canonical)
    except (KeyError, TypeError, ValueError, AttributeError):
        return False


def cache_path(cache_dir: str, expression: str) -> str:
    digest = hashlib.sha256(expression.encode("utf-8")).hexdigest()
    return os.path.join(cache_dir, digest + ".json")


def cache_load(cache_dir: str, expression: str) -> dict | None:
    """Return the cached report, or None when absent, corrupt or stale."""
    path = cache_path(cache_dir, expression)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
        if report_is_consistent(rep) and rep["expression"] == expression:
            if rep["engine_version"] == ENGINE_VERSION:
                return rep
            print(f"warning: stale cache entry for {expression!r} (engine version "
                  f"{rep['engine_version']!r}); recomputing", file=sys.stderr)
            return None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        pass
    print(f"warning: corrupt cache entry for {expression!r}; recomputing", file=sys.stderr)
    return None


def cache_store(cache_dir: str, expression: str, rep: dict):
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, expression)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(render_json(rep))
    os.replace(tmp, path)


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
