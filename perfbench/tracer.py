"""In-memory spans around the engine's public layer functions.

A traced pass installs wrappers on the public functions of each layer
(``parse_expr``, ``eval_expr``, the ``Group`` structure methods,
``noniso_certificate`` and the report/cache functions), then runs the very
same workload code as an untraced pass.  Each wrapper records one span:
name, start, end and the index of the enclosing span, all stamped with the
pass's run id.  Spans stay in a list until the pass ends and are written out
in one go.

Spans nest the way the calls do.  ``is_simple`` calling
``conjugacy_classes`` on a group that has no classes yet yields a
``core.simple`` span with a ``core.classes`` child, and the layer table uses
self time (span minus children), so the lazy memo in ``Group`` cannot charge
one layer's work to another.  The host-speed probes (hostclock.py) that
interrupt the pass are kept apart from the spans and written out as
``bench.probe`` spans, so their time is charged to no layer.  Anything that
runs inside ``eval_expr`` (the closures and the order-formula check of a
classical group) belongs to the build: matrix and permutation construction
are the layers that own it.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import Counter

from sameorder import core, dsl, reports, verify
from sameorder.dsl import Atom, Product

MATRIX_FAMILIES = {"SL", "PSL", "SU", "PSU"}
BUILD_LAYERS = ("matrices.build", "perms.build")


def _has_matrix_atom(ast) -> bool:
    factors = ast.factors if isinstance(ast, Product) else (ast,)
    return any(isinstance(f, Atom) and f.family in MATRIX_FAMILIES for f in factors)


class Tracer:
    """Span recorder for one pass; ``install`` wraps, ``uninstall`` restores."""

    PROBE = "bench.probe"

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent]
        # (start, end, len(spans) when the probe ran); filled by a signal
        # handler, which may run between any two bytecodes of open/close
        self.probes = []
        self.counts = Counter()
        self._stack = []
        self._patched = []
        # one entry per group whose first order() we saw, to count each
        # enumeration (and each class partition) once despite the memo
        self._enumerated = weakref.WeakSet()
        self._classified = weakref.WeakSet()

    # -- span bookkeeping -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def record_probe(self, start: float, end: float):
        """Book a host-speed probe.

        Called from the SIGALRM handler, so it only appends to a list of its
        own: touching ``spans`` here would shift the index ``open`` is about
        to hand out.  The enclosing span is found from the times afterwards.
        """
        self.probes.append((start, end, len(self.spans)))

    def _probe_parents(self) -> list:
        """Index of the innermost span holding each probe, or -1.

        Only spans opened before the probe ran can hold it, and the ones that
        do are nested, so the last of them that covers it is the innermost.
        """
        parents = []
        for start, end, opened in self.probes:
            parent = -1
            for i in range(opened - 1, -1, -1):
                _, s, e, _ = self.spans[i]
                if s <= start and e >= end:
                    parent = i
                    break
            parents.append(parent)
        return parents

    def _inside_build(self) -> str | None:
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name in BUILD_LAYERS:
                return name
        return None

    def _wrap(self, owner, attr: str, name, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper.

        name is the span name, or a function of the call's arguments that
        returns it.  before(*args) runs ahead of the span and its result is
        handed to after(state, args, result), which runs once the span closes,
        so neither hook's own cost lands inside a layer.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            state = before(*args) if before else None
            idx = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(state, args, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    # -- counters taken at the span boundaries ---------------------------------

    def _order_before(self, group):
        return group not in self._enumerated

    def _order_after(self, first, args, result):
        if not first:
            return
        group = args[0]
        self._enumerated.add(group)
        layer = self._inside_build()
        if layer == "matrices.build":
            self.counts["matrices.elements"] += result
            self.counts["matrices.gens"] += len(group.generators)
            self.counts["matrices.gens_kept"] += len(group.reduced_generators())
        elif layer is None:
            self.counts["core.elements"] += result

    def _classes_before(self, group):
        return group not in self._classified

    def _classes_after(self, first, args, result):
        if first:
            self._classified.add(args[0])
            self.counts["core.classes"] += len(result)

    def _load_before(self, cache_dir, expression):
        return os.path.exists(reports.cache_path(cache_dir, expression))

    def _load_after(self, existed, args, result):
        if result is not None:
            self.counts["reports.cache_hits"] += 1
        elif existed:
            self.counts["reports.cache_corrupt"] += 1
        else:
            self.counts["reports.cache_misses"] += 1

    def _parse_before(self, text):
        # one per parse_expr call: report_for parses its expression twice,
        # once to normalize it and once to build the group
        self.counts["dsl.parses"] += 1

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        self._wrap(dsl, "parse_expr", "dsl.parse", before=self._parse_before)
        self._wrap(dsl, "normalize_expr", "dsl.parse")
        self._wrap(dsl, "eval_expr",
                   lambda ast, *a: "matrices.build" if _has_matrix_atom(ast) else "perms.build")
        G = core.Group
        self._wrap(G, "order", "core.enumerate", self._order_before, self._order_after)
        self._wrap(G, "element_orders", "core.orders")
        self._wrap(G, "conjugacy_classes", "core.classes",
                   self._classes_before, self._classes_after)
        self._wrap(G, "center_order", "core.center")
        self._wrap(G, "is_simple", "core.simple")
        self._wrap(G, "derived_series", "core.derived")
        # verify binds noniso_certificate at import, so wrap its binding
        self._wrap(verify, "noniso_certificate", "core.cert")
        self._wrap(reports, "build_report", "reports.build")
        self._wrap(reports, "render_json", "reports.render")
        self._wrap(reports, "cache_store", "reports.cache_store")
        self._wrap(reports, "cache_load", "reports.cache_load",
                   self._load_before, self._load_after)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path: str):
        probes = [[self.PROBE, start, end, parent]
                  for (start, end, _), parent in zip(self.probes, self._probe_parents())]
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans + probes:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def self_times(self) -> dict:
        """Self time per layer: each span's duration minus its children's.

        A span nested inside a build span is charged to that build, so the
        build layers report inclusive time.  Probe time is taken out of the
        span that holds it and charged to no layer.  Parents precede their
        children in the list, which is the order spans open in.
        """
        child_total = [0.0] * len(self.spans)
        for (start, end, _), parent in zip(self.probes, self._probe_parents()):
            if parent >= 0:
                child_total[parent] += end - start
        owner = [None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_total[parent] += end - start
            inherited = owner[parent] if parent >= 0 else None
            owner[i] = inherited if inherited in BUILD_LAYERS else name
        out = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[owner[i]] += (end - start) - child_total[i]
        return dict(out)
