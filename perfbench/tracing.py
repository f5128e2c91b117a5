"""Per-layer tracing of ``opalg`` from outside the package.

The tracer replaces public functions with timing wrappers by patching the
attribute in every namespace where a caller looks it up (``gsbasis``
imports ``iter_occurrences`` by name, ``rewrite`` imports ``instantiate``,
and so on), plus class attributes for methods.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

Each wrapped call pushes a frame so that a parent's self time excludes the
time of its wrapped children.  Three kinds of wrapper exist:

``span``
    phase-level functions: one ``(name, start, end, parent)`` span per call
    plus totals.
``agg``
    hot functions (hundreds of thousands to millions of calls): count and
    time aggregated per parent name, no spans.
``count``
    functions cheaper than the wrapper itself: calls per parent only, no
    timing (the time stays in the caller's self time).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import opalg
from opalg import cli, gsbasis, opi, orders, poly, rewrite, terms

LAYERS = {m.__name__.rpartition(".")[2]: m for m in (terms, poly, orders, opi, rewrite, gsbasis, cli)}
# Callers look functions up in the layer modules and in the package itself.
NAMESPACES = (*LAYERS.values(), opalg)

# (layer, qualified name, kind).  Module functions are patched in every
# namespace that binds the original object; methods on their class.
TARGETS = (
    ("gsbasis", "check_gs", "span"),
    ("gsbasis", "GeneratorSet.expanded", "span"),
    ("gsbasis", "GeneratorSet.ruleset", "span"),
    ("gsbasis", "pair_compositions", "agg"),
    ("gsbasis", "is_trivial", "span"),
    ("gsbasis", "enumerate_irr", "span"),
    ("gsbasis", "QuotientAlgebra.nf", "span"),
    ("opi", "expand_instances", "span"),
    ("opi", "check_lm_stability", "span"),
    ("opi", "instantiate", "agg"),
    ("opi", "parse_catalog", "span"),
    ("rewrite", "RuleSet.ordered", "span"),
    ("rewrite", "RuleSet.find_redex", "agg"),
    ("rewrite", "normal_form", "span"),
    ("rewrite", "check_rb_type", "span"),
    ("rewrite", "check_diff_type", "span"),
    ("terms", "iter_occurrences", "agg"),
    ("terms", "align_factors", "agg"),
    ("terms", "all_words", "span"),
    ("orders", "OrderSpec.compare", "count"),
    ("poly", "OPoly.__init__", "agg"),
    ("poly", "OPoly.leading", "agg"),
    ("poly", "OPoly.monicize", "agg"),
    ("cli", "main", "span"),
)

# Recursive generators are patched only where other modules import them, so
# their own recursion is not counted as calls.
_SKIP_DEFINING_MODULE = {"iter_occurrences"}

ROOT = "<root>"


class _Frame:
    __slots__ = ("name", "span", "child")

    def __init__(self, name: str, span: int):
        self.name = name
        self.span = span
        self.child = 0.0


class Tracer:
    """Install wrappers, collect spans and counters, report metrics."""

    def __init__(self):
        self.stack = [_Frame(ROOT, -1)]
        self.spans: list[tuple[str, float, float, int]] = []
        # metric name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        # (metric name, parent name) -> [calls, total_s, self_s]
        self.by_parent: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(int)
        self.kinds: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.epoch = time.perf_counter()

    # -- wrappers ------------------------------------------------------

    def _wrap_span(self, name, fn, on_return):
        stack, spans, tot = self.stack, self.spans, self.totals[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            frame = _Frame(name, idx)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent.child += dt
                spans[idx] = (name, t0, t1, parent.span)
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - frame.child
            if on_return is not None:
                on_return(self, out)
            return out

        return wrapper

    def _wrap_agg(self, name, fn, on_return):
        stack, tot, by_parent = self.stack, self.totals[name], self.by_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(name, parent.span)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, out)
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                parent.child += dt
                self_dt = dt - frame.child
                tot[0] += 1
                tot[1] += dt
                tot[2] += self_dt
                agg = by_parent[(name, parent.name)]
                agg[0] += 1
                agg[1] += dt
                agg[2] += self_dt

        return wrapper

    def _wrap_agg_gen(self, name, fn):
        # Generator functions do their work while the caller iterates, so
        # time each resumption, not the call that creates the generator.
        stack, tot, by_parent = self.stack, self.totals[name], self.by_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_name = stack[-1].name
            tot[0] += 1
            agg = by_parent[(name, parent_name)]
            agg[0] += 1
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = _Frame(name, parent.span)
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent.child += dt
                    tot[1] += dt
                    tot[2] += dt - frame.child
                    agg[1] += dt
                    agg[2] += dt - frame.child
                yield item

        return wrapper

    def _wrap_count(self, name, fn):
        stack, tot, by_parent = self.stack, self.totals[name], self.by_parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tot[0] += 1
            by_parent[(name, stack[-1].name)][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for layer, qual, kind in TARGETS:
            name = f"{layer}.{qual}"
            self.totals[name] = [0, 0.0, 0.0]
            self.kinds[name] = kind
            on_return = _ON_RETURN.get(name)
            home = LAYERS[layer]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._make(name, kind, fn, on_return)
                self._set(cls, meth, classmethod(wrapped) if is_cm else wrapped)
                continue
            orig = getattr(home, qual)
            wrapped = self._make(name, kind, orig, on_return)
            for mod in NAMESPACES:
                if mod is home and qual in _SKIP_DEFINING_MODULE:
                    continue
                if mod.__dict__.get(qual) is orig:
                    self._set(mod, qual, wrapped)

    def _make(self, name, kind, fn, on_return):
        if kind == "span":
            return self._wrap_span(name, fn, on_return)
        if kind == "count":
            return self._wrap_count(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_agg_gen(name, fn)
        return self._wrap_agg(name, fn, on_return)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, total, self_t) in self.totals.items():
            out[f"{name}.calls"] = (calls, "count")
            if self.kinds[name] != "count":
                out[f"{name}.total_s"] = (total, "s")
                out[f"{name}.self_s"] = (self_t, "s")
        c = self.counts
        pairs = self.totals["gsbasis.pair_compositions"][0]
        searches = self.totals["rewrite.RuleSet.find_redex"][0]
        out["gsbasis.generators"] = (c["generators"], "count")
        out["gsbasis.records"] = (c["records"], "count")
        out["gsbasis.records_reduced"] = (c["records_reduced"], "count")
        out["gsbasis.record_yield"] = (c["records"] / pairs if pairs else 0.0, "ratio")
        out["gsbasis.reduction_steps"] = (c["reduction_steps"], "count")
        out["opi.instances"] = (c["instances"], "count")
        out["opi.stability_assignments"] = (c["stability_assignments"], "count")
        out["rewrite.rules_compiled"] = (c["rules_compiled"], "count")
        out["rewrite.find_redex.hit_ratio"] = (c["redex_hits"] / searches if searches else 0.0, "ratio")
        return out

    def dump(self, path: str) -> None:
        """Write spans and per-parent aggregates as one JSON document."""
        doc = {
            "spans": [
                {"name": n, "start_s": s - self.epoch, "end_s": e - self.epoch, "parent": p}
                for n, s, e, p in self.spans
            ],
            "by_parent": [
                {"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.by_parent.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def _count_check_gs(tr: Tracer, report) -> None:
    tr.counts["generators"] += sum(report.generator_counts.values())
    tr.counts["records"] += report.counts["total"]
    tr.counts["records_reduced"] += report.counts["total"] - report.counts["skipped"]


def _count_is_trivial(tr: Tracer, result) -> None:
    tr.counts["reduction_steps"] += len(result.steps)


def _count_instances(tr: Tracer, records) -> None:
    tr.counts["instances"] += len(records)


def _count_stability(tr: Tracer, report) -> None:
    tr.counts["stability_assignments"] += report.enumerated


def _count_rules(tr: Tracer, ruleset) -> None:
    tr.counts["rules_compiled"] += len(ruleset.rules)


def _count_redex_hits(tr: Tracer, redex) -> None:
    if redex is not None:
        tr.counts["redex_hits"] += 1


_ON_RETURN = {
    "gsbasis.check_gs": _count_check_gs,
    "gsbasis.is_trivial": _count_is_trivial,
    "opi.expand_instances": _count_instances,
    "opi.check_lm_stability": _count_stability,
    "rewrite.RuleSet.ordered": _count_rules,
    "rewrite.RuleSet.find_redex": _count_redex_hits,
}
