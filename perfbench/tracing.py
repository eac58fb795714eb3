"""Span and count wrappers around oscgeo's public functions, for traced runs.

`installed(recorder)` patches every binding of each traced function: the
defining module, every oscgeo module that did `from .x import name`, and the
package namespace, so `normalizers.multiply` and `lattices.multiply` are
wrapped along with `group.multiply`.  Methods and constructors are patched on
their classes.  Leaving the context puts every original object back.

Spans (name, start, end, parent span, item id) are appended to in-memory
lists while an item is open and written out once at the end.  Counters only
count, for constructors too hot to span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter
from fractions import Fraction

from oscgeo import (
    algebra,
    cli,
    exact,
    geodesics,
    group,
    isometries,
    lattices,
    normalizers,
    quotient,
)

# span name -> (owner, attribute); module functions are patched at every binding
SPAN_FUNCTIONS = {
    "group.multiply": (group, "multiply"),
    "group.rotation": (group, "rotation"),
    "group.invert": (group, "invert"),
    "normalizers.normalizer_oracle": (normalizers, "normalizer_oracle"),
    "normalizers.in_normalizer": (normalizers, "in_normalizer"),
    "lattices.contains": (lattices, "contains"),
    "lattices.profile": (lattices, "profile"),
    "exact.pi_poly_sign": (exact, "pi_poly_sign"),
    "exact.pi_bounds": (exact, "pi_bounds"),
    "algebra.causal_class": (algebra, "causal_class"),
    "geodesics.eval_geodesic": (geodesics, "eval_geodesic"),
    "geodesics.eval_geodesic_exact": (geodesics, "eval_geodesic_exact"),
    "geodesics.geodesic_rhs": (geodesics, "geodesic_rhs"),
    "geodesics.integrate_geodesic_batch": (geodesics, "integrate_geodesic_batch"),
    "quotient.classify_lightlike": (quotient, "classify_lightlike"),
    "quotient.closed_timelike_and_spacelike": (quotient, "closed_timelike_and_spacelike"),
    "quotient.search_closed": (quotient, "search_closed"),
    "isometries.is_fiber_preserving": (isometries, "is_fiber_preserving"),
    "isometries.apply_isometry": (isometries, "apply_isometry"),
    "isometries.structure_relations_check": (isometries, "structure_relations_check"),
    "cli.main": (cli, "main"),
    "cli.emit": (cli, "emit"),
}
# span name -> method attribute; patched on every lattices class defining it
SPAN_LATTICE_METHODS = {"lattices.contains": "contains", "lattices.profile": "profile"}
SPAN_METHODS = {"quotient.certificate_verify": (quotient.ClosedGeodesicCertificate, "verify")}
COUNTED = {
    "exact.fraction_new": (Fraction, "__new__"),
    "group.element_new": (group.GroupElement, "__init__"),
}
# span name -> summary of the return value kept with the span
OUTCOMES = {
    "quotient.search_closed": lambda cert: cert is not None,
    "cli.main": lambda code: code,
}
RAISED = "raised"


class Recorder:
    """In-memory spans and counts; records only while an item is open."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self.outcome: list = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.current_item: int | None = None

    @contextlib.contextmanager
    def item_open(self, item_id: int):
        self.current_item = item_id
        try:
            yield
        finally:
            self.current_item = None
            self.stack.clear()

    def span_wrapper(self, name: str, fn):
        summarize = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current_item is None:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.item.append(self.current_item)
            self.outcome.append(RAISED)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
            self.outcome[idx] = summarize(result) if summarize else None
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current_item is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.name):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parent[i], "item": self.item[i],
                    "start": self.start[i] - t0, "end": self.end[i] - t0,
                    "outcome": self.outcome[i],
                }) + "\n")


def _bindings(original) -> list:
    """Every (module, attribute) in the oscgeo package bound to `original`."""
    out = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "oscgeo" and not mod_name.startswith("oscgeo."):
            continue
        for attr, value in vars(module).items():
            if value is original:
                out.append((module, attr))
    return out


def patch_targets() -> list:
    """(name, owner, attribute, kind) for every object a traced run replaces."""
    targets = []
    for name, (module, attr) in SPAN_FUNCTIONS.items():
        for owner, bound in _bindings(getattr(module, attr)):
            targets.append((name, owner, bound, "span"))
    for name, attr in SPAN_LATTICE_METHODS.items():
        for cls in vars(lattices).values():
            if isinstance(cls, type) and cls.__module__ == lattices.__name__ and attr in vars(cls):
                targets.append((name, cls, attr, "span"))
    for name, (cls, attr) in SPAN_METHODS.items():
        targets.append((name, cls, attr, "span"))
    for name, (cls, attr) in COUNTED.items():
        targets.append((name, cls, attr, "count"))
    return targets


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Patch every target with a wrapper bound to `recorder`; restore on exit."""
    saved = []
    try:
        for name, owner, attr, kind in patch_targets():
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            make = recorder.span_wrapper if kind == "span" else recorder.count_wrapper
            wrapper = make(name, fn)
            saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        yield saved
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- per-layer metrics -------------------------------------------------------------

CALLS = (
    "group.multiply", "group.rotation", "group.invert",
    "normalizers.normalizer_oracle", "normalizers.in_normalizer",
    "lattices.contains", "lattices.profile",
    "exact.pi_poly_sign", "exact.pi_bounds", "algebra.causal_class",
    "geodesics.eval_geodesic_exact", "geodesics.geodesic_rhs", "geodesics.eval_geodesic",
    "quotient.search_closed", "quotient.closed_timelike_and_spacelike",
    "quotient.certificate_verify",
    "isometries.is_fiber_preserving", "isometries.apply_isometry", "cli.main",
)
SELF_TIMES = (
    "group.multiply", "group.rotation",
    "normalizers.normalizer_oracle", "normalizers.in_normalizer", "lattices.contains",
    "exact.pi_poly_sign", "geodesics.eval_geodesic_exact",
    "quotient.search_closed", "quotient.closed_timelike_and_spacelike",
    "quotient.certificate_verify",
    "geodesics.geodesic_rhs", "geodesics.integrate_geodesic_batch", "geodesics.eval_geodesic",
    "isometries.is_fiber_preserving", "isometries.structure_relations_check",
    "cli.main", "cli.emit",
)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced_s: float) -> tuple[dict, dict]:
    """name -> (value, unit) for every per-layer metric, and self seconds by span name.

    Self time is reported as a share of `traced_s`, the traced items' wall
    time, which does not drift with the machine's speed as seconds do.
    """
    n = len(rec.name)
    calls: Counter = Counter(rec.name)
    self_s: Counter = Counter()
    child_s = [0.0] * n
    for i in range(n - 1, -1, -1):  # children always follow their parent
        dur = rec.end[i] - rec.start[i]
        self_s[rec.name[i]] += dur - child_s[i]
        if rec.parent[i] >= 0:
            child_s[rec.parent[i]] += dur

    def under(name: str, ancestor: str) -> int:
        hits = 0
        for i in range(n):
            if rec.name[i] != name:
                continue
            j = rec.parent[i]
            while j >= 0 and rec.name[j] != ancestor:
                j = rec.parent[j]
            hits += j >= 0
        return hits

    def direct(name: str, parent: str) -> int:
        return sum(
            1 for i in range(n)
            if rec.name[i] == name and rec.parent[i] >= 0 and rec.name[rec.parent[i]] == parent
        )

    def outcomes(name: str, value) -> int:
        return sum(1 for i in range(n) if rec.name[i] == name and rec.outcome[i] == value)

    out = {f"{name}.calls": (rec.counts[name], "count") for name in COUNTED}
    out.update({f"{name}.calls": (calls[name], "count") for name in CALLS})
    out.update({f"{name}.self_share": (_share(self_s[name], traced_s), "ratio")
                for name in SELF_TIMES})
    out["normalizers.multiply_per_oracle"] = (
        _share(under("group.multiply", "normalizers.normalizer_oracle"),
               calls["normalizers.normalizer_oracle"]), "calls/call")
    out["normalizers.profile_per_in_normalizer"] = (
        _share(under("lattices.profile", "normalizers.in_normalizer"),
               calls["normalizers.in_normalizer"]), "calls/call")
    out["exact.pi_bounds_per_sign"] = (
        _share(calls["exact.pi_bounds"], calls["exact.pi_poly_sign"]), "calls/call")
    out["quotient.search_closed.exact_candidates"] = (
        direct("geodesics.eval_geodesic_exact", "quotient.search_closed"), "count")
    out["quotient.search_closed.float_candidates"] = (
        direct("geodesics.eval_geodesic", "quotient.search_closed"), "count")
    out["quotient.closed_share"] = (
        _share(outcomes("quotient.search_closed", True), calls["quotient.search_closed"]),
        "ratio")
    out["cli.exit2_share"] = (_share(outcomes("cli.main", 2), calls["cli.main"]), "ratio")
    out["trace.spans"] = (n, "count")
    return out, dict(self_s)
