"""Span tracing of ``semigraded`` from outside the package.

``install()`` wraps a fixed set of public functions of each module (the
layers ``cli``, ``presentation``, ``scalars``, ``rewrite``, ``grading``,
``invariants`` and ``catalog``) and rebinds every module-level name that
refers to one of them, in every loaded ``semigraded`` module, so calls made
through an imported alias (``rref`` inside ``invariants``, ``nc_mul`` inside
``grading``) are traced too.  Each call becomes a span (name, start, end,
parent) kept in flat arrays in memory; ``SpanLog.write`` saves them once, at
the end of a run, and ``summarize`` turns span logs into per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer, module, attribute); a dotted attribute is a method of a class.
TRACED = (
    ("cli", "semigraded.cli", "main"),
    ("presentation", "semigraded.presentation", "parse_presentation"),
    ("presentation", "semigraded.presentation", "parse_element"),
    ("presentation", "semigraded.presentation", "format_element"),
    ("presentation", "semigraded.presentation", "print_presentation"),
    ("presentation", "semigraded.presentation", "specialize_presentation"),
    ("scalars", "semigraded.scalars", "ScalarField.normalize"),
    ("scalars", "semigraded.scalars", "ScalarField.specialize"),
    ("rewrite", "semigraded.rewrite", "nc_mul"),
    ("rewrite", "semigraded.rewrite", "nc_pow"),
    ("rewrite", "semigraded.rewrite", "free_to_normal_form"),
    ("rewrite", "semigraded.rewrite", "check_pbw"),
    ("grading", "semigraded.grading", "rref"),
    ("grading", "semigraded.grading", "left_ideal_window"),
    ("grading", "semigraded.grading", "is_semigraded_window"),
    ("grading", "semigraded.grading", "window_dims"),
    ("grading", "semigraded.grading", "filtration_window"),
    ("invariants", "semigraded.invariants", "hilbert_series"),
    ("invariants", "semigraded.invariants", "hilbert_polynomial"),
    ("invariants", "semigraded.invariants", "ggk_estimate"),
    ("catalog", "semigraded.catalog", "catalog_verify"),
)


# Span names are <layer>.<function>, e.g. scalars.normalize.
NAMES = tuple(f"{layer}.{attr.rsplit('.', 1)[-1]}" for layer, _, attr in TRACED)
LAYERS = tuple(layer for layer, _, _ in TRACED)


class SpanLog:
    """Spans of one process, in start order, plus per-call counters."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # rewrite.terms_out and the grading.rref input/output sizes
        self.counters = {
            "terms_out": 0, "rows_in": 0, "cols": 0, "rank": 0,
            "nnz_in": 0, "cells_in": 0,
        }

    def wrap(self, sid: int, fn):
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counted(self, sid: int, fn, attr: str):
        traced = self.wrap(sid, fn)
        counters = self.counters
        if attr == "nc_mul":
            def nc_mul(*args, **kwargs):
                result = traced(*args, **kwargs)
                counters["terms_out"] += len(result.terms)
                return result
            return nc_mul
        if attr == "rref":
            def rref(rows, *args, **kwargs):
                if rows:
                    counters["rows_in"] += len(rows)
                    counters["cols"] += len(rows[0])
                    counters["cells_in"] += len(rows) * len(rows[0])
                    counters["nnz_in"] += sum(1 for row in rows for x in row if x)
                result = traced(rows, *args, **kwargs)
                counters["rank"] += len(result[1])
                return result
            return rref
        return traced

    def write(self, path: str) -> None:
        header = {"names": list(NAMES), "count": len(self.start), "counters": self.counters}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)


def read(path: str) -> SpanLog:
    log = SpanLog()
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        if header["names"] != list(NAMES):
            raise ValueError(f"{path}: span names differ from this tracer")
        count = header["count"]
        for arr in (log.name, log.parent, log.start, log.end):
            arr.fromfile(handle, count)
    log.counters = header["counters"]
    return log


def install() -> SpanLog:
    """Wrap the traced functions in every loaded ``semigraded`` module."""
    import semigraded  # noqa: F401  (loads every module of the package)
    import semigraded.cli  # noqa: F401

    log = SpanLog()
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "semigraded" or key.startswith("semigraded."))]
    for sid, (_, module_name, attr) in enumerate(TRACED):
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, log.wrap(sid, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        wrapper = log.counted(sid, original, attr)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return log


def summarize(logs) -> dict:
    """Per-layer metrics from span logs.

    ``calls`` counts every span; ``busy_ms`` sums spans not nested inside a
    span of the same function; ``self_ms`` is busy time minus the time those
    spans spent in child spans of other layers (a same-layer child passes its
    own other-layer time up to its parent).
    """
    n_names = len(NAMES)
    calls = [0] * n_names
    busy = [0.0] * n_names
    self_time = [0.0] * n_names
    totals = dict.fromkeys(SpanLog().counters, 0)
    for log in logs:
        names, parents, start, end = log.name, log.parent, log.start, log.end
        count = len(start)
        # ancestor-name bitmask, filled in start order (parents come first)
        masks = [0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                masks[i] = masks[p] | (1 << names[p])
        other = [0.0] * count
        for i in range(count - 1, -1, -1):
            sid = names[i]
            dur = end[i] - start[i]
            calls[sid] += 1
            if not (masks[i] >> sid) & 1:
                busy[sid] += dur
                self_time[sid] += dur - other[i]
            p = parents[i]
            if p >= 0:
                other[p] += dur if LAYERS[names[p]] != LAYERS[sid] else other[i]
        for key, value in log.counters.items():
            totals[key] += value
    out = {}
    for sid, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[sid]
        out[f"{name}.busy_ms"] = busy[sid] * 1000.0
        out[f"{name}.self_ms"] = self_time[sid] * 1000.0
    out["rewrite.terms_out"] = totals["terms_out"]
    for key in ("rows_in", "cols", "rank", "nnz_in"):
        out[f"grading.rref.{key}"] = totals[key]
    out["grading.rref.fill"] = (
        totals["nnz_in"] / totals["cells_in"] if totals["cells_in"] else 0.0
    )
    return out
