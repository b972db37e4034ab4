"""Traced in-process runs: spans and counts at each layer boundary.

The tracer wraps the public function of each layer under the name its
caller looks up (``runner.integrate``, ``bounds.check_quasi_convex``,
``cli.run``, ...), records one span per call (id, parent, name, start,
end, counts) in memory, and restores every original on exit.  Nothing
in ``src/`` knows about it.

Worker threads start with an empty span stack; their spans take the main
thread's innermost open span (the one that started the pool) as parent.
A span's self time is its duration minus the part of it that its child
spans cover, so overlapping children on two threads are counted once.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module in hhverify, attribute the callers look up, span name).
PATCHES = (
    ("runner", "integrate", "numerics.integrate"),
    ("identities", "integrate", "numerics.integrate"),
    ("bounds", "integrate", "numerics.integrate"),
    ("means", "integrate", "numerics.integrate"),
    ("bounds", "check_quasi_convex", "quasiconvex.check_quasi_convex"),
    ("runner", "certify_hypothesis", "bounds.certify_hypothesis"),
    ("runner", "check_bound", "bounds.check_bound"),
    ("runner", "check_identity", "identities.check_identity"),
    ("runner", "application_check", "means.application_check"),
    ("runner", "best_exponent", "search.best_exponent"),
    ("runner", "worst_case_alpha", "search.worst_case_alpha"),
    ("cli", "run", "runner.run"),
    ("cli", "emit", "report.emit"),
    ("report", "render_json", "report.render_json"),
    ("report", "render_csv", "report.render_csv"),
    ("report", "render_markdown", "report.render_markdown"),
)

ROOT = "cli.main"


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


def _quadrature_counts(result) -> dict:
    return {"evaluations": result.evaluations, "nonconverged": int(not result.converged)}


def _render_counts(result) -> dict:
    return {"out_bytes": len(result.encode("utf-8"))}


COUNTERS = {
    "numerics.integrate": _quadrature_counts,
    "report.render_json": _render_counts,
    "report.render_csv": _render_counts,
    "report.render_markdown": _render_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its counts dict for the caller to fill."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        counts: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, counts))

    def wrap(self, name: str, fn):
        if name == "quasiconvex.check_quasi_convex":
            return self._wrap_certifier(fn)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(result))
                return result

        return traced

    def _wrap_certifier(self, fn):
        def traced(g, *args, **kwargs):
            points = 0

            def counted_g(x):
                nonlocal points
                points += int(np.size(x))
                return g(x)

            with self.span("quasiconvex.check_quasi_convex") as counts:
                cert = fn(counted_g, *args, **kwargs)
                counts.update(g_points=points, refuted=int(not cert.certified))
                return cert

        return traced


@contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers; yields the names that were absent."""
    saved = []
    missing = []
    try:
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(f"hhverify.{module_name}")
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    selfs = self_times(spans)
    layers: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        layer = layers[s.name]
        layer.calls += 1
        layer.self_s += selfs[s.id]
        for key, value in s.counts.items():
            layer.counts[key] += value
    return layers


def traced_main(argv: list[str]) -> tuple[int, Tracer, list[str]]:
    """Run ``hhverify.cli.main(argv)`` under the tracer."""
    cli = importlib.import_module("hhverify.cli")
    tracer = Tracer()
    with patched(tracer) as missing:
        with tracer.span(ROOT):
            code = cli.main(argv)
    return code, tracer, missing


def layer_metrics(layers: dict[str, LayerStats]) -> tuple[dict, dict]:
    """Per-layer counts (exact, repeatable) and self times of one traced run."""
    def layer(name):
        return layers.get(name, LayerStats())

    qc = layer("quasiconvex.check_quasi_convex")
    quad = layer("numerics.integrate")
    check_bound = layer("bounds.check_bound")
    certify = layer("bounds.certify_hypothesis")
    counts = {
        "quasiconvex.check_quasi_convex.calls": qc.calls,
        "quasiconvex.check_quasi_convex.g_points": qc.counts["g_points"],
        "quasiconvex.check_quasi_convex.refuted": qc.counts["refuted"],
        "numerics.integrate.calls": quad.calls,
        "numerics.integrate.evaluations": quad.counts["evaluations"],
        "numerics.integrate.nonconverged": quad.counts["nonconverged"],
        "identities.check_identity.calls": layer("identities.check_identity").calls,
        "means.application_check.calls": layer("means.application_check").calls,
        "bounds.check_bound.calls": check_bound.calls,
        "bounds.certify_hypothesis.calls": certify.calls,
        "report.out_bytes": sum(layer(f"report.render_{f}").counts["out_bytes"]
                                for f in ("json", "csv", "markdown")),
    }
    timed = ("quasiconvex.check_quasi_convex", "numerics.integrate",
             "identities.check_identity", "means.application_check", "bounds.check_bound",
             "search.best_exponent", "search.worst_case_alpha", "report.render_json",
             "report.render_csv", "report.render_markdown", "runner.run")
    times = {f"{name}.self_s": layer(name).self_s for name in timed}
    return counts, times


def root_seconds(tracer: Tracer) -> float:
    """Duration of the traced ``cli.main`` call."""
    return sum(s.end - s.start for s in tracer.spans if s.name == ROOT)


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(tracer.spans, key=lambda s: s.start):
            fh.write(f"{s.id}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                     f"{dict(s.counts) if s.counts else ''}\n")
