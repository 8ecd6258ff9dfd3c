"""Span tracing of gptdisc's public functions, applied from outside the package.

:meth:`Tracer.install` replaces each function in :data:`TRACED` by a
wrapper in every loaded ``gptdisc`` module that holds a reference to it,
which is where that module looks the name up at call time (for example
``gptdisc.cone.member_of`` for the pruning loop of ``dual_cone`` and
``gptdisc.discrimination.solve_lp`` for the discrimination LPs).  Nothing
under ``src/`` is edited.  Spans stay in memory until the caller takes
them; :func:`layer_totals` turns a span list into additive per-layer
counters and :func:`layer_metrics` into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import NamedTuple

#: Traced functions as (module under ``gptdisc``, function name).
TRACED = (
    ("lp", "solve_lp"),
    ("lp", "feasibility_gap"),
    ("cone", "dual_cone"),
    ("cone", "member_of"),
    ("cone", "cones_equal"),
    ("model", "validate_model"),
    ("model", "validate_ensemble"),
    ("discrimination", "solve_discrimination"),
    ("discrimination", "verify_kkt"),
    ("geometry", "congruence_check"),
    ("oracle", "dual_vertex_enumeration"),
    ("serialize", "load_ensemble"),
    ("serialize", "dumps"),
    ("cli", "main"),
)

#: Per-layer metric names and units.  ``cli.interpreter_ms``, ``cli.import_ms``
#: and ``trace.overhead_frac`` are measured by the harness, not from spans.
PER_LAYER = {
    "lp.solve_lp.calls": "count",
    "lp.solve_lp.self_s": "s",
    "lp.solve_lp.failed": "count",
    "lp.solve_lp.rows_max": "count",
    "lp.feasibility_gap.calls": "count",
    "lp.feasibility_gap.total_s": "s",
    "cone.dual_cone.calls": "count",
    "cone.dual_cone.self_s": "s",
    "cone.dual_cone.total_s": "s",
    "cone.dual_cone.rays_out": "count",
    "cone.dual_cone.prune_ratio": "ratio",
    "cone.member_of.calls": "count",
    "cone.member_of.total_s": "s",
    "cone.cones_equal.total_s": "s",
    "model.validate_model.total_s": "s",
    "model.validate_ensemble.calls": "count",
    "model.validate_ensemble.total_s": "s",
    "discrimination.solve_discrimination.total_s": "s",
    "discrimination.solve_discrimination.self_s": "s",
    "discrimination.verify_kkt.total_s": "s",
    "geometry.congruence_check.total_s": "s",
    "oracle.dual_vertex_enumeration.calls": "count",
    "oracle.dual_vertex_enumeration.total_s": "s",
    "oracle.dual_vertex_enumeration.vertices_examined": "count",
    "serialize.load_ensemble.total_s": "s",
    "serialize.dumps.total_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: str | None
    ok: bool
    detail: object


def _detail(name: str, args, result):
    """The count a layer metric needs from one call, taken at the layer boundary."""
    if name == "lp.solve_lp":
        return [args[0].n_rows, None if result is None else result.status]
    if result is None:
        return None
    if name == "cone.dual_cone":
        return result.n_generators
    if name == "cone.member_of":
        return bool(result)
    if name == "oracle.dual_vertex_enumeration":
        return result.vertices_examined
    return None


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.instance, ok, _detail(name, args, result))
                )

        return traced

    def install(self) -> None:
        """Wrap every traced function at each ``gptdisc`` module that refers to it."""
        for module_name, func_name in TRACED:
            original = getattr(importlib.import_module(f"gptdisc.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for loaded_name, module in list(sys.modules.items()):
                if loaded_name != "gptdisc" and not loaded_name.startswith("gptdisc."):
                    continue
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)
                    self._patched.append((module, func_name, original))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._patched):
            setattr(module, func_name, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans, totals: defaultdict | None = None) -> defaultdict:
    """Add the counters of one process's spans to ``totals`` (a ``defaultdict(float)``).

    Self time is a span's duration minus the durations of its direct
    children.  Span ids are only unique within one process, so call this
    once per process and let the totals add up.
    """
    totals = defaultdict(float) if totals is None else totals
    spans = [Span(*span) for span in spans]
    names = {span.id: span.name for span in spans}
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    for span in spans:
        duration = span.end - span.start
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.total_s"] += duration
        totals[f"{span.name}.self_s"] += duration - child_time[span.id]
        failed = not span.ok
        if span.name == "lp.solve_lp":
            rows, status = span.detail
            failed = failed or status != "optimal"
            totals["lp.solve_lp.rows_max"] = max(totals["lp.solve_lp.rows_max"], rows)
        elif span.name == "cone.dual_cone" and span.ok:
            totals["cone.dual_cone.rays_out"] += span.detail
        elif span.name == "cone.member_of" and names.get(span.parent) == "cone.dual_cone":
            # A pruning membership LP is useful when it finds the ray redundant.
            totals["prune.calls"] += 1
            totals["prune.dropped"] += bool(span.detail)
        elif span.name == "oracle.dual_vertex_enumeration" and span.ok:
            totals["oracle.dual_vertex_enumeration.vertices_examined"] += span.detail
        totals[f"{span.name}.failed"] += failed
    return totals


def layer_metrics(totals) -> dict[str, float]:
    """Span-derived per-layer metrics; layers that were never called read 0."""
    metrics = {
        name: float(totals.get(name, 0.0))
        for name in PER_LAYER
        if name not in ("cli.interpreter_ms", "cli.import_ms", "trace.overhead_frac")
    }
    calls = totals.get("prune.calls", 0.0)
    metrics["cone.dual_cone.prune_ratio"] = totals.get("prune.dropped", 0.0) / calls if calls else 0.0
    return metrics
