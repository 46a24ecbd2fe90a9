"""Observability: tracing, metrics and per-assertion profiling.

Zero-dependency (stdlib only) and zero-cost when disabled: the engine
ships with a :class:`NullTracer` and creates no per-commit observation
state unless a real tracer or a slow-commit threshold is installed —
the hot commit path pays one ``is None`` test per stage point.

Three layers, one package:

* :mod:`repro.obs.trace` — spans.  A :class:`Tracer` receives finished
  :class:`Span` records; :class:`RecordingTracer` keeps them in memory
  (tests, EXPLAIN ANALYZE-style inspection), :class:`JsonlTracer`
  writes one JSON line per span for offline analysis.  A
  :class:`CommitObs` carries one commit's trace through every thread
  hop of the pipeline (client/server thread → admission worker →
  scheduler leader), so a single trace id reconstructs
  the admission-wait / queue-wait / validate / apply / log / flush
  breakdown.
* :mod:`repro.obs.metrics` — a metrics registry: counters, gauges and
  fixed-bucket latency histograms (p50/p95/p99 derivable), rendered in
  Prometheus text exposition format.  :class:`StatsBlock` is the
  shared bump-under-lock/consistent-snapshot counter block every
  stats object is built on; each engine's blocks register once on
  its ``registry``.
* :mod:`repro.obs.profiler` — per-assertion check accounting
  (:class:`AssertionProfiler`: cumulative count, wall time, rows) and
  the per-node :class:`PlanStatsCollector` behind ``EXPLAIN ANALYZE``.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsBlock,
)
from .profiler import AssertionProfiler, PlanStatsCollector
from .trace import (
    CommitObs,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Span,
    Tracer,
    new_trace_id,
)

__all__ = [
    "AssertionProfiler",
    "CommitObs",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTracer",
    "MetricsRegistry",
    "NullTracer",
    "PlanStatsCollector",
    "RecordingTracer",
    "Span",
    "StatsBlock",
    "Tracer",
    "new_trace_id",
]
