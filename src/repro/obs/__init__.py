"""Observability: request tracing, metrics registry, Prometheus export.

The serving stack's unified visibility layer, built from three stdlib-only
pieces:

* :mod:`repro.obs.trace` — :class:`Span`/:class:`Trace`/:class:`TraceBuffer`,
  the per-request span tree (``queue_wait -> batch_release ->
  engine_execute -> respond``) whose ids ride batcher tickets,
  pool tasks, process-pool envelopes and ShmRing frame headers so one
  request's timeline survives thread *and* process boundaries;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry` with typed
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments that read
  the existing layers' live stats through callbacks at scrape time (the
  JSON views stay byte-compatible), plus checked conservation invariants;
* :mod:`repro.obs.prom` — the Prometheus text-exposition serializer
  (``# TYPE``/``# HELP``, label escaping, histogram buckets) behind
  ``GET /metrics?format=prometheus``.
"""

from .registry import (Counter, Gauge, Histogram, MetricsRegistry,
                       DEFAULT_BUCKETS)
from .trace import (Span, Trace, TraceBuffer, format_trace_id, new_id,
                    parse_trace_id)
from .prom import render_prometheus

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Trace",
    "TraceBuffer",
    "format_trace_id",
    "new_id",
    "parse_trace_id",
    "render_prometheus",
]
